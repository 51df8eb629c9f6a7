// The disk graph of a deployment: nodes i and j are adjacent when
// distance(p_i, p_j) <= range. It serves both the connectivity check that
// accepts or redraws a deployment and the radio fabric's neighbor lists, so
// world::Workspace builds it once per deployment attempt and hands the
// accepted one to net::Network.
//
// The adjacency is stored in CSR form, and build() reuses the graph's
// storage (and its GridIndex), so rebuilding a graph of the same size does
// not allocate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/grid_index.hpp"
#include "geom/vec2.hpp"

namespace pas::geom {

class DiskGraph {
 public:
  /// Rebuilds the graph over `points`: node i's neighbors are every j != i
  /// within `range` of points[i], in GridIndex visit order (cell by cell,
  /// not sorted). The index covers the points' bounding box inflated by
  /// 1 m, with cells of size `range`; throws std::invalid_argument unless
  /// range > 0 (for a non-empty point set).
  void build(std::span<const Vec2> points, double range);

  /// Sorts every node's neighbors ascending.
  void sort_neighbors();

  /// True when a breadth-first search from node 0 reaches every node. An
  /// empty graph is connected.
  [[nodiscard]] bool connected();

  [[nodiscard]] std::size_t size() const noexcept {
    return start_.empty() ? 0 : start_.size() - 1;
  }

  /// Node `i`'s neighbors (i < size()).
  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::size_t i) const noexcept {
    return {ids_.data() + start_[i], ids_.data() + start_[i + 1]};
  }

  /// Exchanges the graphs, storage and all.
  void swap(DiskGraph& other) noexcept;

 private:
  GridIndex index_;
  // Node i's neighbors are ids_[start_[i] .. start_[i + 1]).
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> ids_;
  // connected()'s search state, kept for its capacity.
  std::vector<char> seen_;
  std::vector<std::uint32_t> order_;
};

}  // namespace pas::geom
