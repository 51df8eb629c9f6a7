// Uniform-grid spatial index over a fixed point set.
//
// The disk graph (geom/disk_graph.hpp) asks "which nodes are within range R
// of p" for every node once per deployment; with cell size ~R this is
// O(neighbors). The index keeps the points themselves in CSR (cell-major)
// order, so the cells cx0..cx1 of one grid row are one contiguous run of
// points: a query walks one run per row instead of one short list per cell.
//
// assign() rebuilds the index in place, reusing its storage, so a caller
// that indexes deployment after deployment allocates only while the point
// set grows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec2.hpp"

namespace pas::geom {

class GridIndex {
 public:
  /// Cells per axis never exceed this: a cell size far below the region's
  /// extent (a hostile radio range) grows instead, so the index stays
  /// O(points + kMaxCellsPerAxis²) in memory. Any positive cell size gives
  /// the same query results; only the candidate count changes.
  static constexpr int kMaxCellsPerAxis = 1024;

  /// An empty index; assign() gives it points.
  GridIndex() = default;

  /// Builds an index over `points` covering `bounds` with the given cell
  /// size. Points outside bounds are clamped into the edge cells.
  GridIndex(const std::vector<Vec2>& points, Aabb bounds, double cell_size);

  /// Rebuilds the index in place (same contract as the constructor).
  void assign(std::span<const Vec2> points, Aabb bounds, double cell_size);

  /// Indices of points with distance(p, point) <= radius, ascending.
  [[nodiscard]] std::vector<std::uint32_t> query_radius(Vec2 p, double radius) const;

  /// Calls visit(id) for each point within `radius` of `p`, without
  /// allocating. Cells are visited row by row, each row's cells left to
  /// right, and a cell's points in ascending id order — so ids come out
  /// cell by cell, not in id order.
  template <typename Visit>
  void for_each_in_radius(Vec2 p, double radius, Visit&& visit) const {
    if (radius < 0.0 || points_.empty()) return;
    const double r2 = radius * radius;
    const int cx0 = cell_x(p.x - radius), cx1 = cell_x(p.x + radius);
    const int cy0 = cell_y(p.y - radius), cy1 = cell_y(p.y + radius);
    for (int cy = cy0; cy <= cy1; ++cy) {
      // Cells cx0..cx1 of row cy are adjacent in CSR order. The run is
      // tested in chunks without a branch per candidate (with cells of
      // size ~radius a third of them pass, so that branch mispredicts),
      // then the chunk's hits are visited in order: the same ids in the
      // same order as testing and visiting one by one.
      const std::uint32_t end = cell_start_[cell_of(cx1, cy) + 1];
      std::uint32_t k = cell_start_[cell_of(cx0, cy)];
      while (k < end) {
        std::uint32_t hits[kChunk];
        std::uint32_t m = 0;
        const std::uint32_t stop = std::min(end, k + kChunk);
        for (; k < stop; ++k) {
          hits[m] = ids_[k];
          m += distance2(points_[k], p) <= r2 ? 1 : 0;
        }
        for (std::uint32_t h = 0; h < m; ++h) visit(hits[h]);
      }
    }
  }

  /// Index of the nearest point to `p`, the lowest id among equally near
  /// ones (the point set must be non-empty). A linear scan over every
  /// point: the sets here hold tens to thousands of points.
  [[nodiscard]] std::uint32_t nearest(Vec2 p) const;

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

  /// Number of grid cells (at most kMaxCellsPerAxis²).
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  }

 private:
  static constexpr std::uint32_t kChunk = 32;

  /// The cell holding coordinate `v` (in cells from the low edge), clamped
  /// into [0, n - 1]: floor(v) clamped. `v` is first bounded to [-1, n] as
  /// a double, so no out-of-range value (or NaN, which gives cell 0)
  /// reaches the int conversion; after that, truncation and floor agree on
  /// every value the clamp does not send to cell 0.
  [[nodiscard]] static int clamp_cell(double v, int n) noexcept {
    const double bounded = std::min(static_cast<double>(n), std::max(-1.0, v));
    return std::clamp(static_cast<int>(bounded), 0, n - 1);
  }
  [[nodiscard]] int cell_x(double x) const noexcept {
    return clamp_cell((x - bounds_.lo.x) / cell_, nx_);
  }
  [[nodiscard]] int cell_y(double y) const noexcept {
    return clamp_cell((y - bounds_.lo.y) / cell_, ny_);
  }
  [[nodiscard]] std::size_t cell_of(int cx, int cy) const noexcept {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(cx);
  }
  [[nodiscard]] std::size_t cell_of(Vec2 p) const noexcept {
    return cell_of(cell_x(p.x), cell_y(p.y));
  }

  Aabb bounds_;
  double cell_ = 1.0;
  int nx_ = 1;
  int ny_ = 1;
  // CSR layout: the points of cell c are points_[cell_start_[c] ..
  // cell_start_[c + 1]), ascending by id within the cell; ids_[k] is the
  // caller's index of points_[k].
  std::vector<std::uint32_t> cell_start_;
  std::vector<Vec2> points_;
  std::vector<std::uint32_t> ids_;
};

}  // namespace pas::geom
