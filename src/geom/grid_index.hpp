// Uniform-grid spatial index over a fixed point set.
//
// The radio layer asks "which nodes are within range R of p" once per
// broadcast; with cell size ~R this is O(neighbors). Points are fixed after
// build (sensor nodes do not move), so the index is immutable.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec2.hpp"

namespace pas::geom {

class GridIndex {
 public:
  /// Builds an index over `points` covering `bounds` with the given cell
  /// size. Points outside bounds are clamped into the edge cells.
  GridIndex(const std::vector<Vec2>& points, Aabb bounds, double cell_size);

  /// Indices of points with distance(p, point) <= radius.
  [[nodiscard]] std::vector<std::uint32_t> query_radius(Vec2 p, double radius) const;

  /// Calls visit(id) for each point within `radius` of `p`, cell by cell
  /// (not in id order), without allocating.
  template <typename Visit>
  void for_each_in_radius(Vec2 p, double radius, Visit&& visit) const {
    if (radius < 0.0) return;
    const double r2 = radius * radius;
    const int cx0 = cell_x(p.x - radius), cx1 = cell_x(p.x + radius);
    const int cy0 = cell_y(p.y - radius), cy1 = cell_y(p.y + radius);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        const std::size_t c = cell_of(cx, cy);
        for (std::uint32_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
          const std::uint32_t id = point_ids_[k];
          if (distance2(points_[id], p) <= r2) visit(id);
        }
      }
    }
  }

  /// Index of the nearest point to `p` (the point set must be non-empty).
  [[nodiscard]] std::uint32_t nearest(Vec2 p) const;

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] const std::vector<Vec2>& points() const noexcept { return points_; }

 private:
  [[nodiscard]] int cell_x(double x) const noexcept {
    const int c = static_cast<int>(std::floor((x - bounds_.lo.x) / cell_));
    return std::clamp(c, 0, nx_ - 1);
  }
  [[nodiscard]] int cell_y(double y) const noexcept {
    const int c = static_cast<int>(std::floor((y - bounds_.lo.y) / cell_));
    return std::clamp(c, 0, ny_ - 1);
  }
  [[nodiscard]] std::size_t cell_of(int cx, int cy) const noexcept {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(cx);
  }

  std::vector<Vec2> points_;
  Aabb bounds_;
  double cell_ = 1.0;
  int nx_ = 1;
  int ny_ = 1;
  // CSR layout: cell_start_[c]..cell_start_[c+1] indexes into point_ids_.
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> point_ids_;
};

}  // namespace pas::geom
