#include "geom/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pas::geom {

namespace {

/// ceil(extent / cell) in [1, GridIndex::kMaxCellsPerAxis], computed in
/// double so no conversion can overflow (NaN extents give one cell).
int cells_along(double extent, double cell) {
  const double n = std::ceil(extent / cell);
  if (!(n > 1.0)) return 1;
  return n >= GridIndex::kMaxCellsPerAxis ? GridIndex::kMaxCellsPerAxis
                                          : static_cast<int>(n);
}

}  // namespace

GridIndex::GridIndex(const std::vector<Vec2>& points, Aabb bounds,
                     double cell_size) {
  assign(points, bounds, cell_size);
}

void GridIndex::assign(std::span<const Vec2> points, Aabb bounds,
                       double cell_size) {
  if (!(cell_size > 0.0)) {
    throw std::invalid_argument("GridIndex: cell_size must be positive");
  }
  bounds_ = bounds;
  // Grow the cell until the grid fits the cap on both axes.
  constexpr double kMax = kMaxCellsPerAxis;
  cell_ = std::max({cell_size, bounds_.width() / kMax, bounds_.height() / kMax});
  nx_ = cells_along(bounds_.width(), cell_);
  ny_ = cells_along(bounds_.height(), cell_);

  // Counting sort into cells, stable in id order. cell_start_[c + 1] counts
  // cell c, the prefix sum turns counts into starts, the fill advances
  // cell_start_[c] to the end of cell c, and the shift restores the starts.
  const std::size_t ncells = cell_count();
  cell_start_.assign(ncells + 1, 0);
  for (const Vec2& p : points) ++cell_start_[cell_of(p) + 1];
  for (std::size_t c = 0; c < ncells; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  points_.resize(points.size());
  ids_.resize(points.size());
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    const std::uint32_t k = cell_start_[cell_of(points[i])]++;
    points_[k] = points[i];
    ids_[k] = i;
  }
  std::copy_backward(cell_start_.begin(), cell_start_.end() - 1,
                     cell_start_.end());
  cell_start_[0] = 0;
}

std::vector<std::uint32_t> GridIndex::query_radius(Vec2 p, double radius) const {
  std::vector<std::uint32_t> out;
  for_each_in_radius(p, radius, [&out](std::uint32_t id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

std::uint32_t GridIndex::nearest(Vec2 p) const {
  if (points_.empty()) {
    throw std::logic_error("GridIndex::nearest on empty point set");
  }
  double best_d2 = std::numeric_limits<double>::infinity();
  std::uint32_t best = 0;
  for (std::size_t k = 0; k < points_.size(); ++k) {
    const double d2 = distance2(points_[k], p);
    if (d2 < best_d2 || (d2 == best_d2 && ids_[k] < best)) {
      best_d2 = d2;
      best = ids_[k];
    }
  }
  return best;
}

}  // namespace pas::geom
