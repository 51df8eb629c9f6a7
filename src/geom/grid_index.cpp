#include "geom/grid_index.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pas::geom {

GridIndex::GridIndex(const std::vector<Vec2>& points, Aabb bounds,
                     double cell_size)
    : points_(points), bounds_(bounds), cell_(cell_size) {
  if (cell_size <= 0.0) {
    throw std::invalid_argument("GridIndex: cell_size must be positive");
  }
  nx_ = std::max(1, static_cast<int>(std::ceil(bounds_.width() / cell_)));
  ny_ = std::max(1, static_cast<int>(std::ceil(bounds_.height() / cell_)));

  const std::size_t ncells = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  std::vector<std::uint32_t> counts(ncells, 0);
  for (const Vec2& p : points_) {
    ++counts[cell_of(cell_x(p.x), cell_y(p.y))];
  }
  cell_start_.assign(ncells + 1, 0);
  for (std::size_t c = 0; c < ncells; ++c) {
    cell_start_[c + 1] = cell_start_[c] + counts[c];
  }
  point_ids_.resize(points_.size());
  std::vector<std::uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::uint32_t i = 0; i < points_.size(); ++i) {
    const Vec2& p = points_[i];
    point_ids_[cursor[cell_of(cell_x(p.x), cell_y(p.y))]++] = i;
  }
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
  // Expanding ring search over cells, falling back to brute force for the
  // final verification ring. Point sets here are small (tens to thousands),
  // so clarity beats micro-optimisation.
  double best_d2 = std::numeric_limits<double>::infinity();
  std::uint32_t best = 0;
  for (std::uint32_t i = 0; i < points_.size(); ++i) {
    const double d2 = distance2(points_[i], p);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  return best;
}

}  // namespace pas::geom
