#include "geom/disk_graph.hpp"

#include <algorithm>
#include <utility>

#include "geom/aabb.hpp"

namespace pas::geom {

void DiskGraph::build(std::span<const Vec2> points, double range) {
  start_.clear();
  start_.reserve(points.size() + 1);
  start_.push_back(0);
  ids_.clear();
  // A first build takes room for mean degree 8 (the paper field's density
  // is about 6) instead of growing through every power of two.
  ids_.reserve(8 * points.size());
  if (points.empty()) return;
  Aabb bounds{points.front(), points.front()};
  for (const Vec2& p : points) {
    bounds.lo.x = std::min(bounds.lo.x, p.x);
    bounds.lo.y = std::min(bounds.lo.y, p.y);
    bounds.hi.x = std::max(bounds.hi.x, p.x);
    bounds.hi.y = std::max(bounds.hi.y, p.y);
  }
  index_.assign(points, bounds.inflated(1.0), range);
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    index_.for_each_in_radius(points[i], range, [this, i](std::uint32_t j) {
      if (j != i) ids_.push_back(j);
    });
    start_.push_back(static_cast<std::uint32_t>(ids_.size()));
  }
}

void DiskGraph::sort_neighbors() {
  for (std::size_t i = 0; i < size(); ++i) {
    std::sort(ids_.begin() + start_[i], ids_.begin() + start_[i + 1]);
  }
}

bool DiskGraph::connected() {
  const std::size_t n = size();
  if (n == 0) return true;
  // `order_` holds every node reached so far, in visit order; the nodes
  // from `head` on are the frontier.
  seen_.assign(n, 0);
  order_.clear();
  order_.reserve(n);
  order_.push_back(0);
  seen_[0] = 1;
  for (std::size_t head = 0; head < order_.size(); ++head) {
    for (const std::uint32_t next : neighbors(order_[head])) {
      if (seen_[next] == 0) {
        seen_[next] = 1;
        order_.push_back(next);
      }
    }
  }
  return order_.size() == n;
}

void DiskGraph::swap(DiskGraph& other) noexcept {
  std::swap(index_, other.index_);
  start_.swap(other.start_);
  ids_.swap(other.ids_);
  seen_.swap(other.seen_);
  order_.swap(other.order_);
}

}  // namespace pas::geom
