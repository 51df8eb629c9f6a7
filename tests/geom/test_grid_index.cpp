#include "geom/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "sim/rng.hpp"

namespace pas::geom {
namespace {

std::vector<Vec2> random_points(std::size_t n, Aabb region, std::uint64_t seed) {
  sim::Pcg32 rng(seed, 1);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(region.lo.x, region.hi.x),
                   rng.uniform(region.lo.y, region.hi.y)});
  }
  return pts;
}

std::vector<std::uint32_t> brute_force_radius(const std::vector<Vec2>& pts,
                                              Vec2 q, double r) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (distance(pts[i], q) <= r) out.push_back(i);
  }
  return out;
}

TEST(GridIndex, RejectsBadCellSize) {
  EXPECT_THROW(GridIndex({{0.0, 0.0}}, Aabb::square(1.0), 0.0),
               std::invalid_argument);
}

TEST(GridIndex, FindsSinglePoint) {
  const std::vector<Vec2> pts{{5.0, 5.0}};
  const GridIndex idx(pts, Aabb::square(10.0), 2.0);
  EXPECT_EQ(idx.query_radius({5.0, 5.0}, 0.1), std::vector<std::uint32_t>{0});
  EXPECT_TRUE(idx.query_radius({0.0, 0.0}, 1.0).empty());
}

TEST(GridIndex, RadiusBoundaryIsInclusive) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {3.0, 0.0}};
  const GridIndex idx(pts, Aabb::square(10.0), 1.0);
  const auto hits = idx.query_radius({0.0, 0.0}, 3.0);
  EXPECT_EQ(hits.size(), 2U);
}

TEST(GridIndex, MatchesBruteForceOnRandomSets) {
  const Aabb region = Aabb::square(50.0);
  const auto pts = random_points(300, region, 77);
  const GridIndex idx(pts, region, 5.0);
  sim::Pcg32 rng(5, 5);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 q{rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)};
    const double r = rng.uniform(0.5, 15.0);
    EXPECT_EQ(idx.query_radius(q, r), brute_force_radius(pts, q, r));
  }
}

TEST(GridIndex, PointsOutsideBoundsAreClampedNotLost) {
  const std::vector<Vec2> pts{{-5.0, -5.0}, {100.0, 100.0}, {5.0, 5.0}};
  const GridIndex idx(pts, Aabb::square(10.0), 2.0);
  // All points remain findable with a big enough radius.
  EXPECT_EQ(idx.query_radius({5.0, 5.0}, 1000.0).size(), 3U);
}

TEST(GridIndex, NegativeRadiusYieldsNothing) {
  const std::vector<Vec2> pts{{1.0, 1.0}};
  const GridIndex idx(pts, Aabb::square(2.0), 1.0);
  EXPECT_TRUE(idx.query_radius({1.0, 1.0}, -1.0).empty());
}

TEST(GridIndex, ForEachVisitsSameSetAsQuery) {
  const Aabb region = Aabb::square(30.0);
  const auto pts = random_points(100, region, 3);
  const GridIndex idx(pts, region, 3.0);
  std::vector<std::uint32_t> visited;
  idx.for_each_in_radius({15.0, 15.0}, 8.0,
                         [&](std::uint32_t id) { visited.push_back(id); });
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, idx.query_radius({15.0, 15.0}, 8.0));
}

TEST(GridIndex, NearestFindsClosest) {
  const auto pts = random_points(200, Aabb::square(20.0), 9);
  const GridIndex idx(pts, Aabb::square(20.0), 2.0);
  sim::Pcg32 rng(2, 2);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec2 q{rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)};
    const std::uint32_t got = idx.nearest(q);
    double best = 1e300;
    std::uint32_t want = 0;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      if (distance2(pts[i], q) < best) {
        best = distance2(pts[i], q);
        want = i;
      }
    }
    EXPECT_EQ(got, want);
  }
}

/// The visits the index promises for a query: exactly the points with
/// distance2 <= r², row by row, each row's cells left to right, ids
/// ascending within a cell — a point's cell being floor((v - lo) / cell)
/// clamped to the grid on each axis.
std::vector<std::uint32_t> expected_visits(const std::vector<Vec2>& pts,
                                           Aabb bounds, double cell, Vec2 q,
                                           double r) {
  const int nx = std::max(1, static_cast<int>(std::ceil(bounds.width() / cell)));
  const int ny = std::max(1, static_cast<int>(std::ceil(bounds.height() / cell)));
  const auto cell_of = [cell](double v, double lo, int n) {
    return std::clamp(static_cast<int>(std::floor((v - lo) / cell)), 0, n - 1);
  };
  std::vector<std::tuple<int, int, std::uint32_t>> hits;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (distance2(pts[i], q) <= r * r) {
      hits.emplace_back(cell_of(pts[i].y, bounds.lo.y, ny),
                        cell_of(pts[i].x, bounds.lo.x, nx), i);
    }
  }
  std::sort(hits.begin(), hits.end());
  std::vector<std::uint32_t> ids;
  for (const auto& hit : hits) ids.push_back(std::get<2>(hit));
  return ids;
}

TEST(GridIndex, ForEachVisitsBruteForceSetInCellOrder) {
  // Random grids with points on cell edges, exactly on one another, and
  // outside the bounds; queries centered on points, on cell corners and at
  // random, with radii that reach cell edges exactly.
  sim::Pcg32 rng(31, 7);
  GridIndex idx;  // rebuilt in place every round
  for (int round = 0; round < 300; ++round) {
    const double cell = rng.uniform(0.5, 8.0);
    const Aabb bounds{{rng.uniform(-20.0, 5.0), rng.uniform(-20.0, 5.0)},
                      {rng.uniform(10.0, 45.0), rng.uniform(10.0, 45.0)}};
    const auto on_edge = [&](double lo, double hi) {
      const int cells = static_cast<int>((hi - lo) / cell);
      return lo + cell * static_cast<double>(static_cast<int>(rng.next() % (cells + 1)));
    };
    std::vector<Vec2> pts;
    const auto n = static_cast<std::size_t>(rng.next() % 120);
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng.next() % 5) {
        case 0:  // on a cell corner
          pts.push_back({on_edge(bounds.lo.x, bounds.hi.x),
                         on_edge(bounds.lo.y, bounds.hi.y)});
          break;
        case 1:  // outside the bounds
          pts.push_back({rng.uniform(bounds.lo.x - 15.0, bounds.hi.x + 15.0),
                         rng.uniform(bounds.lo.y - 15.0, bounds.hi.y + 15.0)});
          break;
        case 2:  // on top of another point
          if (!pts.empty()) {
            pts.push_back(pts[rng.next() % pts.size()]);
            break;
          }
          [[fallthrough]];
        default:
          pts.push_back({rng.uniform(bounds.lo.x, bounds.hi.x),
                         rng.uniform(bounds.lo.y, bounds.hi.y)});
          break;
      }
    }
    idx.assign(pts, bounds, cell);
    for (int query = 0; query < 40; ++query) {
      Vec2 q{rng.uniform(bounds.lo.x - 5.0, bounds.hi.x + 5.0),
             rng.uniform(bounds.lo.y - 5.0, bounds.hi.y + 5.0)};
      if (query % 3 == 0 && !pts.empty()) q = pts[rng.next() % pts.size()];
      if (query % 3 == 1) {
        q = {on_edge(bounds.lo.x, bounds.hi.x), on_edge(bounds.lo.y, bounds.hi.y)};
      }
      const double r = query % 2 == 0
                           ? cell * static_cast<double>(1 + rng.next() % 3)
                           : rng.uniform(0.0, 3.0 * cell);
      std::vector<std::uint32_t> visited;
      idx.for_each_in_radius(q, r, [&](std::uint32_t id) { visited.push_back(id); });
      ASSERT_EQ(visited, expected_visits(pts, bounds, cell, q, r))
          << "round " << round << " query " << query;
    }
  }
}

TEST(GridIndex, TinyCellSizeIsCappedAndStillExact) {
  // A 1 nm cell over a 40 m region would be 4e10 cells per axis; the index
  // grows the cell instead and answers the same.
  const Aabb region = Aabb::square(40.0);
  const auto pts = random_points(300, region, 12);
  const GridIndex idx(pts, region, 1e-9);
  EXPECT_LE(idx.cell_count(), static_cast<std::size_t>(GridIndex::kMaxCellsPerAxis) *
                                  GridIndex::kMaxCellsPerAxis);
  sim::Pcg32 rng(4, 4);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 q{rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)};
    const double r = trial % 2 == 0 ? 1e-9 : rng.uniform(0.0, 12.0);
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      if (distance2(pts[i], q) <= r * r) want.push_back(i);
    }
    EXPECT_EQ(idx.query_radius(q, r), want);
  }
  EXPECT_EQ(idx.query_radius(pts[7], 0.0), std::vector<std::uint32_t>{7});
}

TEST(GridIndex, NearestOnEmptySetThrows) {
  const GridIndex idx({}, Aabb::square(1.0), 1.0);
  EXPECT_THROW((void)idx.nearest({0.0, 0.0}), std::logic_error);
}

}  // namespace
}  // namespace pas::geom
