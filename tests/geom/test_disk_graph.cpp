#include "geom/disk_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"

namespace pas::geom {
namespace {

/// Every j != i within `range` of points[i], ascending, by brute force.
std::vector<std::vector<std::uint32_t>> brute_force_lists(
    const std::vector<Vec2>& pts, double range) {
  std::vector<std::vector<std::uint32_t>> lists(pts.size());
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    for (std::uint32_t j = 0; j < pts.size(); ++j) {
      if (j != i && distance2(pts[i], pts[j]) <= range * range) {
        lists[i].push_back(j);
      }
    }
  }
  return lists;
}

/// Connectivity by union-find over the brute-force lists.
bool brute_force_connected(const std::vector<std::vector<std::uint32_t>>& lists) {
  std::vector<std::uint32_t> parent(lists.size());
  std::iota(parent.begin(), parent.end(), 0U);
  const auto root = [&](std::uint32_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  std::size_t components = lists.size();
  for (std::uint32_t i = 0; i < lists.size(); ++i) {
    for (const std::uint32_t j : lists[i]) {
      const std::uint32_t a = root(i), b = root(j);
      if (a != b) {
        parent[a] = b;
        --components;
      }
    }
  }
  return components <= 1;
}

std::vector<std::uint32_t> sorted(std::span<const std::uint32_t> ids) {
  std::vector<std::uint32_t> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DiskGraph, MatchesBruteForceAndReusesStorage) {
  sim::Pcg32 rng(17, 2);
  DiskGraph graph;  // rebuilt in place, across sizes
  for (int round = 0; round < 400; ++round) {
    const auto n = static_cast<std::size_t>(1 + rng.next() % 60);
    const double side = rng.uniform(5.0, 60.0);
    const double range = rng.uniform(0.5, 15.0);
    std::vector<Vec2> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
    }
    if (n > 2 && round % 4 == 0) pts[1] = pts[0];  // co-located nodes
    graph.build(pts, range);
    const auto want = brute_force_lists(pts, range);
    ASSERT_EQ(graph.size(), n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(sorted(graph.neighbors(i)), want[i]) << "round " << round;
    }
    EXPECT_EQ(graph.connected(), brute_force_connected(want)) << "round " << round;
    graph.sort_neighbors();
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto ids = graph.neighbors(i);
      ASSERT_EQ(std::vector<std::uint32_t>(ids.begin(), ids.end()), want[i]);
    }
  }
}

TEST(DiskGraph, EmptyAndSingleNodeGraphsAreConnected) {
  DiskGraph graph;
  graph.build({}, 10.0);
  EXPECT_EQ(graph.size(), 0U);
  EXPECT_TRUE(graph.connected());
  const std::vector<Vec2> one{{3.0, 4.0}};
  graph.build(one, 10.0);
  EXPECT_EQ(graph.size(), 1U);
  EXPECT_TRUE(graph.neighbors(0).empty());
  EXPECT_TRUE(graph.connected());
}

TEST(DiskGraph, RejectsNonPositiveRange) {
  DiskGraph graph;
  const std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}};
  EXPECT_THROW(graph.build(pts, 0.0), std::invalid_argument);
  EXPECT_THROW(graph.build(pts, -1.0), std::invalid_argument);
}

TEST(DiskGraph, SwapExchangesGraphs) {
  const std::vector<Vec2> chain{{0.0, 0.0}, {8.0, 0.0}, {16.0, 0.0}};
  const std::vector<Vec2> pair{{0.0, 0.0}, {30.0, 0.0}};
  DiskGraph a, b;
  a.build(chain, 10.0);
  b.build(pair, 10.0);
  a.swap(b);
  EXPECT_EQ(a.size(), 2U);
  EXPECT_FALSE(a.connected());
  EXPECT_EQ(b.size(), 3U);
  EXPECT_TRUE(b.connected());
  EXPECT_EQ(sorted(b.neighbors(1)), (std::vector<std::uint32_t>{0, 2}));
}

}  // namespace
}  // namespace pas::geom
