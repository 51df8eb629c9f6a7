#include "world/deployment.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geom/disk_graph.hpp"

namespace pas::world {
namespace {

TEST(GridDeployment, CountAndContainment) {
  sim::Pcg32 rng(1, 1);
  const auto pts = grid_deployment(30, geom::Aabb::square(40.0), 0.2, rng);
  EXPECT_EQ(pts.size(), 30U);
  for (const auto& p : pts) {
    EXPECT_TRUE(geom::Aabb::square(40.0).contains(p));
  }
}

TEST(GridDeployment, ZeroJitterIsRegular) {
  sim::Pcg32 rng(1, 1);
  const auto pts = grid_deployment(9, geom::Aabb::square(30.0), 0.0, rng);
  // 3x3 grid with pitch 10: cell centers at 5, 15, 25.
  EXPECT_DOUBLE_EQ(pts[0].x, 5.0);
  EXPECT_DOUBLE_EQ(pts[4].x, 15.0);
  EXPECT_DOUBLE_EQ(pts[8].y, 25.0);
}

TEST(GridDeployment, RejectsBadJitter) {
  sim::Pcg32 rng(1, 1);
  EXPECT_THROW(grid_deployment(4, geom::Aabb::square(10.0), 0.7, rng),
               std::invalid_argument);
}

TEST(UniformDeployment, CountContainmentDeterminism) {
  sim::Pcg32 a(5, 5), b(5, 5);
  const auto pa = uniform_deployment(50, geom::Aabb::square(40.0), a);
  const auto pb = uniform_deployment(50, geom::Aabb::square(40.0), b);
  EXPECT_EQ(pa.size(), 50U);
  EXPECT_EQ(pa, pb);
  for (const auto& p : pa) {
    EXPECT_TRUE(geom::Aabb::square(40.0).contains(p));
  }
}

TEST(PoissonDisk, RespectsMinSeparation) {
  sim::Pcg32 rng(9, 9);
  const auto pts =
      poisson_disk_deployment(25, geom::Aabb::square(40.0), 4.0, rng);
  ASSERT_EQ(pts.size(), 25U);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_GE(geom::distance(pts[i], pts[j]), 4.0);
    }
  }
}

TEST(PoissonDisk, ImpossiblePackingThrows) {
  sim::Pcg32 rng(1, 1);
  EXPECT_THROW(
      poisson_disk_deployment(1000, geom::Aabb::square(10.0), 5.0, rng),
      std::runtime_error);
}

TEST(PoissonDisk, RejectsNonPositiveSeparation) {
  sim::Pcg32 rng(1, 1);
  EXPECT_THROW(poisson_disk_deployment(5, geom::Aabb::square(10.0), 0.0, rng),
               std::invalid_argument);
}

TEST(GenerateDeployment, DispatchesOnKind) {
  DeploymentConfig cfg;
  cfg.count = 16;
  cfg.region = geom::Aabb::square(40.0);
  for (const auto kind : {DeploymentKind::kGrid, DeploymentKind::kUniform,
                          DeploymentKind::kPoissonDisk}) {
    cfg.kind = kind;
    sim::Pcg32 rng(3, 3);
    EXPECT_EQ(generate_deployment(cfg, rng).size(), 16U) << to_string(kind);
  }
}

TEST(IsConnected, DetectsChainAndGap) {
  EXPECT_TRUE(is_connected({{0.0, 0.0}, {8.0, 0.0}, {16.0, 0.0}}, 10.0));
  EXPECT_FALSE(is_connected({{0.0, 0.0}, {8.0, 0.0}, {30.0, 0.0}}, 10.0));
  EXPECT_TRUE(is_connected({}, 10.0));
  EXPECT_TRUE(is_connected({{1.0, 1.0}}, 10.0));
}

/// Connectivity by union-find over every in-range pair.
bool brute_force_connected(const std::vector<geom::Vec2>& pts, double range) {
  std::vector<std::size_t> parent(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) parent[i] = i;
  const auto root = [&](std::size_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  std::size_t components = pts.size();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (geom::distance2(pts[i], pts[j]) <= range * range &&
          root(i) != root(j)) {
        parent[root(i)] = root(j);
        --components;
      }
    }
  }
  return components <= 1;
}

TEST(IsConnected, ReusedDiskGraphAgreesWithPositionFormAndBruteForce) {
  // The workspace checks each deployment attempt on one reused DiskGraph;
  // is_connected(positions, range) builds a fresh one. Over grid, uniform
  // and Poisson-disk deployments at ranges that connect some and not
  // others, both agree with brute force.
  geom::DiskGraph graph;
  std::size_t connected = 0;
  constexpr int kDeployments = 10'000;
  for (int k = 0; k < kDeployments; ++k) {
    DeploymentConfig cfg;
    cfg.kind = static_cast<DeploymentKind>(k % 3);
    cfg.count = 10 + static_cast<std::size_t>(k % 31);
    sim::Pcg32 rng(static_cast<std::uint64_t>(k), 9);
    const double range = rng.uniform(4.0, 14.0);
    const auto positions = generate_deployment(cfg, rng);
    graph.build(positions, range);
    const bool want = brute_force_connected(positions, range);
    ASSERT_EQ(graph.connected(), want) << "deployment " << k;
    ASSERT_EQ(is_connected(positions, range), want) << "deployment " << k;
    connected += want ? 1 : 0;
  }
  // Both outcomes are well represented.
  EXPECT_GT(connected, kDeployments / 5);
  EXPECT_LT(connected, kDeployments - kDeployments / 5);
}

TEST(DeploymentKindNames, Stable) {
  EXPECT_STREQ(to_string(DeploymentKind::kGrid), "grid");
  EXPECT_STREQ(to_string(DeploymentKind::kUniform), "uniform");
  EXPECT_STREQ(to_string(DeploymentKind::kPoissonDisk), "poisson-disk");
}

}  // namespace
}  // namespace pas::world
