#include "stimulus/arrival_map.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/rng.hpp"
#include "stimulus/advection_diffusion.hpp"
#include "stimulus/composite.hpp"
#include "stimulus/plume.hpp"
#include "stimulus/radial_front.hpp"

namespace pas::stimulus {
namespace {

RadialFrontModel make_model() {
  RadialFrontConfig cfg;
  cfg.source = {0.0, 0.0};
  cfg.base_speed = 1.0;
  cfg.start_time = 0.0;
  return RadialFrontModel(cfg);
}

TEST(ArrivalMap, ComputesPerNodeArrivals) {
  const auto model = make_model();
  const std::vector<geom::Vec2> nodes{{1.0, 0.0}, {0.0, 2.0}, {3.0, 4.0}};
  const ArrivalMap map(model, nodes, 100.0);
  ASSERT_EQ(map.size(), 3U);
  EXPECT_NEAR(map.at(0), 1.0, 1e-9);
  EXPECT_NEAR(map.at(1), 2.0, 1e-9);
  EXPECT_NEAR(map.at(2), 5.0, 1e-9);
}

TEST(ArrivalMap, HorizonCutsOffFarNodes) {
  const auto model = make_model();
  const std::vector<geom::Vec2> nodes{{1.0, 0.0}, {50.0, 0.0}};
  const ArrivalMap map(model, nodes, 10.0);
  EXPECT_LT(map.at(0), sim::kNever);
  EXPECT_EQ(map.at(1), sim::kNever);
  EXPECT_EQ(map.reached_count(), 1U);
}

TEST(ArrivalMap, CoveredCount) {
  const auto model = make_model();
  const std::vector<geom::Vec2> nodes{{1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
  const ArrivalMap map(model, nodes, 100.0);
  EXPECT_EQ(map.covered_count(0.5), 0U);
  EXPECT_EQ(map.covered_count(1.0), 1U);
  EXPECT_EQ(map.covered_count(2.5), 2U);
  EXPECT_EQ(map.covered_count(10.0), 3U);
}

TEST(ArrivalMap, FirstAndLastArrival) {
  const auto model = make_model();
  const std::vector<geom::Vec2> nodes{{2.0, 0.0}, {5.0, 0.0}, {90.0, 0.0}};
  const ArrivalMap map(model, nodes, 20.0);
  EXPECT_NEAR(map.first_arrival(), 2.0, 1e-9);
  EXPECT_NEAR(map.last_arrival(), 5.0, 1e-9);  // unreached node excluded
}

TEST(ArrivalMap, EmptyMap) {
  const auto model = make_model();
  const ArrivalMap map(model, {}, 10.0);
  EXPECT_EQ(map.size(), 0U);
  EXPECT_EQ(map.first_arrival(), sim::kNever);
  EXPECT_EQ(map.last_arrival(), sim::kNever);
  EXPECT_EQ(map.covered_count(1e9), 0U);
}

// A map's arrivals come from one arrival_many call over the sites it built
// first. They must equal the scalar model.arrival_time(p, horizon), and its
// sites model.site(p), bit for bit, for every model.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// `extra`, then `count` random positions in [lo, hi]².
std::vector<geom::Vec2> nodes_with(std::vector<geom::Vec2> extra, double lo,
                                   double hi, int count, std::uint64_t seed) {
  sim::Pcg32 rng(seed, 3);
  for (int k = 0; k < count; ++k) {
    extra.push_back({rng.uniform(lo, hi), rng.uniform(lo, hi)});
  }
  return extra;
}

/// Checks `map` against the scalar calls; returns how many nodes it reaches,
/// so callers can check that both outcomes occurred.
std::size_t expect_map_matches_scalar(const ArrivalMap& map,
                                      const StimulusModel& model,
                                      const std::vector<geom::Vec2>& ps,
                                      sim::Time horizon) {
  EXPECT_TRUE(map.built_by(model));
  EXPECT_EQ(map.size(), ps.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < ps.size() && i < map.size(); ++i) {
    const Site want = model.site(ps[i]);
    const Site& got = map.site(i);
    const sim::Time arrival = model.arrival_time(ps[i], horizon);
    if (bits(got.position.x) != bits(want.position.x) ||
        bits(got.position.y) != bits(want.position.y) ||
        bits(got.range) != bits(want.range) ||
        bits(got.speed) != bits(want.speed) ||
        bits(map.at(i)) != bits(arrival)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << model.name() << " node " << i << " at (" << ps[i].x
                      << ", " << ps[i].y << "): map arrival " << map.at(i)
                      << ", arrival_time " << arrival;
      }
    }
  }
  EXPECT_EQ(mismatches, 0U);
  return map.reached_count();
}

TEST(ArrivalMapEqualsScalar, RadialWithHarmonicsAndAcceleration) {
  RadialFrontConfig cfg;
  cfg.source = {5.0, 5.0};
  cfg.base_speed = 0.5;
  cfg.accel = 0.05;
  cfg.start_time = 2.0;
  cfg.max_radius = 30.0;
  cfg.harmonics = {{.k = 2, .amplitude = 0.2, .phase = 0.4},
                   {.k = 5, .amplitude = 0.15, .phase = 1.1}};
  const RadialFrontModel model(cfg);
  const sim::Time horizon = 20.0;
  // At the source; beyond max_radius; inside it but reached only after the
  // horizon.
  const auto ps = nodes_with({{5.0, 5.0}, {45.0, 5.0}, {5.0, 33.0}}, -10.0,
                             40.0, 200, 1);
  ArrivalMap map(model, ps, horizon);
  const std::size_t reached = expect_map_matches_scalar(map, model, ps, horizon);
  EXPECT_GT(reached, 1U);
  EXPECT_LT(reached, ps.size());
  EXPECT_EQ(bits(map.at(0)), bits(cfg.start_time));
  EXPECT_EQ(map.at(1), sim::kNever);
  EXPECT_EQ(model.arrival_time(ps[1], 1e9), sim::kNever);
  EXPECT_EQ(map.at(2), sim::kNever);
  EXPECT_LT(model.arrival_time(ps[2], 1e9), sim::kNever);

  // Reassigned in place, as world::Workspace does between replications.
  map.assign(model, ps, 1e9);
  EXPECT_LT(map.at(2), sim::kNever);
  expect_map_matches_scalar(map, model, ps, 1e9);
}

TEST(ArrivalMapEqualsScalar, Plume) {
  GaussianPlumeConfig cfg;
  cfg.source = {3.0, 3.0};
  cfg.mass = 3000.0;
  cfg.diffusivity = 1.5;
  cfg.wind = {0.05, 0.05};
  cfg.threshold = 0.35;
  cfg.start_time = 2.0;
  const GaussianPlumeModel model(cfg);
  const auto ps = nodes_with({cfg.source}, -5.0, 40.0, 120, 2);
  const ArrivalMap map(model, ps, 150.0);
  const std::size_t reached = expect_map_matches_scalar(map, model, ps, 150.0);
  EXPECT_GT(reached, 0U);
  EXPECT_LT(reached, ps.size());
}

TEST(ArrivalMapEqualsScalar, Pde) {
  AdvectionDiffusionConfig cfg;
  cfg.region = geom::Aabb::square(20.0);
  cfg.nx = 32;
  cfg.ny = 32;
  cfg.source = {10.0, 10.0};
  cfg.threshold = 0.5;
  cfg.horizon = 40.0;
  const AdvectionDiffusionModel model(cfg);
  // Two nodes outside the region, which the stimulus never reaches.
  const auto ps = nodes_with({{-3.0, 5.0}, {25.0, 25.0}}, 0.0, 20.0, 80, 3);
  const ArrivalMap map(model, ps, cfg.horizon);
  const std::size_t reached =
      expect_map_matches_scalar(map, model, ps, cfg.horizon);
  EXPECT_GT(reached, 0U);
  EXPECT_LT(reached, ps.size());
  EXPECT_EQ(map.at(0), sim::kNever);
  EXPECT_EQ(map.at(1), sim::kNever);
}

TEST(ArrivalMapEqualsScalar, TwoSourceComposite) {
  RadialFrontConfig first;
  first.source = {3.0, 3.0};
  first.base_speed = 0.5;
  first.harmonics = {{.k = 1, .amplitude = 0.1, .phase = 2.1}};
  RadialFrontConfig second = first;
  second.source = {30.0, 25.0};
  second.start_time = 20.0;
  second.harmonics = {{.k = 2, .amplitude = 0.2, .phase = 1.0}};
  std::vector<std::unique_ptr<StimulusModel>> parts;
  parts.push_back(std::make_unique<RadialFrontModel>(first));
  parts.push_back(std::make_unique<RadialFrontModel>(second));
  const CompositeModel model(std::move(parts));
  const auto ps = nodes_with({first.source, second.source}, -5.0, 40.0, 120, 4);
  const ArrivalMap map(model, ps, 60.0);
  const std::size_t reached = expect_map_matches_scalar(map, model, ps, 60.0);
  EXPECT_GT(reached, 2U);
  EXPECT_LT(reached, ps.size());
}

}  // namespace
}  // namespace pas::stimulus
