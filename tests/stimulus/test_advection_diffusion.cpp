#include "stimulus/advection_diffusion.hpp"

#include <gtest/gtest.h>

namespace pas::stimulus {
namespace {

AdvectionDiffusionConfig small_config() {
  AdvectionDiffusionConfig cfg;
  cfg.region = geom::Aabb::square(20.0);
  cfg.nx = 48;
  cfg.ny = 48;
  cfg.diffusivity = 1.0;
  cfg.source = {10.0, 10.0};
  cfg.source_rate = 60.0;
  cfg.threshold = 0.5;
  cfg.start_time = 0.0;
  cfg.horizon = 60.0;
  return cfg;
}

TEST(AdvectionDiffusion, RejectsBadConfig) {
  auto cfg = small_config();
  cfg.nx = 2;
  EXPECT_THROW(AdvectionDiffusionModel{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.diffusivity = 0.0;
  EXPECT_THROW(AdvectionDiffusionModel{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.threshold = -1.0;
  EXPECT_THROW(AdvectionDiffusionModel{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.horizon = cfg.start_time;
  EXPECT_THROW(AdvectionDiffusionModel{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.source = {100.0, 100.0};
  EXPECT_THROW(AdvectionDiffusionModel{cfg}, std::invalid_argument);
}

TEST(AdvectionDiffusion, StabilityBoundOnTimeStep) {
  const auto cfg = small_config();
  const AdvectionDiffusionModel model(cfg);
  const double dx = cfg.region.width() / cfg.nx;
  EXPECT_LE(model.dt(), dx * dx / (4.0 * cfg.diffusivity));
  EXPECT_GT(model.dt(), 0.0);
}

TEST(AdvectionDiffusion, SourceCellCoversFirst) {
  const auto cfg = small_config();
  const AdvectionDiffusionModel model(cfg);
  const sim::Time at_source = model.arrival_time(cfg.source, cfg.horizon);
  ASSERT_LT(at_source, sim::kNever);
  const sim::Time nearby = model.arrival_time({13.0, 10.0}, cfg.horizon);
  const sim::Time far = model.arrival_time({17.0, 17.0}, cfg.horizon);
  ASSERT_LT(nearby, sim::kNever);
  EXPECT_LT(at_source, nearby);
  if (far < sim::kNever) {
    EXPECT_LT(nearby, far);
  }
}

TEST(AdvectionDiffusion, CoverageIsMonotoneInTime) {
  const auto cfg = small_config();
  const AdvectionDiffusionModel model(cfg);
  const geom::Vec2 p{12.0, 11.0};
  const sim::Time t = model.arrival_time(p, cfg.horizon);
  ASSERT_LT(t, sim::kNever);
  EXPECT_FALSE(model.covered(p, t - 0.5));
  EXPECT_TRUE(model.covered(p, t));
  EXPECT_TRUE(model.covered(p, t + 20.0));  // once covered, stays covered
}

TEST(AdvectionDiffusion, OutsideRegionNeverCovered) {
  const AdvectionDiffusionModel model(small_config());
  EXPECT_FALSE(model.covered({-1.0, 5.0}, 50.0));
  EXPECT_EQ(model.arrival_time({25.0, 5.0}, 50.0), sim::kNever);
}

TEST(AdvectionDiffusion, MassInjectionBookkeeping) {
  // With zero-flux boundaries all injected mass stays on the grid:
  // mass ≈ source_rate × min(horizon, source_duration).
  auto cfg = small_config();
  cfg.source_duration = 10.0;
  const AdvectionDiffusionModel model(cfg);
  EXPECT_NEAR(model.total_mass_at_horizon(), cfg.source_rate * 10.0,
              cfg.source_rate * 10.0 * 0.05);
}

TEST(AdvectionDiffusion, WindSkewsArrivalDownwind) {
  auto cfg = small_config();
  cfg.wind = {0.25, 0.0};
  const AdvectionDiffusionModel model(cfg);
  const sim::Time downwind = model.arrival_time({14.0, 10.0}, cfg.horizon);
  const sim::Time upwind = model.arrival_time({6.0, 10.0}, cfg.horizon);
  ASSERT_LT(downwind, sim::kNever);
  if (upwind < sim::kNever) {
    EXPECT_LT(downwind, upwind);
  }
}

TEST(AdvectionDiffusion, ArrivalRespectsQueryHorizon) {
  const auto cfg = small_config();
  const AdvectionDiffusionModel model(cfg);
  const geom::Vec2 p{12.0, 10.0};
  const sim::Time t = model.arrival_time(p, cfg.horizon);
  ASSERT_LT(t, sim::kNever);
  EXPECT_EQ(model.arrival_time(p, t - 0.1), sim::kNever);
}

}  // namespace
}  // namespace pas::stimulus
