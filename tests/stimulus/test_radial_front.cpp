#include "stimulus/radial_front.hpp"

#include <gtest/gtest.h>

#include <numbers>

namespace pas::stimulus {
namespace {

RadialFrontConfig basic_config() {
  RadialFrontConfig cfg;
  cfg.source = {0.0, 0.0};
  cfg.base_speed = 0.5;
  cfg.start_time = 10.0;
  return cfg;
}

TEST(RadialFront, RejectsBadConfig) {
  RadialFrontConfig cfg = basic_config();
  cfg.base_speed = 0.0;
  EXPECT_THROW(RadialFrontModel{cfg}, std::invalid_argument);
  cfg = basic_config();
  cfg.accel = -1.0;
  EXPECT_THROW(RadialFrontModel{cfg}, std::invalid_argument);
  cfg = basic_config();
  cfg.max_radius = 0.0;
  EXPECT_THROW(RadialFrontModel{cfg}, std::invalid_argument);
  cfg = basic_config();
  cfg.harmonics = {{.k = 1, .amplitude = 0.5, .phase = 0.0},
                   {.k = 2, .amplitude = 0.5, .phase = 0.0}};
  EXPECT_THROW(RadialFrontModel{cfg}, std::invalid_argument);
}

TEST(RadialFront, NothingCoveredBeforeStart) {
  const RadialFrontModel model(basic_config());
  EXPECT_FALSE(model.covered({0.1, 0.0}, 9.9));
  EXPECT_FALSE(model.covered({0.0, 0.0}, 9.9));
  EXPECT_TRUE(model.covered({0.0, 0.0}, 10.0));  // source at start time
}

TEST(RadialFront, IsotropicArrivalMatchesDistanceOverSpeed) {
  const RadialFrontModel model(basic_config());
  // Point 5 m out at 0.5 m/s: arrival = start + 10 s.
  const geom::Vec2 p{3.0, 4.0};
  EXPECT_NEAR(model.arrival_time(p, 1e9), 20.0, 1e-9);
  EXPECT_FALSE(model.covered(p, 19.99));
  EXPECT_TRUE(model.covered(p, 20.01));
}

TEST(RadialFront, ArrivalBeyondHorizonIsNever) {
  const RadialFrontModel model(basic_config());
  EXPECT_EQ(model.arrival_time({3.0, 4.0}, 19.0), sim::kNever);
}

TEST(RadialFront, MaxRadiusStopsGrowth) {
  RadialFrontConfig cfg = basic_config();
  cfg.max_radius = 4.0;
  const RadialFrontModel model(cfg);
  EXPECT_EQ(model.arrival_time({3.0, 4.0}, 1e9), sim::kNever);
  EXPECT_FALSE(model.covered({3.0, 4.0}, 1e8));
  EXPECT_TRUE(model.covered({2.0, 0.0}, 1e3));
}

TEST(RadialFront, AccelerationShortensLaterArrivals) {
  RadialFrontConfig slow = basic_config();
  RadialFrontConfig accel = basic_config();
  accel.accel = 0.2;
  const RadialFrontModel m0(slow), m1(accel);
  const geom::Vec2 p{8.0, 0.0};
  EXPECT_LT(m1.arrival_time(p, 1e9), m0.arrival_time(p, 1e9));
}

TEST(RadialFront, AcceleratedArrivalInvertsGrowthExactly) {
  RadialFrontConfig cfg = basic_config();
  cfg.accel = 0.3;
  const RadialFrontModel model(cfg);
  const geom::Vec2 p{6.0, 2.5};
  const sim::Time t = model.arrival_time(p, 1e9);
  // At the computed arrival time the radius equals the point's distance.
  const double r = (p - cfg.source).norm();
  EXPECT_NEAR(model.radius_at((p - cfg.source).angle(), t), r, 1e-6);
}

TEST(RadialFront, AnisotropicSpeedProfile) {
  RadialFrontConfig cfg = basic_config();
  cfg.harmonics = {{.k = 1, .amplitude = 0.4, .phase = 0.0}};
  const RadialFrontModel model(cfg);
  // v(0) = 0.5·1.4, v(pi) = 0.5·0.6.
  EXPECT_NEAR(model.speed_at(0.0), 0.7, 1e-12);
  EXPECT_NEAR(model.speed_at(std::numbers::pi), 0.3, 1e-9);
  // Same distance, different directions => different arrivals.
  const sim::Time east = model.arrival_time({5.0, 0.0}, 1e9);
  const sim::Time west = model.arrival_time({-5.0, 0.0}, 1e9);
  EXPECT_LT(east, west);
}

TEST(RadialFront, SpeedProfileStaysPositive) {
  RadialFrontConfig cfg = basic_config();
  cfg.harmonics = {{.k = 2, .amplitude = 0.45, .phase = 1.0},
                   {.k = 5, .amplitude = 0.40, .phase = 2.0}};
  const RadialFrontModel model(cfg);
  for (int i = 0; i < 720; ++i) {
    const double theta = i * std::numbers::pi / 360.0;
    EXPECT_GT(model.speed_at(theta), 0.0) << "theta=" << theta;
  }
}

// Property sweep: arrival_time() and covered() must agree for any direction,
// distance and acceleration.
struct RadialCase {
  double angle_deg;
  double distance;
  double accel;
};

class RadialFrontProperty : public ::testing::TestWithParam<RadialCase> {};

TEST_P(RadialFrontProperty, CoverageConsistentWithArrival) {
  const RadialCase c = GetParam();
  RadialFrontConfig cfg = basic_config();
  cfg.accel = c.accel;
  cfg.harmonics = {{.k = 1, .amplitude = 0.25, .phase = 0.3},
                   {.k = 4, .amplitude = 0.15, .phase = 1.2}};
  const RadialFrontModel model(cfg);
  const double theta = c.angle_deg * std::numbers::pi / 180.0;
  const geom::Vec2 p = cfg.source + geom::Vec2::from_polar(c.distance, theta);

  const sim::Time t = model.arrival_time(p, 1e9);
  ASSERT_LT(t, sim::kNever);
  EXPECT_FALSE(model.covered(p, t - 1e-6));
  EXPECT_TRUE(model.covered(p, t + 1e-6));
  // Arrival is never before release.
  EXPECT_GE(t, cfg.start_time);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadialFrontProperty,
    ::testing::Values(RadialCase{0.0, 1.0, 0.0}, RadialCase{45.0, 5.0, 0.0},
                      RadialCase{90.0, 10.0, 0.1}, RadialCase{135.0, 2.5, 0.0},
                      RadialCase{180.0, 7.0, 0.3}, RadialCase{225.0, 12.0, 0.0},
                      RadialCase{270.0, 0.5, 0.5}, RadialCase{315.0, 20.0, 0.05},
                      RadialCase{10.0, 15.0, 0.2}, RadialCase{200.0, 30.0, 0.0}));

}  // namespace
}  // namespace pas::stimulus
