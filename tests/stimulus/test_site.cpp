// covered_at(site(p), t) must equal covered(p, t) for every model: the
// protocol senses through sites, and a site that disagreed with covered()
// at even one (p, t) would move a detection. Times include each position's
// own arrival and the doubles just around it, where coverage flips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/rng.hpp"
#include "stimulus/advection_diffusion.hpp"
#include "stimulus/composite.hpp"
#include "stimulus/plume.hpp"
#include "stimulus/radial_front.hpp"

namespace pas::stimulus {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// `count` random positions in [lo, hi]², plus the model's source.
std::vector<geom::Vec2> positions_around(const StimulusModel& model, double lo,
                                         double hi, int count,
                                         std::uint64_t seed) {
  sim::Pcg32 rng(seed, 1);
  std::vector<geom::Vec2> ps{model.source()};
  for (int k = 0; k < count; ++k) {
    ps.push_back({rng.uniform(lo, hi), rng.uniform(lo, hi)});
  }
  return ps;
}

/// Compares covered_at(site(p), t) with covered(p, t) at `ts`, at `p`'s
/// arrival within `horizon` and at its neighbouring doubles; returns how
/// many (p, t) were covered, so callers can check both outcomes occurred.
std::size_t expect_sites_exact(const StimulusModel& model,
                               const std::vector<geom::Vec2>& ps,
                               const std::vector<sim::Time>& ts,
                               sim::Time horizon) {
  std::size_t covered = 0;
  std::size_t mismatches = 0;
  for (const geom::Vec2 p : ps) {
    const Site site = model.site(p);
    EXPECT_EQ(site.position, p);
    std::vector<sim::Time> times = ts;
    if (const sim::Time a = model.arrival_time(p, horizon); a < sim::kNever) {
      times.insert(times.end(), {a, std::nextafter(a, -kInf),
                                 std::nextafter(a, kInf)});
    }
    for (const sim::Time t : times) {
      const bool expected = model.covered(p, t);
      covered += expected ? 1 : 0;
      if (model.covered_at(site, t) != expected && ++mismatches <= 5) {
        ADD_FAILURE() << model.name() << " at (" << p.x << ", " << p.y
                      << "), t = " << t << ": covered() says " << expected;
      }
    }
  }
  EXPECT_EQ(mismatches, 0U);
  return covered;
}

std::vector<sim::Time> random_times(sim::Time lo, sim::Time hi, int count,
                                    std::uint64_t seed) {
  sim::Pcg32 rng(seed, 2);
  std::vector<sim::Time> ts;
  for (int k = 0; k < count; ++k) ts.push_back(rng.uniform(lo, hi));
  return ts;
}

RadialFrontConfig radial_config() {
  RadialFrontConfig cfg;
  cfg.source = {3.0, 3.0};
  cfg.base_speed = 0.5;
  cfg.start_time = 5.0;
  return cfg;
}

void check_radial(const RadialFrontConfig& cfg, std::uint64_t seed) {
  const RadialFrontModel model(cfg);
  const auto ps = positions_around(model, -10.0, 50.0, 200, seed);
  auto ts = random_times(0.0, 200.0, 60, seed);
  // At and just around the release, and long after it.
  ts.insert(ts.end(), {cfg.start_time, std::nextafter(cfg.start_time, -kInf),
                       std::nextafter(cfg.start_time, kInf), 0.0, -1.0, 1e6});
  const std::size_t covered = expect_sites_exact(model, ps, ts, 1e7);
  EXPECT_GT(covered, 0U);
  EXPECT_LT(covered, ps.size() * ts.size());
}

TEST(StimulusSite, RadialIsotropic) { check_radial(radial_config(), 1); }

TEST(StimulusSite, RadialWithHarmonics) {
  RadialFrontConfig cfg = radial_config();
  cfg.harmonics = {{.k = 1, .amplitude = 0.1, .phase = 2.1},
                   {.k = 3, .amplitude = 0.12, .phase = 0.7}};
  check_radial(cfg, 2);
}

TEST(StimulusSite, RadialAccelerating) {
  RadialFrontConfig cfg = radial_config();
  cfg.accel = 0.05;
  cfg.harmonics = {{.k = 2, .amplitude = 0.3, .phase = -0.4}};
  check_radial(cfg, 3);
}

TEST(StimulusSite, RadialPastMaxRadius) {
  // The field reaches well past max_radius, so a site that ignored it would
  // cover the far positions late in the run.
  RadialFrontConfig cfg = radial_config();
  cfg.max_radius = 12.0;
  cfg.accel = 0.02;
  cfg.harmonics = {{.k = 1, .amplitude = 0.2, .phase = 0.3}};
  check_radial(cfg, 4);
  const RadialFrontModel model(cfg);
  const Site far = model.site({30.0, 3.0});
  EXPECT_FALSE(model.covered_at(far, 1e6));
}

TEST(StimulusSite, RadialAtTheSource) {
  const RadialFrontModel model(radial_config());
  const Site at = model.site({3.0, 3.0});
  EXPECT_EQ(at.range, 0.0);
  EXPECT_FALSE(model.covered_at(at, std::nextafter(5.0, -kInf)));
  EXPECT_TRUE(model.covered_at(at, 5.0));
  EXPECT_TRUE(model.covered_at(at, 100.0));
}

TEST(StimulusSite, PlumeUsesTheDefault) {
  GaussianPlumeConfig cfg;
  cfg.source = {3.0, 3.0};
  cfg.mass = 3000.0;
  cfg.diffusivity = 1.5;
  cfg.wind = {0.05, 0.05};
  cfg.threshold = 0.35;
  cfg.start_time = 2.0;
  const GaussianPlumeModel model(cfg);
  const auto ps = positions_around(model, -5.0, 40.0, 60, 5);
  const std::size_t covered =
      expect_sites_exact(model, ps, random_times(0.0, 150.0, 30, 5), 150.0);
  EXPECT_GT(covered, 0U);
}

TEST(StimulusSite, PdeUsesTheDefault) {
  AdvectionDiffusionConfig cfg;
  cfg.region = geom::Aabb::square(20.0);
  cfg.nx = 32;
  cfg.ny = 32;
  cfg.source = {10.0, 10.0};
  cfg.threshold = 0.5;
  cfg.horizon = 40.0;
  const AdvectionDiffusionModel model(cfg);
  const auto ps = positions_around(model, 0.0, 20.0, 40, 6);
  const std::size_t covered =
      expect_sites_exact(model, ps, random_times(0.0, 40.0, 20, 6), 40.0);
  EXPECT_GT(covered, 0U);
}

TEST(StimulusSite, CompositeUsesTheDefault) {
  RadialFrontConfig second = radial_config();
  second.source = {30.0, 25.0};
  second.start_time = 20.0;
  second.harmonics = {{.k = 2, .amplitude = 0.2, .phase = 1.0}};
  std::vector<std::unique_ptr<StimulusModel>> parts;
  parts.push_back(std::make_unique<RadialFrontModel>(radial_config()));
  parts.push_back(std::make_unique<RadialFrontModel>(second));
  const CompositeModel model(std::move(parts));
  const auto ps = positions_around(model, -5.0, 40.0, 100, 7);
  const std::size_t covered =
      expect_sites_exact(model, ps, random_times(0.0, 120.0, 40, 7), 1e4);
  EXPECT_GT(covered, 0U);
}

}  // namespace
}  // namespace pas::stimulus
