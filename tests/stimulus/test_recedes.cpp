// StimulusModel::recedes(): false only where coverage, once gained at a
// site, is never lost. The protocol arms no coverage checks under such a
// model, so the promise is checked here at the level it is made: a
// radial site's covered_at() never goes from true to false as t grows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "sim/rng.hpp"
#include "stimulus/advection_diffusion.hpp"
#include "stimulus/composite.hpp"
#include "stimulus/plume.hpp"
#include "stimulus/radial_front.hpp"

namespace pas::stimulus {
namespace {

struct RadialCase {
  const char* name;
  RadialFrontConfig config;
};

std::vector<RadialCase> radial_cases() {
  RadialFrontConfig isotropic;
  isotropic.source = {3.0, 3.0};
  isotropic.base_speed = 0.5;
  isotropic.start_time = 5.0;

  RadialFrontConfig harmonics = isotropic;
  harmonics.harmonics = {{.k = 1, .amplitude = 0.1, .phase = 2.1},
                         {.k = 3, .amplitude = 0.12, .phase = 0.7}};

  RadialFrontConfig accelerating = harmonics;
  accelerating.accel = 0.3;

  RadialFrontConfig capped = harmonics;  // most sites lie past max_radius
  capped.max_radius = 6.0;

  return {{"isotropic", isotropic},
          {"harmonics", harmonics},
          {"accelerating", accelerating},
          {"capped", capped}};
}

TEST(Recedes, RadialFrontsNeverRecede) {
  for (const RadialCase& c : radial_cases()) {
    EXPECT_FALSE(RadialFrontModel(c.config).recedes()) << c.name;
  }
}

TEST(Recedes, RadialSiteCoverageIsNeverLost) {
  sim::Pcg32 rng(2024, 7);
  for (const RadialCase& c : radial_cases()) {
    const RadialFrontModel model(c.config);
    std::vector<geom::Vec2> points{c.config.source};  // the source itself
    for (int k = 0; k < 200; ++k) {
      points.push_back({rng.uniform(-20.0, 40.0), rng.uniform(-20.0, 40.0)});
    }
    for (const geom::Vec2 p : points) {
      const Site site = model.site(p);
      // Random increasing times through the release and well past the
      // arrival, plus the arrival itself and its neighbours.
      std::vector<sim::Time> times;
      for (sim::Time t = 0.0; t < 200.0; t += rng.uniform(0.0, 2.0)) {
        times.push_back(t);
      }
      const sim::Time arrival = model.arrival_time(p, 1e9);
      if (arrival < sim::kNever) {
        times.push_back(std::nextafter(arrival, 0.0));
        times.push_back(arrival);
        times.push_back(std::nextafter(arrival, sim::kNever));
      }
      std::sort(times.begin(), times.end());
      bool covered = false;
      for (const sim::Time t : times) {
        const bool now = model.covered_at(site, t);
        EXPECT_FALSE(covered && !now)
            << c.name << " (" << p.x << ", " << p.y << ") at t = " << t;
        covered = now;
      }
    }
  }
}

TEST(Recedes, CompositeRecedesIfAnyPartDoes) {
  std::vector<std::unique_ptr<StimulusModel>> radials;
  for (const RadialCase& c : radial_cases()) {
    radials.push_back(std::make_unique<RadialFrontModel>(c.config));
  }
  EXPECT_FALSE(CompositeModel(std::move(radials)).recedes());

  GaussianPlumeConfig plume;
  plume.source = {0.0, 0.0};
  plume.mass = 400.0;
  plume.diffusivity = 1.0;
  plume.threshold = 0.05;
  std::vector<std::unique_ptr<StimulusModel>> mixed;
  mixed.push_back(std::make_unique<RadialFrontModel>(radial_cases()[0].config));
  mixed.push_back(std::make_unique<GaussianPlumeModel>(plume));
  EXPECT_TRUE(CompositeModel(std::move(mixed)).recedes());
}

TEST(Recedes, PlumeAndPdeRecede) {
  GaussianPlumeConfig plume;
  plume.source = {0.0, 0.0};
  plume.mass = 400.0;
  plume.diffusivity = 1.0;
  plume.threshold = 0.05;
  EXPECT_TRUE(GaussianPlumeModel(plume).recedes());

  AdvectionDiffusionConfig pde;
  pde.region = geom::Aabb::square(20.0);
  pde.nx = 16;
  pde.ny = 16;
  pde.source = {10.0, 10.0};
  pde.horizon = 1.0;
  EXPECT_TRUE(AdvectionDiffusionModel(pde).recedes());
}

}  // namespace
}  // namespace pas::stimulus
