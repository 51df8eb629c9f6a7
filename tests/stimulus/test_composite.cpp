#include "stimulus/composite.hpp"

#include <gtest/gtest.h>

#include "stimulus/radial_front.hpp"

namespace pas::stimulus {
namespace {

std::unique_ptr<RadialFrontModel> radial_at(geom::Vec2 src, double speed,
                                            sim::Time start = 0.0) {
  RadialFrontConfig cfg;
  cfg.source = src;
  cfg.base_speed = speed;
  cfg.start_time = start;
  return std::make_unique<RadialFrontModel>(cfg);
}

TEST(Composite, RejectsEmptyAndNull) {
  EXPECT_THROW(CompositeModel{{}}, std::invalid_argument);
  std::vector<std::unique_ptr<StimulusModel>> parts;
  parts.push_back(nullptr);
  EXPECT_THROW(CompositeModel{std::move(parts)}, std::invalid_argument);
}

TEST(Composite, CoveredIsUnion) {
  std::vector<std::unique_ptr<StimulusModel>> parts;
  parts.push_back(radial_at({0.0, 0.0}, 1.0));
  parts.push_back(radial_at({100.0, 0.0}, 1.0));
  const CompositeModel model(std::move(parts));
  EXPECT_TRUE(model.covered({2.0, 0.0}, 5.0));    // near source A
  EXPECT_TRUE(model.covered({98.0, 0.0}, 5.0));   // near source B
  EXPECT_FALSE(model.covered({50.0, 0.0}, 5.0));  // between, too early
  EXPECT_TRUE(model.covered({50.0, 0.0}, 51.0));
}

TEST(Composite, ArrivalIsEarliestPart) {
  std::vector<std::unique_ptr<StimulusModel>> parts;
  parts.push_back(radial_at({0.0, 0.0}, 1.0));          // reaches x=30 at t=30
  parts.push_back(radial_at({40.0, 0.0}, 1.0, 5.0));    // reaches x=30 at t=15
  const CompositeModel model(std::move(parts));
  EXPECT_NEAR(model.arrival_time({30.0, 0.0}, 1e9), 15.0, 1e-9);
  EXPECT_NEAR(model.arrival_time({5.0, 0.0}, 1e9), 5.0, 1e-9);
}

TEST(Composite, PartAccess) {
  std::vector<std::unique_ptr<StimulusModel>> parts;
  parts.push_back(radial_at({1.0, 2.0}, 1.0));
  const CompositeModel model(std::move(parts));
  EXPECT_EQ(model.part_count(), 1U);
  EXPECT_EQ(model.part(0).name(), "radial");
  EXPECT_EQ(model.source(), geom::Vec2(1.0, 2.0));
  EXPECT_EQ(model.name(), "composite");
}

TEST(Composite, CoverageConsistentWithArrival) {
  std::vector<std::unique_ptr<StimulusModel>> parts;
  parts.push_back(radial_at({0.0, 0.0}, 0.7));
  parts.push_back(radial_at({30.0, 10.0}, 0.4, 10.0));
  const CompositeModel model(std::move(parts));
  for (const geom::Vec2 p : {geom::Vec2{5.0, 5.0}, geom::Vec2{25.0, 8.0},
                             geom::Vec2{15.0, 2.0}}) {
    const sim::Time t = model.arrival_time(p, 1e9);
    ASSERT_LT(t, sim::kNever);
    EXPECT_FALSE(model.covered(p, t - 1e-6));
    EXPECT_TRUE(model.covered(p, t + 1e-6));
  }
}

}  // namespace
}  // namespace pas::stimulus
