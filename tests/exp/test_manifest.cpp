// Manifest JSON round-trip and validation.
#include "exp/manifest.hpp"

#include <gtest/gtest.h>

#include <string>

#include "world/config_json.hpp"

namespace pas::exp {
namespace {

Manifest sample_manifest() {
  Manifest m;
  m.name = "roundtrip";
  m.description = "sample";
  m.replications = 7;
  m.seed_base = 99;
  m.base.seed = 5;
  m.base.duration_s = 120.0;
  m.base.deployment.count = 24;
  m.base.radio.range_m = 12.0;
  m.base.protocol.policy = core::Policy::kSas;
  m.base.protocol.alert_threshold_s = 15.0;
  m.base.protocol.sleep.max_s = 25.0;
  m.base.stimulus = world::StimulusKind::kPlume;
  m.base.plume.mass = 1234.0;
  m.base.channel = world::ChannelKind::kBernoulli;
  m.base.channel_loss = 0.1;
  m.base.failures.fraction = 0.2;
  m.base.failures.window_end_s = 100.0;
  m.axes = {
      Axis{.kind = AxisKind::kPolicy, .labels = {"NS", "PAS"}},
      Axis{.kind = AxisKind::kMaxSleep, .numbers = {5.0, 10.0, 20.0}},
  };
  return m;
}

TEST(Manifest, JsonRoundTrip) {
  const Manifest m = sample_manifest();
  const Manifest r = Manifest::from_json(
      io::Json::parse(m.to_json().dump(2)));

  EXPECT_EQ(r.name, m.name);
  EXPECT_EQ(r.description, m.description);
  EXPECT_EQ(r.replications, m.replications);
  EXPECT_EQ(r.seed_base, m.seed_base);

  EXPECT_EQ(r.base.seed, m.base.seed);
  EXPECT_DOUBLE_EQ(r.base.duration_s, m.base.duration_s);
  EXPECT_EQ(r.base.deployment.count, m.base.deployment.count);
  EXPECT_DOUBLE_EQ(r.base.radio.range_m, m.base.radio.range_m);
  EXPECT_EQ(r.base.protocol.policy, m.base.protocol.policy);
  EXPECT_DOUBLE_EQ(r.base.protocol.alert_threshold_s,
                   m.base.protocol.alert_threshold_s);
  EXPECT_DOUBLE_EQ(r.base.protocol.sleep.max_s, m.base.protocol.sleep.max_s);
  EXPECT_EQ(r.base.stimulus, m.base.stimulus);
  EXPECT_DOUBLE_EQ(r.base.plume.mass, m.base.plume.mass);
  EXPECT_EQ(r.base.channel, m.base.channel);
  EXPECT_DOUBLE_EQ(r.base.channel_loss, m.base.channel_loss);
  EXPECT_DOUBLE_EQ(r.base.failures.fraction, m.base.failures.fraction);
  EXPECT_DOUBLE_EQ(r.base.failures.window_end_s, m.base.failures.window_end_s);

  ASSERT_EQ(r.axes.size(), 2U);
  EXPECT_EQ(r.axes[0].kind, AxisKind::kPolicy);
  EXPECT_EQ(r.axes[0].labels, (std::vector<std::string>{"NS", "PAS"}));
  EXPECT_EQ(r.axes[1].kind, AxisKind::kMaxSleep);
  EXPECT_EQ(r.axes[1].numbers, (std::vector<double>{5.0, 10.0, 20.0}));

  // Second round trip is byte-stable.
  EXPECT_EQ(r.to_json().dump(), m.to_json().dump());
}

TEST(Manifest, PointAndRunCounts) {
  const Manifest m = sample_manifest();
  EXPECT_EQ(m.point_count(), 6U);
  EXPECT_EQ(m.run_count(), 42U);
  Manifest axis_free;
  EXPECT_EQ(axis_free.point_count(), 1U);
}

TEST(Manifest, UnknownKeysRejected) {
  EXPECT_THROW(Manifest::from_json(io::Json::parse(R"({"nam": "typo"})")),
               std::runtime_error);
  EXPECT_THROW(Manifest::from_json(io::Json::parse(
                   R"({"base": {"duration": 10}})")),
               std::runtime_error);
  EXPECT_THROW(Manifest::from_json(io::Json::parse(
                   R"({"axes": [{"axis": "warp_speed", "values": [1]}]})")),
               std::runtime_error);
}

TEST(Manifest, ValidationRejectsBadShapes) {
  Manifest m = sample_manifest();
  m.replications = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = sample_manifest();
  m.axes.push_back(Axis{.kind = AxisKind::kPolicy, .labels = {"PAS"}});
  EXPECT_THROW(m.validate(), std::invalid_argument);  // duplicate axis

  m = sample_manifest();
  m.axes[1].numbers.clear();
  EXPECT_THROW(m.validate(), std::invalid_argument);  // empty axis
}

TEST(Manifest, NegativeCountsRejected) {
  EXPECT_THROW(Manifest::from_json(io::Json::parse(R"({"replications": -1})")),
               std::runtime_error);
  EXPECT_THROW(Manifest::from_json(io::Json::parse(R"({"seed_base": -2})")),
               std::runtime_error);
  EXPECT_THROW(Manifest::from_json(io::Json::parse(
                   R"({"axes": [{"axis": "node_count", "values": [-5]}]})")),
               std::invalid_argument);
  EXPECT_THROW(Manifest::from_json(io::Json::parse(
                   R"({"base": {"deployment": {"count": -3}}})")),
               std::runtime_error);
  // Fractions and numbers past the field's range fail too; a cast alone
  // would truncate the first and is undefined for the second.
  for (const char* text :
       {R"({"replications": 2.5})", R"({"replications": 1e30})",
        R"({"seed_base": 0.5})", R"({"seed_base": 1e30})",
        R"({"axes": [{"axis": "node_count", "values": [30.9]}]})",
        R"({"axes": [{"axis": "node_count", "values": [1e30]}]})",
        R"({"base": {"deployment": {"count": 30.9}}})",
        R"({"base": {"deployment": {"count": 1e30}}})"}) {
    EXPECT_THROW(Manifest::from_json(io::Json::parse(text)), std::runtime_error)
        << text;
  }
}

TEST(Manifest, NonPositiveRadioRangeRejectedAtLoadTime) {
  // The manifest author hears about the key at load time, not from the
  // spatial index mid-run. (JSON cannot spell a non-finite range: the
  // parser refuses 1e999.)
  for (const std::string range : {"0", "-3", "-0"}) {
    for (const std::string& text :
         {R"({"base": {"radio": {"range_m": )" + range + "}}}",
          R"({"axes": [{"axis": "radio_range_m", "values": [)" + range +
              "]}]}"}) {
      try {
        (void)Manifest::from_json(io::Json::parse(text));
        ADD_FAILURE() << "accepted " << text;
      } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("range_m"), std::string::npos)
            << text << ": " << e.what();
      }
    }
  }
}

TEST(Manifest, BadAxisValueFailsAtLoadTime) {
  EXPECT_THROW(Manifest::from_json(io::Json::parse(
                   R"({"axes": [{"axis": "policy", "values": ["WAT"]}]})")),
               std::runtime_error);
  // Numeric axis with string values (and vice versa) is a type error.
  EXPECT_THROW(Manifest::from_json(io::Json::parse(
                   R"({"axes": [{"axis": "max_sleep_s", "values": ["5"]}]})")),
               std::runtime_error);
}

TEST(Manifest, UnknownPolicyNameRejectedAtLoadTime) {
  // The registry error must reach the manifest author with the valid
  // spellings, not surface mid-campaign.
  try {
    (void)Manifest::from_json(io::Json::parse(
        R"({"axes": [{"axis": "policy", "values": ["PAS", "BMAC"]}]})"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("BMAC"), std::string::npos);
    EXPECT_NE(what.find("DutyCycle"), std::string::npos);
  }
}

TEST(Manifest, LoadParsesExampleCampaign) {
  // The shipped example must stay loadable; it is the CLI's documented entry
  // point. Locate it relative to the source tree via __FILE__.
  const std::string here = __FILE__;
  const std::string root = here.substr(0, here.find("tests/exp/"));
  const Manifest m = Manifest::load(root + "examples/campaign.json");
  EXPECT_EQ(m.name, "paper-grid");
  EXPECT_GE(m.point_count(), 100U);
}

TEST(Manifest, LoadParsesPolicyComparisonExample) {
  const std::string here = __FILE__;
  const std::string root = here.substr(0, here.find("tests/exp/"));
  const Manifest m = Manifest::load(root + "examples/policy_comparison.json");
  EXPECT_EQ(m.name, "policy-comparison");
  ASSERT_FALSE(m.axes.empty());
  EXPECT_EQ(m.axes[0].kind, AxisKind::kPolicy);
  EXPECT_EQ(m.axes[0].labels,
            (std::vector<std::string>{"NS", "SAS", "PAS", "DutyCycle",
                                      "ThresholdHold"}));
  EXPECT_DOUBLE_EQ(m.base.protocol.duty_cycle.period_s, 5.0);
  EXPECT_DOUBLE_EQ(m.base.protocol.threshold_hold.hold_window_s, 20.0);
}

}  // namespace
}  // namespace pas::exp
