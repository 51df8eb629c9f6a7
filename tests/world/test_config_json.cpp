#include "world/config_json.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "world/paper_setup.hpp"

namespace pas::world {
namespace {

TEST(ConfigJson, ContainsEverySubsystemSection) {
  const std::string dump = to_json(paper_scenario()).dump();
  for (const char* key :
       {"\"seed\"", "\"deployment\"", "\"radio\"", "\"power\"", "\"protocol\"",
        "\"stimulus\"", "\"channel\"", "\"failures\"", "\"duration_s\""}) {
    EXPECT_NE(dump.find(key), std::string::npos) << key;
  }
}

TEST(ConfigJson, ReflectsPolicyAndThreshold) {
  PaperSetupOverrides o;
  o.policy = core::Policy::kSas;
  o.alert_threshold_s = 12.5;
  const std::string dump = to_json(paper_scenario(o)).dump();
  EXPECT_NE(dump.find("\"policy\":\"SAS\""), std::string::npos);
  EXPECT_NE(dump.find("\"alert_threshold_s\":12.5"), std::string::npos);
}

TEST(ConfigJson, StimulusVariants) {
  PaperSetupOverrides o;
  o.stimulus = StimulusKind::kPlume;
  EXPECT_NE(to_json(paper_scenario(o)).dump().find("\"plume\""),
            std::string::npos);
  o.stimulus = StimulusKind::kPde;
  EXPECT_NE(to_json(paper_scenario(o)).dump().find("\"diffusivity\""),
            std::string::npos);
  o.stimulus = StimulusKind::kTwoSources;
  EXPECT_NE(to_json(paper_scenario(o)).dump().find("\"radial_second\""),
            std::string::npos);
}

TEST(ConfigJson, ChannelVariants) {
  ScenarioConfig cfg = paper_scenario();
  cfg.channel = ChannelKind::kBernoulli;
  cfg.channel_loss = 0.25;
  EXPECT_NE(to_json(cfg).dump().find("\"loss\":0.25"), std::string::npos);
  cfg.channel = ChannelKind::kGilbertElliott;
  EXPECT_NE(to_json(cfg).dump().find("gilbert-elliott"), std::string::npos);
}

TEST(RunRecord, BundlesConfigMetricsOutcomes) {
  const ScenarioConfig cfg = paper_scenario();
  const RunResult result = run_scenario(cfg);
  const io::Json record = run_record(cfg, result);
  const std::string dump = record.dump();
  EXPECT_NE(dump.find("\"config\""), std::string::npos);
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
  EXPECT_NE(dump.find("\"outcomes\""), std::string::npos);
  // 30 outcome rows.
  std::size_t ids = 0;
  for (std::size_t pos = 0; (pos = dump.find("\"id\":", pos)) != std::string::npos;
       ++pos) {
    ++ids;
  }
  EXPECT_EQ(ids, 30U);
}

TEST(RunRecord, UnreachedArrivalSerialisesAsNull) {
  const ScenarioConfig cfg = paper_scenario();
  const RunResult result = run_scenario(cfg);
  // The spill stops at 28 m, so some nodes are never reached; their arrival
  // must serialize as null (JSON has no Infinity).
  bool found_null_arrival = false;
  for (const auto& o : result.outcomes) {
    if (!o.was_reached) {
      const std::string dump = to_json(o).dump();
      EXPECT_NE(dump.find("\"arrival_s\":null"), std::string::npos);
      found_null_arrival = true;
      break;
    }
  }
  EXPECT_TRUE(found_null_arrival);
}

TEST(MetricsJson, RoundNumbersPresent) {
  const RunResult result = run_scenario(paper_scenario());
  const std::string dump = to_json(result.metrics).dump();
  EXPECT_NE(dump.find("\"node_count\":30"), std::string::npos);
  EXPECT_NE(dump.find("\"avg_energy_j\""), std::string::npos);
  EXPECT_NE(dump.find("\"alert_entries\""), std::string::npos);
}

TEST(ScenarioFromJson, RoundTripsSerialisedConfig) {
  ScenarioConfig cfg = paper_scenario();
  cfg.seed = 77;
  cfg.protocol.policy = core::Policy::kSas;
  cfg.channel = ChannelKind::kGilbertElliott;
  cfg.gilbert.loss_bad = 0.7;
  cfg.failures.fraction = 0.15;
  cfg.failures.window_end_s = 90.0;
  cfg.stimulus = StimulusKind::kTwoSources;

  const ScenarioConfig parsed =
      scenario_from_json(io::Json::parse(to_json(cfg).dump()));
  EXPECT_EQ(parsed.seed, cfg.seed);
  EXPECT_EQ(parsed.protocol.policy, cfg.protocol.policy);
  EXPECT_EQ(parsed.channel, cfg.channel);
  EXPECT_DOUBLE_EQ(parsed.gilbert.loss_bad, cfg.gilbert.loss_bad);
  EXPECT_DOUBLE_EQ(parsed.failures.fraction, cfg.failures.fraction);
  EXPECT_DOUBLE_EQ(parsed.failures.window_end_s, cfg.failures.window_end_s);
  EXPECT_EQ(parsed.stimulus, cfg.stimulus);
  EXPECT_DOUBLE_EQ(parsed.radial.base_speed, cfg.radial.base_speed);
  EXPECT_DOUBLE_EQ(parsed.radial_second.start_time,
                   cfg.radial_second.start_time);
  ASSERT_EQ(parsed.radial.harmonics.size(), cfg.radial.harmonics.size());
  EXPECT_DOUBLE_EQ(parsed.radial.harmonics[1].amplitude,
                   cfg.radial.harmonics[1].amplitude);
  EXPECT_EQ(parsed.deployment.count, cfg.deployment.count);
  EXPECT_DOUBLE_EQ(parsed.deployment.region.width(),
                   cfg.deployment.region.width());
  // Serialise → parse → serialise is a fixed point.
  EXPECT_EQ(to_json(parsed).dump(), to_json(cfg).dump());
}

TEST(ScenarioFromJson, PerPolicyBlocksRoundTrip) {
  ScenarioConfig cfg = paper_scenario();
  cfg.protocol.policy = core::Policy::kDutyCycle;
  cfg.protocol.duty_cycle.period_s = 2.5;
  cfg.protocol.threshold_hold.hold_window_s = 35.0;

  const ScenarioConfig parsed =
      scenario_from_json(io::Json::parse(to_json(cfg).dump()));
  EXPECT_EQ(parsed.protocol.policy, core::Policy::kDutyCycle);
  EXPECT_DOUBLE_EQ(parsed.protocol.duty_cycle.period_s, 2.5);
  EXPECT_DOUBLE_EQ(parsed.protocol.threshold_hold.hold_window_s, 35.0);
  EXPECT_EQ(to_json(parsed).dump(), to_json(cfg).dump());
}

TEST(ScenarioFromJson, NewPolicyNamesParse) {
  const ScenarioConfig duty = scenario_from_json(io::Json::parse(
      R"({"protocol": {"policy": "DutyCycle", "duty_cycle": {"period_s": 4}}})"));
  EXPECT_EQ(duty.protocol.policy, core::Policy::kDutyCycle);
  EXPECT_DOUBLE_EQ(duty.protocol.duty_cycle.period_s, 4.0);

  const ScenarioConfig hold = scenario_from_json(io::Json::parse(
      R"({"protocol": {"policy": "ThresholdHold",
                       "threshold_hold": {"hold_window_s": 12}}})"));
  EXPECT_EQ(hold.protocol.policy, core::Policy::kThresholdHold);
  EXPECT_DOUBLE_EQ(hold.protocol.threshold_hold.hold_window_s, 12.0);
}

TEST(ScenarioFromJson, UnknownPolicyNameThrowsListingRegisteredOnes) {
  try {
    (void)scenario_from_json(
        io::Json::parse(R"({"protocol": {"policy": "BMAC"}})"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("BMAC"), std::string::npos);
    EXPECT_NE(what.find("DutyCycle"), std::string::npos);
    EXPECT_NE(what.find("ThresholdHold"), std::string::npos);
  }
}

TEST(ScenarioFromJson, UnknownKeysInPolicyBlocksThrow) {
  EXPECT_THROW(scenario_from_json(io::Json::parse(
                   R"({"protocol": {"duty_cycle": {"period": 4}}})")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_json(io::Json::parse(
                   R"({"protocol": {"threshold_hold": {"window_s": 4}}})")),
               std::runtime_error);
}

TEST(ScenarioFromJson, PartialOverridesKeepBase) {
  const ScenarioConfig base = paper_scenario();
  const ScenarioConfig parsed = scenario_from_json(
      io::Json::parse(R"({"protocol": {"alert_threshold_s": 25}})"), base);
  EXPECT_DOUBLE_EQ(parsed.protocol.alert_threshold_s, 25.0);
  EXPECT_EQ(parsed.protocol.policy, base.protocol.policy);
  EXPECT_EQ(parsed.deployment.count, base.deployment.count);
  EXPECT_DOUBLE_EQ(parsed.radial.base_speed, base.radial.base_speed);
}

TEST(ScenarioFromJson, UnknownKeysThrow) {
  EXPECT_THROW(scenario_from_json(io::Json::parse(R"({"sede": 1})")),
               std::runtime_error);
  EXPECT_THROW(
      scenario_from_json(io::Json::parse(R"({"radio": {"range": 10}})")),
      std::runtime_error);
  EXPECT_THROW(scenario_from_json(
                   io::Json::parse(R"({"protocol": {"policy": "BOGUS"}})")),
               std::runtime_error);
}

TEST(ScenarioFromJson, IntegerFieldsAreCheckedBeforeTheCast) {
  // Each text holds a value its integer field cannot take: a fraction, or a
  // number out of the field's range. The error names the key.
  const std::vector<std::pair<std::string, std::string>> rejected{
      {R"({"seed": 1.5})", "seed"},
      {R"({"seed": -1})", "seed"},
      {R"({"seed": 18446744073709551616})", "seed"},  // 2^64
      {R"({"deployment": {"count": 30.9}})", "count"},
      {R"({"deployment": {"count": 1e30}})", "count"},
      {R"({"stimulus": {"radial": {"harmonics": [{"k": 1e10}]}}})", "k"},
      {R"({"stimulus": {"radial_second": {"harmonics": [{"k": 2.5}]}}})", "k"},
      {R"({"stimulus": {"pde": {"grid": 32.5}}})", "grid"},
      {R"({"stimulus": {"pde": {"grid": 1e10}}})", "grid"},
      {R"({"mac": {"max_backoff_exponent": 4.5}})", "max_backoff_exponent"},
      {R"({"mac": {"max_attempts": 3e9}})", "max_attempts"},
      {R"({"collection": {"max_hops": -1}})", "max_hops"},
      {R"({"collection": {"node_queue_limit": 4294967296}})",
       "node_queue_limit"},
  };
  for (const auto& [text, key] : rejected) {
    try {
      (void)scenario_from_json(io::Json::parse(text));
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find('"' + key + '"'), std::string::npos)
          << text << ": " << e.what();
    }
  }
  // The largest values that fit are read exactly.
  const ScenarioConfig parsed = scenario_from_json(io::Json::parse(
      R"({"seed": 18446744073709549568, "deployment": {"count": 0},
          "collection": {"node_queue_limit": 4294967295},
          "stimulus": {"radial": {"harmonics": [{"k": -3}]}}})"));
  EXPECT_EQ(parsed.seed, 18446744073709549568ULL);
  EXPECT_EQ(parsed.deployment.count, 0U);
  EXPECT_EQ(parsed.collection.node_queue_limit, 4294967295U);
  ASSERT_EQ(parsed.radial.harmonics.size(), 1U);
  EXPECT_EQ(parsed.radial.harmonics[0].k, -3);
}

}  // namespace
}  // namespace pas::world
