// The pluggable sleeping-policy layer: registry resolution, per-policy
// configuration validation, and the hook semantics each policy promises.
#include "core/policy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace pas::core {
namespace {

// --- Registry --------------------------------------------------------------

TEST(PolicyRegistry, ListsAllFivePoliciesInEnumOrder) {
  const auto reg = policy_registry();
  ASSERT_EQ(reg.size(), 5U);
  EXPECT_EQ(reg[0].name, "NS");
  EXPECT_EQ(reg[1].name, "SAS");
  EXPECT_EQ(reg[2].name, "PAS");
  EXPECT_EQ(reg[3].name, "DutyCycle");
  EXPECT_EQ(reg[4].name, "ThresholdHold");
  for (const auto& info : reg) {
    EXPECT_EQ(std::string_view(to_string(info.kind)), info.name);
    EXPECT_FALSE(info.summary.empty());
  }
}

TEST(PolicyRegistry, FindPolicyResolvesNamesExactly) {
  ASSERT_NE(find_policy("PAS"), nullptr);
  EXPECT_EQ(find_policy("PAS")->kind, Policy::kPas);
  EXPECT_EQ(find_policy("ThresholdHold")->kind, Policy::kThresholdHold);
  EXPECT_EQ(find_policy("pas"), nullptr);   // case-sensitive
  EXPECT_EQ(find_policy("PAS "), nullptr);  // no trimming
  EXPECT_EQ(find_policy(""), nullptr);
}

TEST(PolicyRegistry, UnknownNameThrowsListingRegisteredNames) {
  try {
    (void)policy_from_name("LPL");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("LPL"), std::string::npos);
    // The message must teach the valid spellings.
    for (const char* name : {"NS", "SAS", "PAS", "DutyCycle", "ThresholdHold"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TEST(PolicyRegistry, MakePolicyMatchesConfiguredKind) {
  ProtocolConfig cfg;
  for (const auto& info : policy_registry()) {
    cfg.policy = info.kind;
    const auto policy = make_policy(cfg);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->kind(), info.kind);
    EXPECT_EQ(policy->name(), info.name);
  }
}

// --- Per-policy config validation ------------------------------------------

TEST(PolicyConfig, DutyCyclePeriodMustBePositive) {
  ProtocolConfig cfg;
  cfg.duty_cycle.period_s = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.duty_cycle.period_s = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.duty_cycle.period_s = 0.5;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(PolicyConfig, HoldWindowMustBeNonNegative) {
  ProtocolConfig cfg;
  cfg.threshold_hold.hold_window_s = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.threshold_hold.hold_window_s = 0.0;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(PolicyConfig, BlocksValidateRegardlessOfSelectedPolicy) {
  // A campaign may sweep the policy axis over one base config, so a broken
  // DutyCycle block must fail even when the config currently selects PAS.
  ProtocolConfig cfg = ProtocolConfig::pas();
  cfg.duty_cycle.period_s = -3.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// --- Extracted paper policies keep their engine contracts -------------------

TEST(PaperPolicies, FlagParity) {
  ProtocolConfig cfg;

  cfg.policy = Policy::kNeverSleep;
  const auto ns = make_policy(cfg);
  EXPECT_FALSE(ns->sleeps());
  EXPECT_FALSE(ns->wants_alert_participation());
  EXPECT_FALSE(ns->covered_nodes_estimate());

  cfg.policy = Policy::kSas;
  const auto sas = make_policy(cfg);
  EXPECT_TRUE(sas->sleeps());
  EXPECT_FALSE(sas->wants_alert_participation());
  EXPECT_TRUE(sas->covered_nodes_estimate());
  EXPECT_FALSE(sas->prediction_policy(NodeState::kSafe).use_alert_peers);
  EXPECT_FALSE(sas->prediction_policy(NodeState::kSafe).cosine_projection);

  cfg.policy = Policy::kPas;
  const auto pas = make_policy(cfg);
  EXPECT_TRUE(pas->wants_alert_participation());
  EXPECT_TRUE(pas->prediction_policy(NodeState::kSafe).use_alert_peers);
  EXPECT_TRUE(pas->prediction_policy(NodeState::kSafe).cosine_projection);
}

TEST(PaperPolicies, StateDependentOverdueTolerance) {
  ProtocolConfig cfg;
  cfg.prediction_overdue_tolerance_s = 7.0;
  cfg.alert_overdue_hold_s = 19.0;
  for (Policy p : {Policy::kSas, Policy::kPas, Policy::kThresholdHold}) {
    cfg.policy = p;
    const auto policy = make_policy(cfg);
    EXPECT_DOUBLE_EQ(
        policy->prediction_policy(NodeState::kSafe).overdue_tolerance_s, 7.0);
    EXPECT_DOUBLE_EQ(
        policy->prediction_policy(NodeState::kAlert).overdue_tolerance_s, 19.0);
  }
}

TEST(PaperPolicies, RampAndAlertSemantics) {
  ProtocolConfig cfg;
  cfg.policy = Policy::kPas;
  cfg.alert_threshold_s = 20.0;
  cfg.sleep.initial_s = 1.0;
  cfg.sleep.increment_s = 2.0;
  cfg.sleep.max_s = 6.0;
  const auto pas = make_policy(cfg);

  PolicyNodeState ps;
  ps.sleep_interval = 1.0;
  EXPECT_EQ(pas->on_wake(ps), WakeAction::kQueryPeers);
  EXPECT_DOUBLE_EQ(pas->next_sleep_interval(ps, 100.0, sim::kNever), 3.0);
  ps.sleep_interval = 5.0;
  EXPECT_DOUBLE_EQ(pas->next_sleep_interval(ps, 100.0, sim::kNever), 6.0);

  EXPECT_FALSE(pas->on_evaluate(ps, 100.0, sim::kNever));
  EXPECT_FALSE(pas->on_evaluate(ps, 100.0, 120.1));
  EXPECT_TRUE(pas->on_evaluate(ps, 100.0, 120.0));  // exactly at threshold
  EXPECT_TRUE(pas->on_evaluate(ps, 100.0, 95.0));   // overdue but held
}

TEST(PolicyContract, OnEvaluateNeverTurnsFalseAsTimeGrows) {
  // The engine arms an alert recheck only where one can act, and relies on
  // this: for a fixed prediction, staying alert is never withdrawn by time
  // alone.
  const sim::Time predictions[] = {sim::kNever, -3.0, 0.0,  4.5,
                                   20.0,        37.25, 1e6};
  for (const double threshold : {0.0, 5.0, 20.0, 30.0}) {
    ProtocolConfig cfg;
    cfg.alert_threshold_s = threshold;
    cfg.threshold_hold.hold_window_s = threshold;
    cfg.duty_cycle.period_s = threshold + 1.0;
    for (const auto& info : policy_registry()) {
      cfg.policy = info.kind;
      const auto policy = make_policy(cfg);
      for (const sim::Duration interval : {1.0, 7.0, 40.0}) {
        PolicyNodeState ps;
        ps.sleep_interval = interval;
        for (const sim::Time p : predictions) {
          bool held = false;
          for (sim::Time t = -10.0; t <= 300.0; t += 0.25) {
            const bool now = policy->on_evaluate(ps, t, p);
            EXPECT_FALSE(held && !now)
                << info.name << " threshold " << threshold << " p " << p
                << " t " << t;
            held = now;
          }
        }
      }
    }
  }
}

// --- DutyCycle --------------------------------------------------------------

TEST(DutyCycle, FixedPeriodNoEvaluationNoAlerts) {
  ProtocolConfig cfg;
  cfg.policy = Policy::kDutyCycle;
  cfg.duty_cycle.period_s = 3.5;
  const auto policy = make_policy(cfg);

  EXPECT_TRUE(policy->sleeps());
  EXPECT_FALSE(policy->covered_nodes_estimate());
  EXPECT_FALSE(policy->wants_alert_participation());
  EXPECT_DOUBLE_EQ(policy->initial_interval(), 3.5);
  EXPECT_DOUBLE_EQ(policy->max_sleep_s(), 3.5);

  PolicyNodeState ps;
  ps.sleep_interval = 3.5;
  EXPECT_EQ(policy->on_wake(ps), WakeAction::kSleepAgain);
  // The period never ramps, whatever the model claims.
  EXPECT_DOUBLE_EQ(policy->next_sleep_interval(ps, 10.0, sim::kNever), 3.5);
  EXPECT_DOUBLE_EQ(policy->next_sleep_interval(ps, 10.0, 11.0), 3.5);
  // An imminent predicted arrival still never alerts a duty cycler.
  EXPECT_FALSE(policy->on_evaluate(ps, 10.0, 10.5));
}

// --- ThresholdHold ----------------------------------------------------------

TEST(ThresholdHold, ListensWithoutQuerying) {
  ProtocolConfig cfg;
  cfg.policy = Policy::kThresholdHold;
  const auto policy = make_policy(cfg);
  PolicyNodeState ps;
  EXPECT_EQ(policy->on_wake(ps), WakeAction::kListenOnly);
  EXPECT_FALSE(policy->wants_alert_participation());
  EXPECT_TRUE(policy->covered_nodes_estimate());
  // Model quality: vector projection, covered peers only.
  EXPECT_TRUE(policy->prediction_policy(NodeState::kSafe).cosine_projection);
  EXPECT_FALSE(policy->prediction_policy(NodeState::kSafe).use_alert_peers);
}

TEST(ThresholdHold, HoldWindowGatesWakefulness) {
  ProtocolConfig cfg;
  cfg.policy = Policy::kThresholdHold;
  cfg.threshold_hold.hold_window_s = 15.0;
  cfg.alert_threshold_s = 99.0;  // must be ignored: the hold window rules
  const auto policy = make_policy(cfg);

  PolicyNodeState ps;
  EXPECT_FALSE(policy->on_evaluate(ps, 100.0, sim::kNever));
  EXPECT_TRUE(policy->on_evaluate(ps, 100.0, 115.0));   // inside the window
  EXPECT_FALSE(policy->on_evaluate(ps, 100.0, 115.1));  // beyond it
}

TEST(ThresholdHold, SleepsUntilTheWindowOpens) {
  ProtocolConfig cfg;
  cfg.policy = Policy::kThresholdHold;
  cfg.threshold_hold.hold_window_s = 10.0;
  cfg.sleep.initial_s = 1.0;
  cfg.sleep.increment_s = 2.0;
  cfg.sleep.max_s = 20.0;
  const auto policy = make_policy(cfg);

  PolicyNodeState ps;
  ps.sleep_interval = 1.0;
  // No model: fall back to the schedule ramp.
  EXPECT_DOUBLE_EQ(policy->next_sleep_interval(ps, 100.0, sim::kNever), 3.0);
  // Arrival predicted at t=125, window 10 s → sleep 15 s, not the ramp.
  EXPECT_DOUBLE_EQ(policy->next_sleep_interval(ps, 100.0, 125.0), 15.0);
  // Distant prediction clamps at the schedule maximum…
  EXPECT_DOUBLE_EQ(policy->next_sleep_interval(ps, 100.0, 1000.0), 20.0);
  // …and a prediction at the window's edge clamps at the initial interval.
  EXPECT_DOUBLE_EQ(policy->next_sleep_interval(ps, 100.0, 110.2), 1.0);
}

// --- to_string hardening ----------------------------------------------------

#ifndef NDEBUG
TEST(PolicyToStringDeathTest, ValueOutsideTheEnumAssertsInDebug) {
  EXPECT_DEATH((void)to_string(static_cast<Policy>(250)),
               "value outside the enum");
}
#else
TEST(PolicyToString, ValueOutsideTheEnumFallsBackInRelease) {
  EXPECT_EQ(to_string(static_cast<Policy>(250)), "?");
}
#endif

}  // namespace
}  // namespace pas::core
