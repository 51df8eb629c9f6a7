// Protocol configuration and the evaluated sleeping-policy family.
//
// One engine (core::Protocol) runs every policy; a Policy value selects the
// SleepingPolicy implementation (core/policy.hpp) via the name-keyed
// registry. The evaluated family:
//   * NS  — nodes never sleep; no messaging needed (zero delay baseline).
//   * SAS — adaptive sleeping where stimulus information propagates only
//           from covered nodes (one hop) and prediction is the scalar
//           distance/speed estimate.
//   * PAS — adaptive sleeping with vector velocity estimation, cosine
//           projection, alert-node participation, and re-broadcast of
//           significantly changed predictions.
//   * DutyCycle — fixed wake/sleep period, no radio traffic (the classic
//           LPL-style baseline).
//   * ThresholdHold — No-Sense-style dormant sensing: sleep while the
//           local model predicts no arrival within a hold window; no peer
//           queries (arXiv:1312.3295).
//
// ProtocolConfig carries the shared engine knobs plus one parameter block
// per policy that needs its own (duty_cycle, threshold_hold). All blocks
// are validated unconditionally: a campaign may sweep the policy axis
// across one base config, so every block must be sound regardless of which
// policy a given grid point selects.
#pragma once

#include <cassert>
#include <stdexcept>
#include <string_view>

#include "core/estimation.hpp"
#include "node/sleep_policy.hpp"
#include "sim/time.hpp"

namespace pas::core {

enum class Policy : std::uint8_t {
  kNeverSleep,
  kSas,
  kPas,
  kDutyCycle,
  kThresholdHold,
};

[[nodiscard]] constexpr std::string_view to_string(Policy p) noexcept {
  switch (p) {
    case Policy::kNeverSleep: return "NS";
    case Policy::kSas: return "SAS";
    case Policy::kPas: return "PAS";
    case Policy::kDutyCycle: return "DutyCycle";
    case Policy::kThresholdHold: return "ThresholdHold";
  }
  // A value outside the enum here means corrupted config or a policy added
  // without a name; serializing "?" into campaign CSVs would silently
  // poison resume keys, so fail loudly in debug builds.
  assert(!"to_string(Policy): value outside the enum");
  return "?";
}

/// DutyCycle parameters: the fixed wake period.
struct DutyCycleConfig {
  /// Sleep interval between sensing wake-ups (s). Delay for a front that
  /// arrives mid-sleep is uniform in [0, period_s].
  sim::Duration period_s = 5.0;

  void validate() const {
    if (period_s <= 0.0) {
      throw std::invalid_argument("DutyCycleConfig: period_s must be > 0");
    }
  }
};

/// ThresholdHold parameters: the model-based hold window.
struct ThresholdHoldConfig {
  /// A node whose local model predicts arrival within this window stays
  /// awake; one predicting beyond it sleeps until the window opens.
  sim::Duration hold_window_s = 20.0;

  void validate() const {
    if (hold_window_s < 0.0) {
      throw std::invalid_argument(
          "ThresholdHoldConfig: hold_window_s must be >= 0");
    }
  }
};

struct ProtocolConfig {
  Policy policy = Policy::kPas;

  /// Alert-time threshold T_alert (s): a node with expected arrival closer
  /// than this stays awake in alert state. Figs 5/7 sweep it from 10–30 s.
  sim::Duration alert_threshold_s = 20.0;

  /// Linearly increasing sleeping interval of safe nodes (§3.4). The
  /// maximum is the x-axis of Figs 4/6.
  node::LinearSleepPolicy sleep{};

  /// How long a node collects RESPONSEs after sending a REQUEST before it
  /// evaluates them.
  sim::Duration response_wait_s = 0.06;

  /// Period of the alert recheck grid: an alert node re-evaluates its
  /// predicted arrival at entry + k·alert_recheck_s (repeated additions).
  /// Only the grid instants where a recheck can change something become
  /// events; the rest are booked in closed form (core::Protocol).
  sim::Duration alert_recheck_s = 1.0;

  /// Re-broadcast sensitivity (relative change; see significant_change()).
  double rebroadcast_rel_change = 0.2;
  sim::Duration rebroadcast_abs_floor_s = 0.5;
  /// Minimum gap between a node's pushed RESPONSEs (storm brake).
  sim::Duration min_push_gap_s = 0.5;

  /// A covered node that has not sensed the stimulus for this long returns
  /// to safe state (Fig 3's "detection timeout"). Coverage is checked every
  /// covered_timeout_s / 2, and only under a stimulus model that recedes
  /// (StimulusModel::recedes()): under one that never does, no check could
  /// ever time out.
  sim::Duration covered_timeout_s = 20.0;

  /// Peer observations older than this are discarded when predicting; 0
  /// disables expiry. Staleness is mostly harmless because predictions are
  /// absolute times, but bounded memory mirrors a real mote.
  sim::Duration observation_ttl_s = 120.0;

  /// Predictions already overdue by more than this are treated as falsified
  /// (see PredictionPolicy::overdue_tolerance_s). Applies to safe nodes
  /// deciding whether to alert. The tolerance absorbs estimation bias —
  /// formula 1 measures speed along the detection chord, which runs early by
  /// up to a few seconds at one-hop scale — while still expiring genuinely
  /// stale information (a front that stopped long ago).
  sim::Duration prediction_overdue_tolerance_s = 10.0;

  /// Overdue tolerance for nodes already in alert state. An alert node whose
  /// predicted arrival just slipped past is in the most dangerous moment —
  /// the front is presumably imminent — so it holds alert for this long
  /// before treating the prediction as falsified and going back to sleep.
  /// Sized to cover the chord bias of formula 1 (apparent speed runs high by
  /// 1/cos φ, so predictions can run early by several seconds at hop scale);
  /// premature demotion costs exactly the delay the alert state exists to
  /// eliminate.
  sim::Duration alert_overdue_hold_s = 20.0;

  // Per-policy parameter blocks ------------------------------------------

  DutyCycleConfig duty_cycle{};
  ThresholdHoldConfig threshold_hold{};

  void validate() const {
    sleep.validate();
    duty_cycle.validate();
    threshold_hold.validate();
    if (alert_threshold_s < 0.0) {
      throw std::invalid_argument("ProtocolConfig: alert_threshold_s < 0");
    }
    if (response_wait_s <= 0.0) {
      throw std::invalid_argument("ProtocolConfig: response_wait_s must be > 0");
    }
    if (alert_recheck_s <= 0.0) {
      throw std::invalid_argument("ProtocolConfig: alert_recheck_s must be > 0");
    }
    if (covered_timeout_s <= 0.0) {
      throw std::invalid_argument("ProtocolConfig: covered_timeout_s must be > 0");
    }
    if (rebroadcast_rel_change < 0.0) {
      throw std::invalid_argument("ProtocolConfig: rebroadcast_rel_change < 0");
    }
    if (observation_ttl_s < 0.0) {
      throw std::invalid_argument("ProtocolConfig: observation_ttl_s < 0");
    }
  }

  // Presets ----------------------------------------------------------------

  [[nodiscard]] static ProtocolConfig pas() {
    ProtocolConfig c;
    c.policy = Policy::kPas;
    return c;
  }

  [[nodiscard]] static ProtocolConfig sas() {
    ProtocolConfig c;
    c.policy = Policy::kSas;
    return c;
  }

  [[nodiscard]] static ProtocolConfig never_sleep() {
    ProtocolConfig c;
    c.policy = Policy::kNeverSleep;
    return c;
  }

  [[nodiscard]] static ProtocolConfig duty_cycling() {
    ProtocolConfig c;
    c.policy = Policy::kDutyCycle;
    return c;
  }

  [[nodiscard]] static ProtocolConfig threshold_holding() {
    ProtocolConfig c;
    c.policy = Policy::kThresholdHold;
    return c;
  }
};

}  // namespace pas::core
