// Pluggable sleeping policies.
//
// The paper frames PAS, SAS and NS as points in a *family* of sleeping
// strategies (§3.4); related work adds fixed duty-cycling (the classic
// LPL-style baseline) and model-based "dormant sensing" (No-Sense,
// arXiv:1312.3295). SleepingPolicy is that family as an interface: the
// Protocol engine owns the state machine (safe/alert/covered, timers,
// messaging) and delegates every strategy decision to a policy object.
//
// The engine↔policy contract, hook by hook:
//   * sleeps()                — whether safe nodes duty-cycle at all (NS: no);
//   * on_wake()               — what a safe node does after waking and
//                               sensing nothing: broadcast a REQUEST and
//                               evaluate, listen silently and evaluate, or
//                               go straight back to sleep;
//   * on_evaluate()           — whether the current predicted arrival
//                               warrants staying awake in alert state.
//                               Contract: for a fixed prediction it never
//                               turns false as `now` grows, so an alert
//                               node whose prediction holds needs no
//                               recheck to stay alert (the engine arms
//                               rechecks only where one can act);
//   * next_sleep_interval()   — the interval after an uneventful wake;
//   * prediction_policy()     — how predictions are computed from peers
//                               (which peers count, cosine projection,
//                               overdue tolerance);
//   * wants_alert_participation() — whether alert nodes answer REQUESTs and
//                               push significantly changed predictions;
//   * covered_nodes_estimate() — whether covered nodes run the REQUEST /
//                               velocity-estimation / RESPONSE exchange;
//   * initial_interval() / max_sleep_s() — the schedule's bounds (initial
//                               wake jitter, alert/safe reset, metrics
//                               censoring).
//
// Policies are immutable after construction and hold no per-node data: all
// mutable per-node state lives in PolicyNodeState inside the engine's
// Runtime slab, so adding a policy never adds a per-event allocation (the
// PR 4 slot-map/SmallFn discipline).
//
// New policies register in the name-keyed factory at the bottom of
// policy.cpp; manifests, config JSON, campaign axes, and the CLI all
// resolve names through it. See README "Sleeping policies" for a ~50-LoC
// worked example of adding one.
#pragma once

#include <cstdio>
#include <memory>
#include <span>
#include <string_view>

#include "core/config.hpp"
#include "core/estimation.hpp"
#include "core/state.hpp"
#include "sim/time.hpp"

namespace pas::core {

/// Per-node policy state, owned by the engine's Runtime slab (one entry per
/// node, allocated once at Protocol construction — policies never allocate).
struct PolicyNodeState {
  /// Current sleeping interval; seeded with initial_interval(), advanced by
  /// next_sleep_interval() after each uneventful wake, reset on alert entry
  /// and on demotion back to safe.
  sim::Duration sleep_interval = 0.0;
};

/// What a safe node does right after waking and sensing nothing.
enum class WakeAction : std::uint8_t {
  /// Broadcast a REQUEST, collect RESPONSEs for response_wait_s, evaluate.
  kQueryPeers,
  /// Keep the radio listening for response_wait_s, then evaluate whatever
  /// was overheard — no REQUEST (No-Sense-style passive model update).
  kListenOnly,
  /// Skip evaluation entirely and go straight back to sleep.
  kSleepAgain,
};

class SleepingPolicy {
 public:
  virtual ~SleepingPolicy() = default;
  SleepingPolicy(const SleepingPolicy&) = delete;
  SleepingPolicy& operator=(const SleepingPolicy&) = delete;

  [[nodiscard]] virtual Policy kind() const noexcept = 0;
  [[nodiscard]] std::string_view name() const noexcept {
    return to_string(kind());
  }

  /// Whether safe nodes duty-cycle at all. A non-sleeping policy never arms
  /// wake timers and keeps every radio listening.
  [[nodiscard]] virtual bool sleeps() const noexcept { return true; }

  /// PAS: alert nodes answer REQUESTs and push significantly changed
  /// predictions, spreading stimulus knowledge beyond the covered ring.
  [[nodiscard]] virtual bool wants_alert_participation() const noexcept {
    return false;
  }

  /// Whether sleeping backbone nodes may be used as multihop relays
  /// (net::Collection reaches them through the MAC's LPL rendezvous — the
  /// Sleep-Route scheme). Policies without any coordination machinery
  /// (pure duty-cycling) opt out: their sleeping nodes never serve traffic,
  /// so alerts route through awake nodes only and otherwise fall back to
  /// the backbone's predicted value.
  [[nodiscard]] virtual bool wants_collection_relay() const noexcept {
    return true;
  }

  /// Whether covered nodes run the detection-time exchange: REQUEST on
  /// detection, actual-velocity estimation (formula 1) from the replies,
  /// RESPONSE advertising the result. Policies that return false keep
  /// covered nodes silent (pure local sensing).
  [[nodiscard]] virtual bool covered_nodes_estimate() const noexcept {
    return sleeps();
  }

  /// How a node in `state` turns peer observations into a predicted
  /// arrival. Default: SAS-style (covered peers only, scalar distance,
  /// state-dependent overdue tolerance).
  [[nodiscard]] virtual PredictionPolicy prediction_policy(
      NodeState state) const noexcept;

  /// First sleeping interval after (re-)entering safe state; also the upper
  /// bound of the initial wake jitter.
  [[nodiscard]] virtual sim::Duration initial_interval() const noexcept {
    return config_.sleep.initial_s;
  }

  /// The longest interval this policy ever sleeps — the delay bound for
  /// monotone stimuli and the metrics-censoring horizon.
  [[nodiscard]] virtual sim::Duration max_sleep_s() const noexcept {
    return config_.sleep.max_s;
  }

  /// Decision for a safe node that woke and sensed nothing.
  [[nodiscard]] virtual WakeAction on_wake(PolicyNodeState& ps) const {
    (void)ps;
    return WakeAction::kQueryPeers;
  }

  /// True when `predicted_arrival` (absolute; kNever = no information)
  /// warrants staying awake. Drives both alert entry (safe evaluation) and
  /// alert retention (recheck / new RESPONSE). Must be monotone in `now`:
  /// if true at `now`, also true at every later time for the same `ps` and
  /// `predicted_arrival`. The engine skips the alert rechecks at which the
  /// prediction has not changed on the strength of it.
  [[nodiscard]] virtual bool on_evaluate(const PolicyNodeState& ps,
                                         sim::Time now,
                                         sim::Time predicted_arrival) const;

  /// The sleeping interval following an uneventful wake. `ps.sleep_interval`
  /// holds the interval just slept; the engine stores the returned value
  /// back into the slab before arming the wake timer.
  [[nodiscard]] virtual sim::Duration next_sleep_interval(
      const PolicyNodeState& ps, sim::Time now,
      sim::Time predicted_arrival) const;

 protected:
  explicit SleepingPolicy(const ProtocolConfig& config) : config_(config) {}
  const ProtocolConfig& config_;
};

// --- The three paper policies (extracted from the old engine branches) ----

/// NS: nodes never sleep; no messaging needed (zero-delay baseline).
class NeverSleepPolicy final : public SleepingPolicy {
 public:
  explicit NeverSleepPolicy(const ProtocolConfig& config)
      : SleepingPolicy(config) {}
  [[nodiscard]] Policy kind() const noexcept override {
    return Policy::kNeverSleep;
  }
  [[nodiscard]] bool sleeps() const noexcept override { return false; }
  [[nodiscard]] WakeAction on_wake(PolicyNodeState&) const override {
    return WakeAction::kSleepAgain;  // unreachable: NS never arms wake timers
  }
};

/// SAS: adaptive sleeping where stimulus information propagates only from
/// covered nodes (one hop) and prediction is the scalar distance/speed
/// estimate.
class SasPolicy final : public SleepingPolicy {
 public:
  explicit SasPolicy(const ProtocolConfig& config) : SleepingPolicy(config) {}
  [[nodiscard]] Policy kind() const noexcept override { return Policy::kSas; }
};

/// PAS: adaptive sleeping with vector velocity estimation, cosine
/// projection, alert-node participation, and re-broadcast of significantly
/// changed predictions.
class PasPolicy final : public SleepingPolicy {
 public:
  explicit PasPolicy(const ProtocolConfig& config) : SleepingPolicy(config) {}
  [[nodiscard]] Policy kind() const noexcept override { return Policy::kPas; }
  [[nodiscard]] bool wants_alert_participation() const noexcept override {
    return true;
  }
  [[nodiscard]] PredictionPolicy prediction_policy(
      NodeState state) const noexcept override;
};

// --- New baselines proving the seam ---------------------------------------

/// Fixed duty-cycling (the classic LPL-style baseline): wake every period_s,
/// sense, go straight back to sleep. No radio traffic at all — detection
/// happens only by local sensing, so delay is uniform in [0, period_s] and
/// energy is the floor any coordination scheme must beat.
class DutyCyclePolicy final : public SleepingPolicy {
 public:
  explicit DutyCyclePolicy(const ProtocolConfig& config)
      : SleepingPolicy(config) {}
  [[nodiscard]] Policy kind() const noexcept override {
    return Policy::kDutyCycle;
  }
  [[nodiscard]] bool covered_nodes_estimate() const noexcept override {
    return false;
  }
  [[nodiscard]] bool wants_collection_relay() const noexcept override {
    return false;  // no coordination: sleeping nodes never relay
  }
  [[nodiscard]] sim::Duration initial_interval() const noexcept override {
    return config_.duty_cycle.period_s;
  }
  [[nodiscard]] sim::Duration max_sleep_s() const noexcept override {
    return config_.duty_cycle.period_s;
  }
  [[nodiscard]] WakeAction on_wake(PolicyNodeState&) const override {
    return WakeAction::kSleepAgain;
  }
  [[nodiscard]] bool on_evaluate(const PolicyNodeState&, sim::Time,
                                 sim::Time) const override {
    return false;  // never evaluates, never alerts
  }
  [[nodiscard]] sim::Duration next_sleep_interval(const PolicyNodeState&,
                                                  sim::Time,
                                                  sim::Time) const override {
    return config_.duty_cycle.period_s;
  }
};

/// No-Sense-style model-based sleeping (arXiv:1312.3295): a safe node never
/// queries peers. On wake it senses, listens passively for response_wait_s
/// (overhearing the detection exchange of covered nodes in earshot), and
/// consults its local model: arrival predicted within hold_window_s → stay
/// awake; predicted beyond it → sleep until the window opens (clamped to
/// the schedule's [initial_s, max_s]); no prediction → fall back to the
/// schedule ramp.
class ThresholdHoldPolicy final : public SleepingPolicy {
 public:
  explicit ThresholdHoldPolicy(const ProtocolConfig& config)
      : SleepingPolicy(config) {}
  [[nodiscard]] Policy kind() const noexcept override {
    return Policy::kThresholdHold;
  }
  [[nodiscard]] PredictionPolicy prediction_policy(
      NodeState state) const noexcept override;
  [[nodiscard]] WakeAction on_wake(PolicyNodeState&) const override {
    return WakeAction::kListenOnly;
  }
  [[nodiscard]] bool on_evaluate(const PolicyNodeState& ps, sim::Time now,
                                 sim::Time predicted_arrival) const override;
  [[nodiscard]] sim::Duration next_sleep_interval(
      const PolicyNodeState& ps, sim::Time now,
      sim::Time predicted_arrival) const override;
};

// --- Name-keyed factory registry ------------------------------------------

struct PolicyInfo {
  Policy kind;
  std::string_view name;     // manifest / CSV / CLI spelling
  std::string_view summary;  // one-liner for --list-policies and errors
  std::unique_ptr<SleepingPolicy> (*make)(const ProtocolConfig&);
};

/// All registered policies, in enum order.
[[nodiscard]] std::span<const PolicyInfo> policy_registry() noexcept;

/// Prints the registry as a "name  summary" table (pas-exp
/// --list-policies, CLI unknown-name errors).
void print_policy_registry(std::FILE* out);

/// Registry entry for `name`, or nullptr when unknown.
[[nodiscard]] const PolicyInfo* find_policy(std::string_view name) noexcept;

/// Resolves a manifest/CLI policy name; throws std::runtime_error listing
/// the registered names on an unknown one.
[[nodiscard]] Policy policy_from_name(std::string_view name);

/// Instantiates the policy selected by `config.policy`. The returned object
/// keeps a reference to `config`, which must outlive it.
[[nodiscard]] std::unique_ptr<SleepingPolicy> make_policy(
    const ProtocolConfig& config);

}  // namespace pas::core
