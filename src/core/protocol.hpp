// The protocol engine (paper §3): one state machine, pluggable sleeping
// policies. The engine owns states, timers, messaging, and detection; every
// strategy decision — whether to sleep at all, what to do on waking, when
// to alert, how long to sleep, how to predict — is delegated to the
// core::SleepingPolicy selected by config.policy (see core/policy.hpp for
// the hook contract and the registry of NS, SAS, PAS, DutyCycle, and
// ThresholdHold).
//
// One Protocol instance drives every node of one simulated network:
//   * safe nodes duty-cycle: wake → sense → (per policy: REQUEST / listen /
//     back to sleep) → evaluate → alert or sleep longer;
//   * alert nodes stay awake, re-evaluate predictions on new RESPONSEs and
//     on a recheck grid (entry + k·alert_recheck_s), and — when the policy
//     participates — answer REQUESTs and push significantly changed
//     predictions;
//   * covered nodes stay awake, estimate the actual front velocity from
//     earlier-covered neighbors (formula 1), advertise it, and fall back to
//     safe after a detection timeout when the stimulus recedes.
//
// Both polling timers fire only where their outcome can change. A recheck
// at grid instant t changes something only if a peer row expires, the
// prediction folds to another value, the policy declines to stay alert, or
// a push is due; recheck_timer is armed at the first such instant, or
// after at most 1024 quiet ones (plan_recheck), and each instant before it
// is booked as the recheck would have booked it: one pushes_suppressed
// under a participating policy, nothing otherwise. Booking happens when a
// RESPONSE reaches the alert node (instants ≤ now: each recheck was queued
// a period before it), when the node leaves alert by detection, failure or
// demotion (instants < now: arrivals and failures are queued at start) and
// in settle(). Coverage is checked only under a model that recedes
// (StimulusModel::recedes()).
//
// Detection semantics follow §4.1: an *active* node detects the stimulus the
// instant it arrives (scheduled from the ground-truth ArrivalMap); a
// sleeping node only detects when it next wakes while the stimulus is
// present. Detection delay is detect − arrival.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/observation.hpp"
#include "core/policy.hpp"
#include "core/state.hpp"
#include "net/collection.hpp"
#include "net/network.hpp"
#include "node/failure_model.hpp"
#include "node/sensor_node.hpp"
#include "obs/histogram.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "sim/trace.hpp"
#include "stimulus/arrival_map.hpp"
#include "stimulus/field.hpp"

namespace pas::core {

/// Fixed log-bucket layout for the per-run sleep-interval histogram: first
/// edge 0.25 s, 12 doubling buckets (reaches 512 s, beyond any max_sleep we
/// sweep), plus under/overflow bins.
inline constexpr obs::LogBuckets kSleepHistSpec{0.25, 12};

struct ProtocolStats {
  std::uint64_t wakeups = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t responses_pushed = 0;
  /// Alert-phase pushes skipped by the rate limiter / significance filter —
  /// transmissions the protocol decided not to spend energy on. Rechecks
  /// that change nothing are booked here lazily: complete after settle().
  std::uint64_t pushes_suppressed = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t alert_entries = 0;
  std::uint64_t alert_exits = 0;
  std::uint64_t covered_entries = 0;
  std::uint64_t covered_timeouts = 0;
  std::uint64_t failures = 0;
  /// Split of detections by whether the node held a finite predicted
  /// arrival when the stimulus reached it (its prediction machinery was
  /// "on the ball") vs. being surprised.
  std::uint64_t prediction_hits = 0;
  std::uint64_t prediction_misses = 0;
  /// Distribution of chosen sleep intervals (seconds, kSleepHistSpec).
  obs::HistogramData sleep_s{kSleepHistSpec, {}, 0};

  /// Accumulates `other` into this (campaign/replication roll-ups).
  void add(const ProtocolStats& other);
};

class Protocol {
 public:
  /// All referenced objects must outlive the Protocol. `trace` may be null.
  /// `collection` (may be null) receives a multihop alert per detection —
  /// the net::Collection routes it toward the sink (Sleep-Route).
  /// Throws std::invalid_argument unless `arrivals` was built by `model`
  /// for the nodes' positions: nodes sense through its sites.
  Protocol(sim::Simulator& simulator, net::Network& network,
           std::vector<node::SensorNode>& nodes,
           const stimulus::StimulusModel& model,
           const stimulus::ArrivalMap& arrivals, ProtocolConfig config,
           const sim::SeedSequence& seeds,
           const node::FailurePlan* failures = nullptr,
           sim::TraceLog* trace = nullptr,
           net::Collection* collection = nullptr);

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Schedules initial wake-ups, stimulus arrivals and failures. Call once,
  /// before Simulator::run_until.
  void start();

  /// Books every alert node's skipped rechecks up to and including now().
  /// Call once the simulator has run to its horizon and before reading
  /// stats(): until then pushes_suppressed lacks the skipped instants.
  void settle();

  [[nodiscard]] NodeState state_of(std::uint32_t id) const {
    return runtime_.at(id).state;
  }
  [[nodiscard]] sim::Time predicted_arrival_of(std::uint32_t id) const {
    return runtime_.at(id).predicted_arrival;
  }
  [[nodiscard]] bool velocity_valid_of(std::uint32_t id) const {
    return runtime_.at(id).velocity_valid;
  }
  [[nodiscard]] geom::Vec2 velocity_of(std::uint32_t id) const {
    return runtime_.at(id).velocity;
  }

  [[nodiscard]] std::size_t count_in_state(NodeState s) const;

  [[nodiscard]] const ProtocolStats& stats() const noexcept { return stats_; }

  /// Total timer re-arms that displaced a still-pending firing, summed over
  /// every per-node timer — the kernel-facing cost of schedule revisions.
  [[nodiscard]] std::uint64_t timer_reschedules() const noexcept;

  [[nodiscard]] const ProtocolConfig& config() const noexcept { return config_; }
  /// The policy object driving this run (owned; resolved from
  /// config.policy via the registry at construction).
  [[nodiscard]] const SleepingPolicy& sleeping_policy() const noexcept {
    return *policy_;
  }

 private:
  struct Runtime {
    NodeState state = NodeState::kSafe;
    /// Per-node policy state (current sleeping interval, …) — the slab the
    /// SleepingPolicy hooks operate on; no policy-side allocation.
    PolicyNodeState policy;
    /// Reserved to the node's degree at construction, so folding in a
    /// RESPONSE never allocates.
    PeerTable table;
    geom::Vec2 velocity{};
    bool velocity_valid = false;
    sim::Time predicted_arrival = sim::kNever;
    sim::Time last_pushed_prediction = sim::kNever;
    sim::Time last_push_time = sim::kLongAgo;
    sim::Time last_seen_covered = sim::kNever;
    /// Alert recheck grid: the first instant neither run nor booked, and
    /// the instant recheck_timer is armed at. Both are kNever outside the
    /// alert state.
    sim::Time recheck_at = sim::kNever;
    sim::Time recheck_due = sim::kNever;
    bool awaiting_eval = false;
    // Reusable self-rescheduling handles: each captures its handler once at
    // start(); every re-arm afterwards schedules only an inline trampoline.
    sim::Timer wake_timer;
    sim::Timer eval_timer;
    sim::Timer recheck_timer;
    sim::Timer estimate_timer;
    sim::Timer covered_check_timer;
  };

  // Event handlers.
  void on_arrival(std::uint32_t i);
  void on_wake(std::uint32_t i);
  void on_safe_evaluate(std::uint32_t i);
  void on_alert_recheck(std::uint32_t i);
  void on_covered_estimate(std::uint32_t i);
  void on_covered_check(std::uint32_t i);
  void on_message(std::uint32_t i, const net::Message& msg);
  void on_failure(std::uint32_t i);

  // Actions.
  void detect(std::uint32_t i);
  void enter_alert(std::uint32_t i);
  void demote_to_safe(std::uint32_t i);
  void go_to_sleep(std::uint32_t i);
  void send_request(std::uint32_t i);
  void send_response(std::uint32_t i);
  void maybe_push_response(std::uint32_t i);
  /// Whether a push offered at `t` passes the rate limiter and the
  /// significance filter. Monotone in t for fixed push state and prediction.
  [[nodiscard]] bool push_due(const Runtime& rt, sim::Time t) const;
  /// Arms recheck_timer at the first grid instant from recheck_at where a
  /// recheck can change something, or earlier.
  void plan_recheck(std::uint32_t i);
  /// Books the grid instants ≤ `through` before the armed one.
  void book_rechecks(std::uint32_t i, sim::Time through);
  /// Recomputes expected velocity + predicted arrival from the peer table.
  void refresh_estimates(std::uint32_t i);
  void cancel_pending(std::uint32_t i);
  void set_state(std::uint32_t i, NodeState next);

  void trace(sim::TraceCategory cat, std::uint32_t i, sim::TraceKind kind);

  sim::Simulator& simulator_;
  net::Network& network_;
  std::vector<node::SensorNode>& nodes_;
  const stimulus::StimulusModel& model_;
  const stimulus::ArrivalMap& arrivals_;
  ProtocolConfig config_;
  std::unique_ptr<const SleepingPolicy> policy_;  // references config_
  const node::FailurePlan* failures_;
  sim::TraceLog* trace_;
  net::Collection* collection_;
  sim::Pcg32 wake_rng_;
  std::vector<Runtime> runtime_;
  ProtocolStats stats_;
  bool started_ = false;
};

}  // namespace pas::core
