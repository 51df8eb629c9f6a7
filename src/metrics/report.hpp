// Per-run metric extraction.
//
// The two paper metrics (§4.1):
//   * average detection delay  — mean over nodes of (detection − arrival);
//     active nodes contribute 0, sleeping nodes their wake-up lag;
//   * average energy consumption — mean per-node energy over the run,
//     controller + communication.
// plus enough breakdown (per-state energy, message counts, percentiles) to
// explain *why* a policy behaves as it does.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "net/collection.hpp"
#include "net/mac.hpp"
#include "net/network.hpp"
#include "node/sensor_node.hpp"
#include "sim/time.hpp"

namespace pas::metrics {

struct NodeOutcome {
  std::uint32_t id = 0;
  geom::Vec2 position{};
  sim::Time arrival = sim::kNever;
  sim::Time detected = sim::kNever;
  /// detected − arrival; only meaningful when detected (see `was_detected`).
  double delay_s = 0.0;
  bool was_reached = false;
  bool was_detected = false;
  bool failed = false;
  double energy_j = 0.0;
  double energy_sleep_j = 0.0;
  double energy_active_j = 0.0;
  double energy_tx_j = 0.0;
  double energy_transition_j = 0.0;
  // MAC line items (zero when the MAC is off).
  double energy_cca_j = 0.0;
  double energy_preamble_j = 0.0;
  double energy_listen_j = 0.0;
  double active_s = 0.0;
  double sleep_s = 0.0;
  std::uint64_t transitions = 0;
  std::uint64_t tx_count = 0;
};

/// Kernel-level counters for one run, lifted off the simulator after the
/// run drains. Everything here is a pure function of the schedule (and so
/// byte-deterministic across thread pools / sharding); the schedule-
/// dependent event-slab watermark is deliberately excluded.
struct KernelStats {
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t max_pending = 0;
  std::uint64_t timer_reschedules = 0;
  // Event-queue shape (ladder index): how the pending set organised itself.
  // Pure functions of the schedule like everything else here.
  std::uint64_t rung_spawns = 0;
  std::uint64_t bucket_resizes = 0;
  std::uint64_t max_bucket = 0;
  std::uint64_t dead_skips = 0;

  void add(const KernelStats& other) {
    events_scheduled += other.events_scheduled;
    events_dispatched += other.events_dispatched;
    events_cancelled += other.events_cancelled;
    max_pending = std::max(max_pending, other.max_pending);
    timer_reschedules += other.timer_reschedules;
    rung_spawns += other.rung_spawns;
    bucket_resizes += other.bucket_resizes;
    max_bucket = std::max(max_bucket, other.max_bucket);
    dead_skips += other.dead_skips;
  }
};

struct RunMetrics {
  std::size_t node_count = 0;
  double duration_s = 0.0;

  // Detection delay over reached-and-detected, non-failed nodes.
  double avg_delay_s = 0.0;
  double max_delay_s = 0.0;
  double p95_delay_s = 0.0;
  std::size_t reached = 0;
  std::size_t detected = 0;
  /// Reached early enough to have woken again, yet never detected — a real
  /// protocol miss.
  std::size_t missed = 0;
  /// Reached so close to the end of the run that a sleeping node need not
  /// have woken again (arrival after the censor cutoff) and undetected —
  /// right-censored, not a protocol failure.
  std::size_t censored = 0;

  // Energy over all nodes (failed nodes included up to their death).
  double avg_energy_j = 0.0;
  double total_energy_j = 0.0;
  double avg_energy_tx_j = 0.0;
  double avg_active_fraction = 0.0;  // share of the run spent active

  net::Network::Stats network{};
  core::ProtocolStats protocol{};
  /// Filled by world::Workspace after the run (summarize() leaves it
  /// zeroed — the summarizer never sees the simulator).
  KernelStats kernel{};
  /// Filled by world::Workspace when the MAC is enabled (all-zero
  /// otherwise — summarize() never sees the net layer's internals).
  net::MacStats mac{};
  net::CollectionStats collection{};
};

/// Builds outcome rows from finalized nodes. Call node.meter.finalize(end)
/// before this (run_scenario does).
[[nodiscard]] std::vector<NodeOutcome> collect_outcomes(
    const std::vector<node::SensorNode>& nodes);

/// Same, writing into a caller-owned buffer (cleared first) so replicated
/// runs through world::Workspace reuse one allocation.
void collect_outcomes(const std::vector<node::SensorNode>& nodes,
                      std::vector<NodeOutcome>& out);

/// Aggregates outcomes into the run-level metrics. Undetected nodes whose
/// arrival falls after `censor_cutoff_s` count as censored rather than
/// missed (run_scenario passes duration − max-sleep − slack; pass
/// `duration_s` to disable censoring).
[[nodiscard]] RunMetrics summarize(const std::vector<NodeOutcome>& outcomes,
                                   double duration_s, double censor_cutoff_s,
                                   const net::Network::Stats& network,
                                   const core::ProtocolStats& protocol);

}  // namespace pas::metrics
