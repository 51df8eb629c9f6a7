// Replicated scenario execution.
//
// One simulation run is single-threaded by construction; a sweep point is
// averaged over R replications (same scenario, seeds base..base+R−1), and
// replications run concurrently on a ThreadPool — the HPC shape of this
// library: embarrassingly parallel replications around a serial kernel.
#pragma once

#include <optional>
#include <vector>

#include "metrics/stats.hpp"
#include "runtime/thread_pool.hpp"
#include "world/scenario.hpp"
#include "world/workspace.hpp"

namespace pas::world {

struct ReplicatedMetrics {
  metrics::Summary delay_s;       // of per-run average detection delay
  metrics::Summary energy_j;      // of per-run average per-node energy
  metrics::Summary active_fraction;
  double mean_missed = 0.0;       // reached-but-undetected nodes per run
  double mean_broadcasts = 0.0;
  std::vector<metrics::RunMetrics> runs;
};

/// Runs replication `r` of `base` — seed base.seed + r, traces disabled —
/// the unit of work the campaign runner schedules. Exposed so the engine's
/// replication-split path and run_replicated share one definition of what
/// "replication r" means. The workspace overload reuses `workspace`'s
/// buffers and cached stimulus model (identical results); the plain
/// overload builds a throwaway workspace per call.
[[nodiscard]] metrics::RunMetrics run_replication(Workspace& workspace,
                                                  const ScenarioConfig& base,
                                                  std::size_t r);
[[nodiscard]] metrics::RunMetrics run_replication(const ScenarioConfig& base,
                                                  std::size_t r);

/// Reduces per-run metrics (indexed by replication) into the replicated
/// aggregate. Order-independent by construction: `runs` is already in
/// replication order no matter which thread produced which entry, so any
/// parallel schedule yields the same numbers as the serial loop.
[[nodiscard]] ReplicatedMetrics reduce_runs(
    std::vector<metrics::RunMetrics> runs);

/// Runs `replications` copies of `base` with seeds base.seed + r. When
/// `pool` is non-null the replications execute in parallel (results are
/// ordered by replication index either way, so output is deterministic).
[[nodiscard]] ReplicatedMetrics run_replicated(
    const ScenarioConfig& base, std::size_t replications,
    runtime::ThreadPool* pool = nullptr);

}  // namespace pas::world
