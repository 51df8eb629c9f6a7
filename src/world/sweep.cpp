#include "world/sweep.hpp"

#include "runtime/parallel_for.hpp"

namespace pas::world {

metrics::RunMetrics run_replication(Workspace& workspace,
                                    const ScenarioConfig& base,
                                    std::size_t r) {
  ScenarioConfig cfg = base;
  cfg.seed = base.seed + r;
  cfg.enable_trace = false;  // traces are per-run debugging, not sweeps
  return workspace.run_metrics(cfg);
}

metrics::RunMetrics run_replication(const ScenarioConfig& base,
                                    std::size_t r) {
  Workspace workspace;
  return run_replication(workspace, base, r);
}

ReplicatedMetrics reduce_runs(std::vector<metrics::RunMetrics> runs) {
  if (runs.empty()) {
    throw std::invalid_argument("reduce_runs: need >= 1 replication");
  }
  ReplicatedMetrics out;
  std::vector<double> delays, energies, fractions;
  delays.reserve(runs.size());
  energies.reserve(runs.size());
  fractions.reserve(runs.size());
  double missed = 0.0, broadcasts = 0.0;
  for (const auto& m : runs) {
    delays.push_back(m.avg_delay_s);
    energies.push_back(m.avg_energy_j);
    fractions.push_back(m.avg_active_fraction);
    missed += static_cast<double>(m.missed);
    broadcasts += static_cast<double>(m.network.broadcasts);
  }
  out.delay_s = metrics::Summary::of(delays);
  out.energy_j = metrics::Summary::of(energies);
  out.active_fraction = metrics::Summary::of(fractions);
  out.mean_missed = missed / static_cast<double>(runs.size());
  out.mean_broadcasts = broadcasts / static_cast<double>(runs.size());
  out.runs = std::move(runs);
  return out;
}

ReplicatedMetrics run_replicated(const ScenarioConfig& base,
                                 std::size_t replications,
                                 runtime::ThreadPool* pool) {
  if (replications == 0) {
    throw std::invalid_argument("run_replicated: need >= 1 replication");
  }

  std::vector<metrics::RunMetrics> runs(replications);
  if (pool != nullptr) {
    // One workspace per worker's chunk: each worker re-seeds its own world
    // and solves the stimulus model (for the PDE, the whole solver) once,
    // instead of once per replication.
    runtime::parallel_for_ranges(
        *pool, replications,
        [&base, &runs](std::size_t begin, std::size_t end) {
          Workspace workspace;
          for (std::size_t r = begin; r < end; ++r) {
            runs[r] = run_replication(workspace, base, r);
          }
        });
  } else {
    Workspace workspace;
    for (std::size_t r = 0; r < replications; ++r) {
      runs[r] = run_replication(workspace, base, r);
    }
  }

  return reduce_runs(std::move(runs));
}

}  // namespace pas::world
