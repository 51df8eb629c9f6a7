// The traced pass: per-layer spans and counts.
//
// A span can only wrap a call the benchmark makes, and exp::run_campaign hides
// its inner calls. So the traced pass rebuilds the campaign's jobs-1 loop
// from the same public pieces, in the same order:
//
//   run_replication (world) -> reduce_runs (world) -> Aggregator::record
//   (exp) ... -> Aggregator::finalize (exp)
//
// and times each call. Its artifacts must be byte-identical to the untraced
// run_campaign output of the same run, or the run fails: otherwise the
// spans could be measuring a different program. The same loop on a
// runtime::ThreadPool of two workers measures the runtime layer.
//
// Set-up costs that happen inside run_replication (deployment,
// connectivity, arrival map, Network::reset) are measured by replaying
// those public calls on the same seeds afterwards. Core, net and sim time
// inside Simulator::run_until cannot be split from outside; those layers
// get exact counts and ratios from the replications' RunMetrics.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// Measures every per-layer metric of the workload in `args` (see
/// perfbench/README.md for the list) and checks trace fidelity and count
/// determinism. Same result shape as the untraced run.
[[nodiscard]] pas::io::Json run_traced(const Args& args);

}  // namespace perfbench
