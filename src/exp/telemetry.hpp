// Campaign telemetry rows (pas-exp --metrics).
//
// One JSONL row per completed grid point. The Aggregator (aggregate.hpp)
// renders it with telemetry_point_row() and keeps it in the campaign's row
// store as the point's telemetry record, so the --metrics file shares the
// CSV's crash safety, resume rule and point-sorted export; trailer rows (a
// campaign-wide registry snapshot, the orchestrator's wall-clock
// instruments) follow the point rows at finalize.
//
// A point row is a pure function of the point's identity and its
// replications' RunMetrics, so `--jobs 1`, `--jobs 8`, `--shard`, and
// `--drive` all produce identical point rows; only wall-clock trailer
// content (orchestrator latencies) may differ between schedules. Shard
// files recombine through the same store: pas-exp --merge imports them
// with parse_point_row() like a resume and exports the rows without a
// trailer (exp::merge_outputs, runner.hpp).
//
// Row schema (keys sorted by io::Json):
//   {"kind":"point","point":N,"seed":"<u64>","replications":R,
//    "policy":"PAS","axes":{...},"kernel":{...},"protocol":{...}}
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "io/json.hpp"
#include "world/sweep.hpp"

namespace pas::exp {

/// Builds the per-point telemetry row from a point's replicated runs.
[[nodiscard]] io::Json telemetry_point_row(
    const GridPoint& point, const std::vector<std::string>& axis_names,
    const world::ReplicatedMetrics& m);

/// Parses one JSONL line as a point row. Returns its point index, or
/// SIZE_MAX for anything else: blank or unparsable lines, trailer rows, and
/// indices at or beyond `total_points` (0 = unbounded). `out` (may be null)
/// receives the parsed row.
[[nodiscard]] std::size_t parse_point_row(const std::string& line,
                                          std::size_t total_points,
                                          io::Json* out);

}  // namespace pas::exp
