// Campaign telemetry rows (pas-exp --metrics).
//
// One JSONL row per completed grid point. The Aggregator (aggregate.hpp)
// renders it with telemetry_point_row() and keeps it in the campaign's row
// store as the point's telemetry record, so the --metrics file shares the
// CSV's crash safety, resume rule and point-sorted export; one trailer row
// (CampaignTelemetry's rollup, or a drive's wall-clock instruments)
// follows the point rows at finalize.
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
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "exp/grid.hpp"
#include "io/json.hpp"
#include "world/scenario.hpp"
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

/// The campaign rollup behind the `scope:"campaign"` trailer and
/// /api/metrics: the run telemetry of every point this invocation
/// computes, folded into campaign totals and per-policy protocol counters.
/// Thread-safe: pool threads add() the points they complete.
class CampaignTelemetry {
 public:
  /// Seeds a zero entry for every policy of `points` (the whole grid, so a
  /// policy none of whose points is computed still reports zeros) and
  /// arms the net.* entries if any point runs the MAC.
  explicit CampaignTelemetry(const std::vector<GridPoint>& points);

  void add(const GridPoint& point, const world::ReplicatedMetrics& m);

  /// {"scope":"campaign","instruments":{name: value}}: counters as
  /// numbers, the kernel's two high-water marks as maxima, the policies'
  /// sleep histograms as obs::histogram_json objects.
  [[nodiscard]] io::Json snapshot() const;

 private:
  mutable std::mutex mutex_;
  bool mac_ = false;
  std::uint64_t points_ = 0;
  world::RunTelemetry total_;
  std::map<core::Policy, core::ProtocolStats> policies_;
};

}  // namespace pas::exp
