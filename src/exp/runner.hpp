// Sharded campaign execution.
//
// run_campaign() expands a manifest's grid, asks the aggregator which
// points already have rows (resume), and executes the rest as jobs on a
// runtime::ThreadPool. Every job derives its seeds from the manifest alone
// (see grid.hpp), so shard count, worker count, and scheduling order never
// change any number: `--jobs 1` and `--jobs 8` produce byte-identical
// output.
//
// Two scale-out directions compose with that guarantee:
//  * Process-level sharding (`shard_index`/`shard_count`): each process
//    owns the points with index ≡ shard_index (mod shard_count) — possibly
//    none — and writes an independently resumable output. merge_outputs()
//    imports the finished shard files into one row store, as resume
//    imports a campaign's own artifacts, and finalizes the unsharded bytes.
//  * Replication-level parallelism: when the pending points alone cannot
//    keep the pool busy, a point's replications are split into contiguous
//    sub-jobs that run concurrently and meet in an order-independent
//    reduction (world::reduce_runs), so a one-point 10k-replication study
//    still saturates every core.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/grid.hpp"
#include "exp/manifest.hpp"

namespace pas::serve {
class CampaignFeed;
}  // namespace pas::serve

namespace pas::exp {

struct CampaignOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = run serially in-line.
  std::size_t jobs = 0;
  /// Load `out_csv` (if present) and skip points that already have rows.
  /// Without this flag an existing output file is an error, not data loss.
  bool resume = false;
  /// CSV output path; empty aggregates in memory only (benches, tests).
  std::string out_csv;
  /// Optional JSON-lines mirror of every row.
  std::string out_json;
  /// Optional per-replication CSV (one row per run) for p95/p99 reporting.
  std::string per_run_csv;
  /// Optional telemetry JSONL (one row per point: kernel + protocol
  /// counters, sleep histogram; see exp/telemetry.hpp), kept in the row
  /// store with the CSV rows. Also arms the campaign rollup
  /// (exp::CampaignTelemetry) whose snapshot trails the file.
  std::string metrics_path;
  /// This process executes points with index ≡ shard_index (mod
  /// shard_count), none when shard_index is past the grid. The default 0/1
  /// runs the whole grid.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Invoked after each point completes (serialized; never concurrently).
  std::function<void(const PointSummary&, std::size_t done,
                     std::size_t total)>
      progress;
  /// Live-observability hub (serve/feed.hpp). When set, the campaign
  /// publishes begin/point/progress/end into it and, with metrics_path,
  /// pushes the rollup snapshot at the start and after every completed
  /// point. The feed only ever receives copies — attaching one cannot
  /// change a single output byte.
  serve::CampaignFeed* feed = nullptr;
  /// Polled between replication chunks; returning true stops the campaign
  /// gracefully: in-flight points finish or are abandoned whole (a partial
  /// point never produces a row), finalize is skipped, and the outputs are
  /// left exactly as resumable as after a kill. Null = never stop.
  std::function<bool()> should_stop;
};

struct CampaignReport {
  std::size_t total_points = 0;  // full grid, all shards
  std::size_t owned_points = 0;  // points this shard is responsible for
  std::size_t computed = 0;      // points simulated by this invocation
  std::size_t skipped = 0;       // points recovered from the resume file
  std::size_t replications = 0;
  std::size_t jobs = 0;  // worker threads used: options.jobs, 0 resolved
  double wall_s = 0.0;
  /// True when should_stop ended the campaign early; outputs are left
  /// resumable (no finalize pass ran).
  bool interrupted = false;
};

/// The AggregatorOptions of a campaign over `points` (the manifest's
/// expanded grid) writing the given artifacts; an empty path disables one.
/// run_campaign, pas-exp --export and both ends of --drive build their
/// Aggregator from it, so the rows a worker encodes are exactly the ones
/// the driver's store expects. Ownership is left to the caller.
[[nodiscard]] AggregatorOptions campaign_aggregator_options(
    const Manifest& manifest, const std::vector<GridPoint>& points,
    const std::string& out_csv, const std::string& out_json,
    const std::string& per_run_csv, const std::string& metrics_path);

/// Throws std::runtime_error if an artifact of `options`, or its row store,
/// exists: a campaign that does not resume must not write over another.
/// The message ends with `remedy`.
void refuse_existing_outputs(
    const AggregatorOptions& options,
    const std::string& remedy =
        "pass --resume to continue it or remove it to start over");

/// Executes the campaign (or this process's shard of it). Throws on
/// manifest/IO errors; a failing point's exception propagates after
/// in-flight jobs drain.
CampaignReport run_campaign(const Manifest& manifest,
                            const CampaignOptions& options);

/// Recombines finished shard files (pas-exp --merge) into the artifacts
/// `outputs` names — its csv_path (required), json_path, per_run_path and
/// metrics_path; the rest of the campaign's options come from `manifest`.
/// The inputs, in any order, are imported into one row store like a
/// resumed campaign's artifacts (Aggregator::load_existing(inputs)) and
/// exported by finalize(), so the artifacts are the bytes an unsharded run
/// writes; the --metrics file gets no trailer. Throws std::runtime_error if
/// an output or its store exists, if an input is unreadable, of another
/// kind or from another manifest, if two inputs overlap, or if any point is
/// still missing after the import; a failed merge leaves no artifact and
/// no store. Returns the number of merged points.
std::size_t merge_outputs(const Manifest& manifest,
                          const std::vector<std::string>& inputs,
                          const AggregatorOptions& outputs);

}  // namespace pas::exp
