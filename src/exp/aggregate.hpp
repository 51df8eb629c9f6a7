// Resumable campaign aggregation.
//
// The Aggregator owns the campaign's output files. Completed points stream
// in (from any thread, in any order) and are appended to a binary ".pasrows"
// row store (see row_store.hpp) next to the CSV, with a flush per point, so
// a killed campaign leaves a valid, loadable record of everything it
// finished. On resume the aggregator scans that store and reports which
// points are already done; the runner then schedules only the rest. The
// aggregator itself keeps only an O(grid) completion bitmap plus the
// summaries recorded by this process.
//
// finalize()/compact() render the CSV, the optional JSON-lines mirror and
// the optional per-replication CSV through an external-merge export —
// sorted spill runs of bounded size, k-way merged by (point, rep) — so the
// artifacts come out in point order, byte-identical no matter how many
// threads produced them or how many times the campaign was resumed, and
// memory stays O(spill budget) however large the campaign is. In flight the
// store is the ground truth (the CSV only materializes at export); finalize
// deletes the store, and resuming from a bare CSV imports its rows into a
// fresh store first.
//
// Sharding: a campaign may be split across processes/machines with
// `owned_points` — each shard aggregates only its own subset of the grid
// into its own files, and merge_outputs() recombines the finalized shard
// files into the exact bytes an unsharded run would have written.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exp/manifest.hpp"
#include "exp/row_store.hpp"
#include "world/sweep.hpp"

namespace pas::exp {

/// One grid point's aggregate over its replications — ReplicatedMetrics
/// minus the per-run vector, cheap enough to keep for 10k-point campaigns.
struct PointSummary {
  std::size_t point = 0;
  std::uint64_t seed = 0;
  std::size_t replications = 0;
  metrics::Summary delay_s;
  metrics::Summary energy_j;
  metrics::Summary active_fraction;
  double mean_missed = 0.0;
  double mean_broadcasts = 0.0;

  [[nodiscard]] static PointSummary of(std::size_t point, std::uint64_t seed,
                                       const world::ReplicatedMetrics& m);
};

struct AggregatorOptions {
  /// CSV output path; empty aggregates in memory only (benches, tests).
  std::string csv_path;
  /// Optional JSON-lines mirror of every row.
  std::string json_path;
  /// Optional per-replication CSV (one row per run); requires
  /// `replications` so resume can tell complete groups from torn ones.
  std::string per_run_path;
  std::vector<std::string> axis_names;
  std::size_t total_points = 0;
  /// Replications per point; only consulted when per_run_path is set.
  std::size_t replications = 0;
  /// Each point's expected {seed, axis values...} cells; resume uses it to
  /// reject rows computed under a different manifest. Empty disables the
  /// check (unit tests); the runner always passes it from the grid.
  std::vector<std::vector<std::string>> expected_identity;
  /// Point indices this shard owns, ascending. Empty means all points.
  /// pending()/finalize() consider only owned points, and resume rejects
  /// rows for foreign points (they signal a wrong --shard/--out pairing).
  std::vector<std::size_t> owned_points;
  /// Binary row-store path; empty means RowStore::path_for(csv_path).
  /// Setting it requires csv_path.
  std::string store_path;
  /// Spill-buffer budget for the external-merge export, in bytes.
  /// 0 selects the default (32 MiB); tests shrink it to force multi-run
  /// spills on small campaigns.
  std::size_t spill_budget_bytes = 0;
};

class Aggregator {
 public:
  explicit Aggregator(AggregatorOptions options);

  /// Convenience constructor for the common no-shard, no-per-run case.
  Aggregator(std::string csv_path, std::string json_path,
             std::vector<std::string> axis_names, std::size_t total_points,
             std::vector<std::vector<std::string>> expected_identity = {});

  /// Loads completed points from the existing row store (resume), or —
  /// when there is no store but a CSV is on disk — imports the CSV (and
  /// per-run CSV) into a fresh store first. Throws std::runtime_error if
  /// the store was written for another campaign, if a CSV's header does not
  /// match this campaign's columns, if a recovered row's seed/axis values
  /// disagree with the expected identity, or if a row belongs to a point
  /// outside this shard (all are manifest/output mismatches: resuming
  /// would silently produce wrong data). A failed import leaves no store
  /// behind. A point whose per-run rows are missing or torn is dropped and
  /// recomputed. Returns the number of points recovered. Call before the
  /// first record().
  std::size_t load_existing();

  /// True if `point` already has a row (recorded now or recovered).
  [[nodiscard]] bool is_done(std::size_t point) const;

  /// Owned indices with no row yet, ascending.
  [[nodiscard]] std::vector<std::size_t> pending() const;

  /// Records one completed point. Thread-safe; appends + flushes the point's
  /// rows to the store so they survive a kill. `axis_values` must align
  /// with the axis_names given at construction. Throws std::logic_error for
  /// a point outside the grid or the shard.
  void record(std::size_t point, std::uint64_t seed,
              const std::vector<std::string>& axis_values,
              const world::ReplicatedMetrics& m);

  /// Exports the artifacts in point order (temp file + atomic rename) and
  /// deletes the store. Requires every owned point recorded; throws
  /// std::logic_error otherwise.
  void finalize();

  /// finalize() without the completeness requirement: exports whatever is
  /// recorded so far in point order and keeps the store. Orchestrator
  /// workers call this on clean shutdown so a part file is always sorted
  /// and free of torn rows even though the worker owns only the leases it
  /// happened to receive.
  void compact();

  /// Forgets the given points (recorded or recovered) by appending a
  /// tombstone per point to the store; the next export leaves them out. The
  /// orchestrator's crash recovery uses this to drop rows that a dead
  /// worker wrote for a point another worker already completed — the
  /// duplicate would otherwise poison merge_outputs().
  void discard_points(const std::vector<std::size_t>& points);

  /// Point indices that currently have a row, ascending.
  [[nodiscard]] std::vector<std::size_t> done_points() const;

  [[nodiscard]] std::size_t done_count() const;
  [[nodiscard]] std::size_t total_points() const noexcept { return total_points_; }
  /// Number of points this shard owns (== total_points() unsharded).
  [[nodiscard]] std::size_t owned_count() const noexcept {
    return owned_.empty() ? total_points_ : owned_count_;
  }

  /// Summaries recorded *this process* (resumed rows are not re-parsed into
  /// summaries), keyed by point index.
  [[nodiscard]] const std::map<std::size_t, PointSummary>& summaries() const noexcept {
    return summaries_;
  }

  /// Full column list: "point", "seed", the axis columns, then metrics.
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }

  /// Per-run column list: "point", "rep", "seed", axes, per-run metrics.
  [[nodiscard]] const std::vector<std::string>& per_run_columns() const noexcept {
    return per_run_columns_;
  }

  /// The metric column names shared by every campaign CSV.
  [[nodiscard]] static std::vector<std::string> metric_columns();

  /// The metric column names of the per-replication CSV.
  [[nodiscard]] static std::vector<std::string> per_run_metric_columns();

 private:
  [[nodiscard]] std::string json_line(const std::vector<std::string>& cells) const;
  [[nodiscard]] bool owns(std::size_t point) const {
    return owned_.empty() || (point < owned_.size() && owned_[point] != 0);
  }
  /// Shared CSV reader for the import: header validation, torn-row
  /// dropping, bounds and shard-ownership checks; `on_row` receives each
  /// surviving row's (point, rep, cells) — rep is 0 when key_arity is 1.
  void read_csv_rows(
      const std::string& path, const std::vector<std::string>& want_header,
      const char* flag_hint, std::size_t key_arity,
      const std::function<void(std::size_t, std::size_t,
                               std::vector<std::string>)>& on_row);
  /// Streams the identity-checked rows of an existing CSV (and per-run
  /// CSV) into a temporary store and renames it into place once the whole
  /// import succeeded. The store scan then applies the torn-group rule.
  void import_csv();
  /// Creates/opens the store lazily. Caller must hold mutex_.
  void ensure_store();
  /// External-merge export of the CSV/JSONL/per-run artifacts (spill runs
  /// + k-way merge). Caller must hold mutex_.
  void export_store();

  std::string csv_path_;
  std::string json_path_;
  std::string per_run_path_;
  std::size_t axis_count_ = 0;
  std::size_t total_points_ = 0;
  std::size_t replications_ = 0;
  std::vector<std::string> columns_;
  std::vector<std::string> per_run_columns_;
  std::vector<std::vector<std::string>> expected_identity_;
  /// Ownership bitmap indexed by point; empty means "owns everything".
  std::vector<std::uint8_t> owned_;
  std::size_t owned_count_ = 0;

  /// Empty exactly when csv_path_ is (in-memory aggregation).
  std::string store_path_;
  std::size_t spill_budget_bytes_ = 0;
  std::uint64_t identity_hash_ = 0;

  mutable std::mutex mutex_;
  std::map<std::size_t, PointSummary> summaries_;
  bool loaded_ = false;
  /// The open row store (no row content is held in memory) plus the O(grid)
  /// completion bitmap indexed by point.
  std::unique_ptr<RowStore> store_;
  std::vector<std::uint8_t> done_;
  std::size_t done_count_ = 0;
};

/// Recombines finalized shard outputs into `out_path`, byte-identical to
/// the file an unsharded run would have produced. All inputs must carry an
/// identical header; every (point, rep) may appear in exactly one input;
/// the merged point set must be gap-free from 0. Works for both the
/// point-summary CSV and the per-run CSV (recognized by its "rep" column).
///
/// Each input must be sorted by (point, rep) — finalized and compacted
/// outputs always are — and the merge streams them in one pass; an input
/// out of order is a std::runtime_error naming the file.
///
/// When `manifest` is non-null the merge additionally validates the inputs
/// against it: the header must match the manifest's output columns, every
/// row's seed/axis cells must match the expanded grid, and the merged file
/// must cover the full grid — so shards of *different* manifests (or stale
/// outputs) are rejected instead of silently combined.
///
/// Returns the number of merged data rows.
std::size_t merge_outputs(const std::vector<std::string>& inputs,
                          const std::string& out_path,
                          const Manifest* manifest = nullptr);

}  // namespace pas::exp
