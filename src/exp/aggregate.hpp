// Resumable campaign aggregation.
//
// The Aggregator owns the campaign's output files. Completed points stream
// in (from any thread, in any order) and are appended to a binary ".pasrows"
// row store (see row_store.hpp) next to the CSV, with a flush per point, so
// a killed campaign leaves a valid, loadable record of everything it
// finished. On resume the aggregator scans that store and reports which
// points are already done; the runner then schedules only the rest. The
// aggregator itself keeps only an O(grid) completion bitmap.
//
// A point's rows reach the store as one encoded batch (encode_point). In a
// single process record() encodes and appends it; under --drive each
// worker encodes its points with an Aggregator built from the same options
// and sends the bytes, and the driver's Aggregator checks and appends them
// with record_encoded(). Either way the store holds the same records, so a
// campaign resumes the same whichever topology wrote it.
//
// finalize()/compact() render the CSV, the optional JSON-lines mirror, the
// optional per-replication CSV and the optional --metrics telemetry JSONL
// through an external-merge export — sorted spill runs of bounded size,
// k-way merged by (point, rep) — so the artifacts come out in point order,
// byte-identical no matter how many threads produced them or how many
// times the campaign was resumed, and memory stays O(spill budget) however
// large the campaign is. In flight the store is the ground truth (the
// artifacts only materialize at export); finalize deletes the store, and
// resuming from bare artifacts imports their rows into a fresh store first.
//
// A point is done when its summary, its per-run group (with per-run
// output) and its telemetry row (with --metrics output) are all live in
// the store; anything less is recomputed, and the export renders exactly
// the done points.
//
// Sharding: a campaign may be split across processes/machines with
// `owned_points` — each shard aggregates only its own subset of the grid
// into its own files. merge_outputs() (runner.hpp) recombines the finished
// shard files the way resume recovers a campaign's own artifacts: it
// imports them into one store through load_existing(inputs) and renders
// the unsharded bytes with finalize().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/grid.hpp"
#include "exp/row_store.hpp"
#include "io/json.hpp"
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
  /// Optional --metrics telemetry JSONL (one row per point, see
  /// telemetry.hpp); requires csv_path. Points are then recorded through
  /// record(GridPoint, ...), which renders the row.
  std::string metrics_path;
  std::vector<std::string> axis_names;
  std::size_t total_points = 0;
  /// Replications per point; only consulted when per_run_path is set.
  std::size_t replications = 0;
  /// Each point's expected {seed, axis values...} cells; resume uses it to
  /// reject rows computed under a different manifest. Empty disables the
  /// check (unit tests); the runner always passes it from the grid.
  std::vector<std::vector<std::string>> expected_identity;
  /// Point indices this shard owns; unset means every point, and an empty
  /// list none (a shard past the end of a small grid). pending()/finalize()
  /// consider only owned points, and resume rejects rows for foreign points
  /// (they signal a wrong --shard/--out pairing).
  std::optional<std::vector<std::size_t>> owned_points;
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

  /// Loads completed points from the existing row store (resume), or —
  /// when there is no store but a finalized artifact is on disk — imports
  /// the CSV, per-run CSV and --metrics file into a fresh store first.
  /// Throws std::runtime_error if the store was written for another
  /// campaign, if a CSV's header does not match this campaign's columns, if
  /// a recovered row's seed/axis values (or replication count) disagree
  /// with the expected identity, if a row belongs to a point outside this
  /// shard, or if an imported row repeats one already imported (all are
  /// manifest/output mismatches: resuming would silently produce wrong
  /// data). A failed import leaves no store behind. Torn rows, --metrics
  /// trailers and unparsable lines are dropped, and points that are not
  /// done (above) are recomputed. Returns the number of points recovered.
  /// Call before the first record().
  std::size_t load_existing();

  /// load_existing() importing `inputs` instead of the campaign's own
  /// artifacts when no store exists (pas-exp --merge). Each file is
  /// classified by its first non-blank line — this campaign's summary
  /// header, its per-run header, or a JSON object of kind "point" or
  /// "registry" (a --metrics file) — and read like the artifact of that
  /// kind; the inputs may come in any order and need not be sorted. Throws
  /// std::runtime_error naming the file for an unreadable input, for
  /// anything else (a --json mirror included), and for a per-run or
  /// --metrics input when this aggregator writes no such artifact.
  std::size_t load_existing(const std::vector<std::string>& inputs);

  /// True if `point` already has a row (recorded now or recovered).
  [[nodiscard]] bool is_done(std::size_t point) const;

  /// Owned indices with no row yet, ascending.
  [[nodiscard]] std::vector<std::size_t> pending() const;

  /// Records one completed point. Thread-safe; appends + flushes the point's
  /// rows to the store so they survive a kill. Renders the point's
  /// telemetry row when a metrics path is set. Throws std::logic_error for
  /// a point outside the grid or the shard.
  void record(const GridPoint& point, const world::ReplicatedMetrics& m);

  /// record() for callers without a GridPoint (benches, synthetic drivers).
  /// `axis_values` must align with the axis_names given at construction.
  /// Throws std::logic_error when a metrics path is set: the telemetry row
  /// needs the point's scenario.
  void record(std::size_t point, std::uint64_t seed,
              const std::vector<std::string>& axis_values,
              const world::ReplicatedMetrics& m);

  /// The point's batch in .pasrows framing (RowStore::encode): its per-run
  /// rows, its telemetry row, then its summary, exactly the bytes record()
  /// appends. Touches no file. Throws std::logic_error like record().
  [[nodiscard]] std::string encode_point(
      const GridPoint& point, const world::ReplicatedMetrics& m) const;

  /// Appends a batch encode_point() rendered, possibly in another process.
  /// Throws std::runtime_error, and leaves the point pending, unless
  /// `bytes` decode into one complete batch for `point` under these
  /// options: replications 0..R-1 with per-run output, the telemetry row
  /// with a metrics path, and the summary last, every row at full width,
  /// the summary carrying the point's expected seed, axis values and
  /// replication count. Thread-safe.
  void record_encoded(std::size_t point, std::string_view bytes);

  /// Exports the artifacts in point order (temp file + atomic rename) and
  /// deletes the store; `trailers` follow the point rows of the --metrics
  /// file. Requires every owned point recorded; throws std::logic_error
  /// otherwise.
  void finalize(const std::vector<io::Json>& trailers = {});

  /// finalize() without the completeness requirement or trailers: exports
  /// whatever is recorded so far in point order and keeps the store
  /// (pas-exp --export over an interrupted campaign).
  void compact();

  [[nodiscard]] std::size_t done_count() const;
  [[nodiscard]] std::size_t total_points() const noexcept { return total_points_; }
  /// Number of points this shard owns (== total_points() unsharded).
  [[nodiscard]] std::size_t owned_count() const noexcept {
    return owned_count_;
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
    return point < owned_.size() && owned_[point] != 0;
  }
  /// A file to import and the artifact it holds.
  struct Import {
    std::string path;
    RowStore::Kind kind;
  };
  /// The body of both load_existing() overloads.
  std::size_t load(const std::vector<Import>& imports);
  /// Shared CSV reader for the import: header validation, torn-row
  /// dropping, bounds and shard-ownership checks; `on_row` receives each
  /// surviving row's (point, rep, cells) — rep is 0 for a summary CSV.
  void read_csv_rows(
      const Import& file,
      const std::function<void(std::size_t, std::size_t,
                               std::vector<std::string>)>& on_row);
  /// True if a summary row's seed, axis and replication cells match the
  /// point's expected identity (always, without one).
  [[nodiscard]] bool summary_identity_matches(
      std::size_t point, const std::vector<std::string>& cells) const;
  /// Streams the identity-checked rows of `files` into a temporary store
  /// and renames it into place once the whole import succeeded; a row
  /// whose (kind, point, rep) was already imported is an error. The store
  /// scan then applies the done rule.
  void import_artifacts(const std::vector<Import>& files);
  /// Renders a point's batch; `grid_point` is null for the index-based
  /// record(), which has no telemetry row.
  [[nodiscard]] std::string encode_batch(
      std::size_t point, std::uint64_t seed,
      const std::vector<std::string>& axis_values,
      const world::ReplicatedMetrics& m, const GridPoint* grid_point) const;
  /// Appends a checked batch and marks the point done; a no-op for a point
  /// that is done already.
  void append_batch(std::size_t point, std::string_view batch);
  /// Creates/opens the store lazily. Caller must hold mutex_.
  void ensure_store();
  /// External-merge export of the artifacts (spill runs + k-way merge);
  /// `trailers` end the --metrics file. Caller must hold mutex_.
  void export_store(const std::vector<io::Json>& trailers);

  std::string csv_path_;
  std::string json_path_;
  std::string per_run_path_;
  std::string metrics_path_;
  std::vector<std::string> axis_names_;
  std::size_t total_points_ = 0;
  std::size_t replications_ = 0;
  std::vector<std::string> columns_;
  std::vector<std::string> per_run_columns_;
  std::vector<std::vector<std::string>> expected_identity_;
  /// Ownership bitmap indexed by point.
  std::vector<std::uint8_t> owned_;
  std::size_t owned_count_ = 0;

  /// Empty exactly when csv_path_ is (in-memory aggregation).
  std::string store_path_;
  std::size_t spill_budget_bytes_ = 0;
  std::uint64_t identity_hash_ = 0;

  mutable std::mutex mutex_;
  bool loaded_ = false;
  /// The open row store (no row content is held in memory) plus the O(grid)
  /// completion bitmap indexed by point.
  std::unique_ptr<RowStore> store_;
  std::vector<std::uint8_t> done_;
  std::size_t done_count_ = 0;
};

}  // namespace pas::exp
