#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/feed.hpp"
#include "world/sweep.hpp"

namespace pas::exp {

namespace {

/// Replications per sub-job. Whole points when the pending grid alone
/// saturates the pool (cheapest schedule); otherwise contiguous chunks
/// sized so roughly 2×jobs sub-jobs exist, which keeps every core busy on
/// replication-heavy, point-poor campaigns. Chunking never changes output:
/// runs land in a replication-indexed buffer reduced in index order.
std::size_t auto_rep_chunk(std::size_t pending_points, std::size_t reps,
                           std::size_t jobs) {
  if (pending_points == 0 || jobs <= 1 || pending_points >= jobs * 2) {
    return reps;
  }
  const std::size_t jobs_per_point =
      (jobs * 2 + pending_points - 1) / pending_points;
  return std::max<std::size_t>(1, (reps + jobs_per_point - 1) / jobs_per_point);
}

/// One pending point's in-flight state: the replication-indexed result
/// buffer and the number of sub-jobs still running. The last sub-job to
/// finish owns the reduction — an order-independent meeting point, since
/// every earlier sub-job only wrote its own disjoint slice of `runs`.
/// The buffer is allocated by whichever sub-job starts first (alloc) and
/// released by the reduction, so a big campaign holds buffers only for
/// the handful of points actually in flight, not the whole pending grid.
struct PointTask {
  const GridPoint* point = nullptr;
  std::vector<metrics::RunMetrics> runs;
  std::once_flag alloc;
  std::atomic<std::size_t> remaining{0};
  /// Set when a graceful stop lands before the point's last chunk ran: the
  /// point is abandoned whole (no reduction, no row), keeping the output
  /// resumable and the no-partial-points invariant intact.
  std::atomic<bool> aborted{false};
};

/// The compact JSON row published per completed point through the feed
/// (/api/points and the "point" SSE event). Summary means only — the full
/// row lives in the CSV; the feed is a live view, not a second output.
std::string feed_point_row(const GridPoint& point, std::size_t replications,
                           const PointSummary& summary) {
  io::JsonObject row;
  row["point"] = point.index;
  row["seed"] = std::to_string(point.seed);
  row["replications"] = replications;
  row["delay_mean_s"] = summary.delay_s.mean;
  row["energy_mean_j"] = summary.energy_j.mean;
  row["active_fraction_mean"] = summary.active_fraction.mean;
  row["mean_missed"] = summary.mean_missed;
  row["mean_broadcasts"] = summary.mean_broadcasts;
  return io::Json(std::move(row)).dump();
}

}  // namespace

AggregatorOptions campaign_aggregator_options(
    const Manifest& manifest, const std::vector<GridPoint>& points,
    const std::string& out_csv, const std::string& out_json,
    const std::string& per_run_csv, const std::string& metrics_path) {
  AggregatorOptions options;
  options.csv_path = out_csv;
  options.json_path = out_json;
  options.per_run_path = per_run_csv;
  options.metrics_path = metrics_path;
  options.axis_names = axis_columns(manifest);
  options.total_points = points.size();
  options.replications = manifest.replications;
  // Resume rejects rows produced by a different manifest via the expected
  // per-point identity cells.
  options.expected_identity = grid_identity(points);
  return options;
}

void refuse_existing_outputs(const AggregatorOptions& options,
                             const std::string& remedy) {
  // In flight the rows live in the row store next to the CSV (the CSV only
  // materializes at finalize), so the store counts as existing output too.
  const std::string store_path =
      options.csv_path.empty() ? std::string()
                               : RowStore::path_for(options.csv_path);
  for (const auto& path : {options.csv_path, options.json_path,
                           options.per_run_path, options.metrics_path,
                           store_path}) {
    if (!path.empty() && std::filesystem::exists(path)) {
      throw std::runtime_error(path + " exists; " + remedy);
    }
  }
}

CampaignReport run_campaign(const Manifest& manifest,
                            const CampaignOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  manifest.validate();
  if (options.shard_count == 0) {
    throw std::invalid_argument("run_campaign: shard_count must be >= 1");
  }
  if (options.shard_index >= options.shard_count) {
    throw std::invalid_argument(
        "run_campaign: shard_index must be < shard_count");
  }
  const auto points = expand_grid(manifest);

  AggregatorOptions agg_options = campaign_aggregator_options(
      manifest, points, options.out_csv, options.out_json,
      options.per_run_csv, options.metrics_path);
  if (!options.resume) refuse_existing_outputs(agg_options);
  if (options.shard_count > 1) {
    // Empty when the shard index is past the grid: the shard computes
    // nothing and finalizes header-only artifacts.
    auto& owned = agg_options.owned_points.emplace();
    for (std::size_t p = options.shard_index; p < points.size();
         p += options.shard_count) {
      owned.push_back(p);
    }
  }
  Aggregator aggregator(std::move(agg_options));
  const std::size_t recovered = aggregator.load_existing();
  const auto pending = aggregator.pending();

  serve::CampaignFeed* const feed = options.feed;
  if (feed != nullptr) {
    feed->begin_campaign(manifest.name, aggregator.owned_count(),
                         manifest.replications, recovered);
  }

  // Telemetry: the aggregator stores a point row per point, and a
  // campaign rollup folds the points for the trailer and /api/metrics.
  // Both are armed only when --metrics was given, and nothing in the
  // simulation path ever sees either (run_replication is telemetry-blind),
  // so metrics on/off cannot change a single output byte.
  std::optional<CampaignTelemetry> telemetry;
  if (!options.metrics_path.empty()) {
    telemetry.emplace(points);
    if (feed != nullptr) feed->set_metrics(telemetry->snapshot());
  }

  const std::size_t reps = manifest.replications;
  const std::size_t jobs =
      options.jobs != 0
          ? options.jobs
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t chunk = auto_rep_chunk(pending.size(), reps, jobs);
  const std::size_t chunks_per_point = (reps + chunk - 1) / chunk;

  std::vector<PointTask> tasks(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    tasks[i].point = &points[pending[i]];
    tasks[i].remaining.store(chunks_per_point, std::memory_order_relaxed);
  }

  std::mutex progress_mutex;
  const auto finish_point = [&](PointTask& task) {
    const GridPoint& point = *task.point;
    const auto metrics = world::reduce_runs(std::move(task.runs));
    aggregator.record(point, metrics);
    if (telemetry) telemetry->add(point, metrics);
    if (options.progress || feed != nullptr) {
      const std::lock_guard lock(progress_mutex);
      const auto summary = PointSummary::of(point.index, point.seed, metrics);
      const std::size_t done = aggregator.done_count();
      const std::size_t owned = aggregator.owned_count();
      if (options.progress) options.progress(summary, done, owned);
      if (feed != nullptr) {
        feed->point_done(feed_point_row(point, reps, summary));
        // Pushed under this lock, each snapshot taken after its own fold:
        // the last push holds every completed point.
        if (telemetry) feed->set_metrics(telemetry->snapshot());
        feed->progress_tick(done == owned);
      }
    }
  };
  // Inline (jobs==1) chunks run on the caller's thread and use this
  // campaign-scoped workspace; pool chunks use a per-worker thread_local
  // whose lifetime is the pool's (run_campaign owns the pool, so nothing
  // outlives the campaign). Either way replications re-seed a kept-warm
  // world, and the stimulus-model cache carries across points that share a
  // stimulus — for PDE campaigns that drops a full solver integration per
  // replication.
  world::Workspace inline_workspace;
  const auto stop_requested = [&options] {
    return options.should_stop && options.should_stop();
  };
  const auto run_chunk = [&](PointTask& task, std::size_t begin,
                             std::size_t end, world::Workspace* caller_ws) {
    // Graceful stop is checked at chunk granularity: a chunk either runs
    // whole or not at all, and an abandoned point (any chunk skipped)
    // never reduces into a row — the output stays resumable.
    if (stop_requested()) task.aborted.store(true, std::memory_order_relaxed);
    if (!task.aborted.load(std::memory_order_relaxed)) {
      std::call_once(task.alloc, [&task, reps] { task.runs.resize(reps); });
      world::Workspace& workspace = [&]() -> world::Workspace& {
        if (caller_ws != nullptr) return *caller_ws;
        static thread_local world::Workspace pool_workspace;
        return pool_workspace;
      }();
      for (std::size_t r = begin; r < end; ++r) {
        task.runs[r] = world::run_replication(workspace, task.point->config, r);
      }
    }
    // acq_rel: the final decrement must observe every other chunk's writes
    // to task.runs before reducing them.
    if (task.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        !task.aborted.load(std::memory_order_acquire)) {
      finish_point(task);
    }
  };

  if (options.jobs == 1) {
    for (auto& task : tasks) {
      if (stop_requested()) break;
      for (std::size_t begin = 0; begin < reps; begin += chunk) {
        run_chunk(task, begin, std::min(reps, begin + chunk),
                  &inline_workspace);
      }
    }
  } else {
    runtime::ThreadPool pool(jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(tasks.size() * chunks_per_point);
    for (auto& task : tasks) {
      for (std::size_t begin = 0; begin < reps; begin += chunk) {
        const std::size_t end = std::min(reps, begin + chunk);
        futures.push_back(pool.submit([&run_chunk, &task, begin, end] {
          run_chunk(task, begin, end, nullptr);
        }));
      }
    }
    for (auto& f : futures) f.get();  // propagate the first failure
  }

  const bool interrupted = stop_requested();
  if (!interrupted) {
    std::vector<io::Json> trailers;
    if (telemetry) {
      // The rollup covers the points computed *this invocation* (resumed
      // rows were recovered, not re-simulated); points_completed records
      // exactly that.
      io::Json trailer = telemetry->snapshot();
      trailer["kind"] = "registry";
      trailers.push_back(std::move(trailer));
    }
    aggregator.finalize(trailers);
  }
  // Interrupted: no finalize, no trailer — the store holds exactly what a
  // resume expects, the same shape a killed process leaves behind.

  if (feed != nullptr) feed->end_campaign(interrupted);

  CampaignReport report;
  report.total_points = points.size();
  report.owned_points = aggregator.owned_count();
  report.computed = aggregator.done_count() - recovered;
  report.skipped = recovered;
  report.replications = manifest.replications;
  report.jobs = jobs;
  report.interrupted = interrupted;
  report.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return report;
}

std::size_t merge_outputs(const Manifest& manifest,
                          const std::vector<std::string>& inputs,
                          const AggregatorOptions& outputs) {
  if (inputs.empty() || outputs.csv_path.empty()) {
    throw std::invalid_argument(
        "merge_outputs: needs input files and an output CSV path");
  }
  manifest.validate();
  const auto points = expand_grid(manifest);
  AggregatorOptions options = campaign_aggregator_options(
      manifest, points, outputs.csv_path, outputs.json_path,
      outputs.per_run_path, outputs.metrics_path);
  refuse_existing_outputs(options, "remove it first, a merge writes new files");
  const std::string store_path = RowStore::path_for(options.csv_path);
  try {
    Aggregator aggregator(std::move(options));
    aggregator.load_existing(inputs);
    const auto missing = aggregator.pending();
    if (!missing.empty()) {
      throw std::runtime_error(
          "merge_outputs: " + std::to_string(missing.size()) + " of " +
          std::to_string(points.size()) + " points are missing, first point " +
          std::to_string(missing.front()) +
          " (a shard file missing or incomplete?)");
    }
    aggregator.finalize();
  } catch (...) {
    // The store is this merge's own: the outputs were refused above.
    std::error_code ec;
    std::filesystem::remove(store_path, ec);
    throw;
  }
  return points.size();
}

}  // namespace pas::exp
