#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/registry.hpp"
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

/// Registry handles for one policy's campaign-level instruments, resolved
/// once before the first point completes (registration freezes on first
/// write; completion callbacks run on pool threads).
struct PolicyInstruments {
  obs::Counter wakeups;
  obs::Counter requests_sent;
  obs::Counter responses_sent;
  obs::Counter responses_pushed;
  obs::Counter pushes_suppressed;
  obs::Counter prediction_hits;
  obs::Counter prediction_misses;
  obs::Histogram sleep_s;
};

PolicyInstruments make_policy_instruments(obs::Registry& registry,
                                          core::Policy policy) {
  const std::string prefix = "policy." + std::string(core::to_string(policy));
  PolicyInstruments out;
  out.wakeups = registry.counter(prefix + ".wakeups");
  out.requests_sent = registry.counter(prefix + ".requests_sent");
  out.responses_sent = registry.counter(prefix + ".responses_sent");
  out.responses_pushed = registry.counter(prefix + ".responses_pushed");
  out.pushes_suppressed = registry.counter(prefix + ".pushes_suppressed");
  out.prediction_hits = registry.counter(prefix + ".prediction_hits");
  out.prediction_misses = registry.counter(prefix + ".prediction_misses");
  out.sleep_s =
      registry.histogram(prefix + ".sleep_s", core::kSleepHistSpec);
  return out;
}

/// Campaign-level net.mac.* / net.collection.* instruments, registered only
/// when at least one grid point runs with the MAC enabled — MAC-free
/// campaigns keep their registry trailer byte-identical to pre-MAC builds.
struct NetInstruments {
  obs::Counter data_tx;
  obs::Counter rendezvous_tx;
  obs::Counter cca_busy;
  obs::Counter backoffs;
  obs::Counter retries;
  obs::Counter collisions;
  obs::Counter captures;
  obs::Counter delivered;
  obs::Counter drops;
  obs::Counter lpl_samples;
  obs::Counter lpl_wakeups;
  obs::Counter alerts_originated;
  obs::Counter alerts_forwarded;
  obs::Counter alerts_delivered;
  obs::Counter alerts_predicted;
};

NetInstruments make_net_instruments(obs::Registry& registry) {
  NetInstruments out;
  out.data_tx = registry.counter("net.mac.data_tx");
  out.rendezvous_tx = registry.counter("net.mac.rendezvous_tx");
  out.cca_busy = registry.counter("net.mac.cca_busy");
  out.backoffs = registry.counter("net.mac.backoffs");
  out.retries = registry.counter("net.mac.retries");
  out.collisions = registry.counter("net.mac.collisions");
  out.captures = registry.counter("net.mac.captures");
  out.delivered = registry.counter("net.mac.delivered");
  out.drops = registry.counter("net.mac.drops");
  out.lpl_samples = registry.counter("net.mac.lpl_samples");
  out.lpl_wakeups = registry.counter("net.mac.lpl_wakeups");
  out.alerts_originated = registry.counter("net.collection.originated");
  out.alerts_forwarded = registry.counter("net.collection.forwarded");
  out.alerts_delivered = registry.counter("net.collection.delivered");
  out.alerts_predicted =
      registry.counter("net.collection.delivered_predicted");
  return out;
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
  // campaign-scoped registry rolls the points up for the trailer. Both are
  // armed only when --metrics was given; a disabled registry hands out
  // inert handles, and nothing in the simulation path ever sees either
  // (run_replication is telemetry-blind), so metrics on/off cannot change a
  // single output byte.
  obs::Registry registry(!options.metrics_path.empty());
  std::map<core::Policy, PolicyInstruments> policy_instruments;
  std::optional<NetInstruments> net_instruments;
  if (registry.enabled()) {
    for (const auto& point : points) {
      const core::Policy policy = point.config.protocol.policy;
      if (!policy_instruments.contains(policy)) {
        policy_instruments.emplace(policy,
                                   make_policy_instruments(registry, policy));
      }
      if (point.config.mac.enabled && !net_instruments.has_value()) {
        net_instruments = make_net_instruments(registry);
      }
    }
  }
  const obs::Counter k_scheduled = registry.counter("kernel.events_scheduled");
  const obs::Counter k_dispatched =
      registry.counter("kernel.events_dispatched");
  const obs::Counter k_cancelled = registry.counter("kernel.events_cancelled");
  const obs::Gauge k_max_pending = registry.gauge("kernel.max_pending");
  const obs::Counter k_reschedules =
      registry.counter("kernel.timer_reschedules");
  const obs::Counter k_rung_spawns = registry.counter("kernel.rung_spawns");
  const obs::Counter k_bucket_resizes =
      registry.counter("kernel.bucket_resizes");
  const obs::Gauge k_max_bucket = registry.gauge("kernel.max_bucket");
  const obs::Counter k_dead_skips = registry.counter("kernel.dead_skips");
  const obs::Counter points_completed =
      registry.counter("campaign.points_completed");

  // The feed's /api/metrics source snapshots this campaign's registry.
  // The guard (declared after the registry, destroyed before it) detaches
  // the closure on every exit path so the server can never snapshot a
  // dead registry.
  struct FeedMetricsGuard {
    serve::CampaignFeed* feed = nullptr;
    ~FeedMetricsGuard() {
      if (feed != nullptr) feed->set_metrics_source(nullptr);
    }
  } metrics_guard;
  if (feed != nullptr && registry.enabled()) {
    metrics_guard.feed = feed;
    feed->set_metrics_source([&registry] {
      io::JsonObject out;
      out["scope"] = "campaign";
      out["instruments"] = obs::snapshot_json(registry.snapshot());
      return io::Json(std::move(out));
    });
  }

  const std::size_t reps = manifest.replications;
  const std::size_t jobs =
      options.jobs != 0
          ? options.jobs
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t chunk =
      options.rep_chunk != 0
          ? std::min(options.rep_chunk, reps)
          : auto_rep_chunk(pending.size(), reps, jobs);
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
    if (registry.enabled()) {
      // Roll the point's run telemetry into the campaign registry. This
      // runs on whichever pool thread finished the point's last chunk, so
      // the thread-shard merge is exercised by every parallel campaign.
      world::RunTelemetry telemetry;
      for (const auto& run : metrics.runs) telemetry.add(run);
      k_scheduled.add(telemetry.kernel.events_scheduled);
      k_dispatched.add(telemetry.kernel.events_dispatched);
      k_cancelled.add(telemetry.kernel.events_cancelled);
      k_max_pending.record_max(telemetry.kernel.max_pending);
      k_reschedules.add(telemetry.kernel.timer_reschedules);
      k_rung_spawns.add(telemetry.kernel.rung_spawns);
      k_bucket_resizes.add(telemetry.kernel.bucket_resizes);
      k_max_bucket.record_max(telemetry.kernel.max_bucket);
      k_dead_skips.add(telemetry.kernel.dead_skips);
      const PolicyInstruments& pi =
          policy_instruments.at(point.config.protocol.policy);
      pi.wakeups.add(telemetry.protocol.wakeups);
      pi.requests_sent.add(telemetry.protocol.requests_sent);
      pi.responses_sent.add(telemetry.protocol.responses_sent);
      pi.responses_pushed.add(telemetry.protocol.responses_pushed);
      pi.pushes_suppressed.add(telemetry.protocol.pushes_suppressed);
      pi.prediction_hits.add(telemetry.protocol.prediction_hits);
      pi.prediction_misses.add(telemetry.protocol.prediction_misses);
      pi.sleep_s.merge(telemetry.protocol.sleep_s);
      if (point.config.mac.enabled && net_instruments.has_value()) {
        const NetInstruments& ni = *net_instruments;
        ni.data_tx.add(telemetry.mac.data_tx);
        ni.rendezvous_tx.add(telemetry.mac.rendezvous_tx);
        ni.cca_busy.add(telemetry.mac.cca_busy);
        ni.backoffs.add(telemetry.mac.backoffs);
        ni.retries.add(telemetry.mac.retries);
        ni.collisions.add(telemetry.mac.collisions);
        ni.captures.add(telemetry.mac.captures);
        ni.delivered.add(telemetry.mac.delivered);
        ni.drops.add(telemetry.mac.drops_cca + telemetry.mac.drops_retry);
        ni.lpl_samples.add(telemetry.mac.lpl_samples);
        ni.lpl_wakeups.add(telemetry.mac.lpl_wakeups);
        ni.alerts_originated.add(telemetry.collection.originated);
        ni.alerts_forwarded.add(telemetry.collection.forwarded);
        ni.alerts_delivered.add(telemetry.collection.delivered);
        ni.alerts_predicted.add(telemetry.collection.delivered_predicted);
      }
      points_completed.add();
    }
    if (options.progress || feed != nullptr) {
      const std::lock_guard lock(progress_mutex);
      const auto summary = PointSummary::of(point.index, point.seed, metrics);
      const std::size_t done = aggregator.done_count();
      const std::size_t owned = aggregator.owned_count();
      if (options.progress) options.progress(summary, done, owned);
      if (feed != nullptr) {
        feed->point_done(feed_point_row(point, reps, summary));
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
    runtime::ThreadPool pool(options.jobs);
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
    if (registry.enabled()) {
      // The registry snapshot covers the points computed *this invocation*
      // (resumed rows were recovered, not re-simulated); points_completed
      // records exactly that.
      io::JsonObject trailer;
      trailer["kind"] = "registry";
      trailer["scope"] = "campaign";
      trailer["instruments"] = obs::snapshot_json(registry.snapshot());
      trailers.emplace_back(std::move(trailer));
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
  options.spill_budget_bytes = outputs.spill_budget_bytes;
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
