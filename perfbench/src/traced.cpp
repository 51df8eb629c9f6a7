#include "traced.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exp/aggregate.hpp"
#include "exp/row_store.hpp"
#include "net/channel.hpp"
#include "net/network.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "stimulus/arrival_map.hpp"
#include "world/deployment.hpp"
#include "world/sweep.hpp"
#include "world/workspace.hpp"

namespace perfbench {
namespace {

using pas::io::Json;
using pas::io::JsonArray;
using pas::io::JsonObject;

/// Set-up probes before the timed passes; the metrics are their medians.
constexpr int kSetupProbes = 5;
/// Threads of the runtime-layer pass and of the parallel-efficiency
/// comparison: half of a 4-core machine.
constexpr std::size_t kPoolJobs = 2;

// ---------------------------------------------------------------------------
// Counts: schedule-pure totals over a point's replications. They depend only
// on configs and seeds, so they must repeat exactly across passes and
// thread counts.
// ---------------------------------------------------------------------------

enum Count : std::size_t {
  kBroadcasts,
  kDeliveries,
  kDroppedNotListening,
  kDroppedOther,
  kWakeups,
  kRequests,
  kResponses,
  kMessagesReceived,
  kResponsesPushed,
  kPushesSuppressed,
  kPredictionHits,
  kPredictionMisses,
  kEventsScheduled,
  kEventsDispatched,
  kEventsCancelled,
  kMaxPending,  // a maximum, not a sum
  kMacDataTx,
  kMacCollisions,
  kMacDelivered,
  kMacRetries,
  kMacLplSamples,
  kCollectionOriginated,
  kCollectionDelivered,
  kCountFields,
};

constexpr std::array<const char*, kCountFields> kCountNames{
    "net.broadcasts",        "net.deliveries",
    "net.dropped_not_listening", "net.dropped_other",
    "core.wakeups",          "core.requests_sent",
    "core.responses_sent",   "core.messages_received",
    "core.responses_pushed", "core.pushes_suppressed",
    "core.prediction_hits",  "core.prediction_misses",
    "sim.events_scheduled",  "sim.events_dispatched",
    "sim.events_cancelled",  "sim.max_pending",
    "net.mac.data_tx",       "net.mac.collisions",
    "net.mac.delivered",     "net.mac.retries",
    "net.mac.lpl_samples",   "net.collection.originated",
    "net.collection.delivered",
};

using Counts = std::array<std::uint64_t, kCountFields>;

Counts counts_of(const pas::world::ReplicatedMetrics& m) {
  Counts c{};
  for (const auto& run : m.runs) {
    c[kBroadcasts] += run.network.broadcasts;
    c[kDeliveries] += run.network.deliveries;
    c[kDroppedNotListening] += run.network.dropped_not_listening;
    c[kDroppedOther] +=
        run.network.dropped_failed + run.network.dropped_channel;
    c[kWakeups] += run.protocol.wakeups;
    c[kRequests] += run.protocol.requests_sent;
    c[kResponses] += run.protocol.responses_sent;
    c[kMessagesReceived] += run.protocol.messages_received;
    c[kResponsesPushed] += run.protocol.responses_pushed;
    c[kPushesSuppressed] += run.protocol.pushes_suppressed;
    c[kPredictionHits] += run.protocol.prediction_hits;
    c[kPredictionMisses] += run.protocol.prediction_misses;
    c[kEventsScheduled] += run.kernel.events_scheduled;
    c[kEventsDispatched] += run.kernel.events_dispatched;
    c[kEventsCancelled] += run.kernel.events_cancelled;
    c[kMaxPending] = std::max(c[kMaxPending], run.kernel.max_pending);
    c[kMacDataTx] += run.mac.data_tx;
    c[kMacCollisions] += run.mac.collisions;
    c[kMacDelivered] += run.mac.delivered;
    c[kMacRetries] += run.mac.retries;
    c[kMacLplSamples] += run.mac.lpl_samples;
    c[kCollectionOriginated] += run.collection.originated;
    c[kCollectionDelivered] += run.collection.delivered;
  }
  return c;
}

Counts total_of(const std::vector<Counts>& per_point) {
  Counts total{};
  for (const auto& c : per_point) {
    for (std::size_t i = 0; i < kCountFields; ++i) {
      total[i] = i == kMaxPending ? std::max(total[i], c[i]) : total[i] + c[i];
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Spans, kept in memory and written out when the run ends.
// ---------------------------------------------------------------------------

enum class Span : std::uint8_t {
  kPass,
  kPoint,
  kReplication,
  kReduceRuns,
  kRecord,
  kFinalize,
  kPoolTask,
  kReplay,
  kDeploy,
  kConnectivity,
  kArrivalAssign,
  kNetReset,
  kKinds,
};

constexpr std::array<const char*, static_cast<std::size_t>(Span::kKinds)>
    kSpanNames{"pass",
               "point",
               "world.run_replication",
               "world.reduce_runs",
               "exp.record",
               "exp.finalize",
               "runtime.task",
               "replay",
               "world.generate_deployment",
               "world.is_connected",
               "stimulus.arrival_assign",
               "net.reset"};

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  /// Grows the log before a pass so no reallocation lands inside a span.
  void reserve_more(std::size_t n) { spans_.reserve(spans_.size() + n); }

  std::uint32_t open(Span kind, std::uint32_t parent) {
    spans_.push_back({kind, parent, 0, 0});
    spans_.back().start_ns = now_ns();
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  /// Ends span `id`; returns its duration in ns.
  std::int64_t close(std::uint32_t id) {
    Record& span = spans_[id];
    span.end_ns = now_ns();
    return span.end_ns - span.start_ns;
  }

  /// A span timed elsewhere (pool threads time their own tasks).
  void add(Span kind, std::uint32_t parent, std::int64_t start_ns,
           std::int64_t end_ns) {
    spans_.push_back({kind, parent, start_ns, end_ns});
  }

  [[nodiscard]] std::vector<double> durations_us(Span kind) const {
    std::vector<double> out;
    for (const auto& span : spans_) {
      if (span.kind == kind) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
    return out;
  }

  /// Per span name: count, total and self time (total minus the time its
  /// child spans cover), p50 and p90.
  [[nodiscard]] Json summary() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const auto& span : spans_) {
      if (span.parent != kNoParent) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
    JsonObject out;
    for (std::size_t k = 0; k < kSpanNames.size(); ++k) {
      const auto kind = static_cast<Span>(k);
      double total_ns = 0.0;
      double self_ns = 0.0;
      for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].kind != kind) continue;
        const auto d = spans_[i].end_ns - spans_[i].start_ns;
        total_ns += static_cast<double>(d);
        self_ns += static_cast<double>(d - child_ns[i]);
      }
      const auto durations = durations_us(kind);
      if (durations.empty()) continue;
      JsonObject entry;
      entry["count"] = durations.size();
      entry["total_ms"] = total_ns / 1e6;
      entry["self_ms"] = self_ns / 1e6;
      entry["p50_us"] = quantile(durations, 0.5);
      entry["p90_us"] = quantile(durations, 0.9);
      out[kSpanNames[k]] = Json(std::move(entry));
    }
    return Json(std::move(out));
  }

  /// One line per span: id, name, parent id (-1 for none), start, end (ns).
  void write_tsv(const std::string& path) const {
    std::ofstream out(path);
    out << "id\tname\tparent\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& span = spans_[i];
      out << i << '\t' << kSpanNames[static_cast<std::size_t>(span.kind)]
          << '\t'
          << (span.parent == kNoParent ? std::int64_t{-1}
                                       : std::int64_t{span.parent})
          << '\t' << span.start_ns << '\t' << span.end_ns << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Record {
    Span kind;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Record> spans_;
};

// ---------------------------------------------------------------------------
// The traced campaign loop.
// ---------------------------------------------------------------------------

struct PassResult {
  double wall_s = 0.0;
  std::vector<Counts> counts;  // by point index
  std::uint64_t replication_allocs = 0;
  std::uint64_t exp_allocs = 0;  // Aggregator::record + finalize
  std::int64_t replication_ns = 0;
  std::int64_t busy_ns = 0;  // summed pool-task spans
  std::string digest;
  std::uint64_t bytes = 0;
};

/// The aggregator run_campaign builds for a fresh, unsharded campaign.
pas::exp::AggregatorOptions aggregator_options(const Setup& setup,
                                               const Outputs& out) {
  pas::exp::AggregatorOptions options;
  options.csv_path = out.csv;
  options.json_path = out.jsonl;
  options.per_run_path = out.per_run;
  options.axis_names = pas::exp::axis_columns(setup.manifest);
  options.total_points = setup.points.size();
  options.replications = setup.manifest.replications;
  options.expected_identity = pas::exp::grid_identity(setup.points);
  options.store_path = pas::exp::RowStore::path_for(out.csv);
  return options;
}

PassResult traced_pass(const Setup& setup, const Outputs& out,
                       std::size_t jobs, SpanLog& log) {
  out.remove();
  const auto& points = setup.points;
  const std::size_t reps = setup.manifest.replications;
  PassResult result;
  result.counts.resize(points.size());
  log.reserve_more(points.size() * (reps + 4) + 2);

  const auto t0 = Clock::now();
  const std::uint32_t pass = log.open(Span::kPass, SpanLog::kNoParent);
  pas::exp::Aggregator aggregator(aggregator_options(setup, out));
  aggregator.load_existing();
  if (jobs == 1) {
    pas::world::Workspace workspace;
    for (const auto& point : points) {
      const std::uint32_t point_span = log.open(Span::kPoint, pass);
      std::vector<pas::metrics::RunMetrics> runs(reps);
      for (std::size_t r = 0; r < reps; ++r) {
        const std::uint32_t span = log.open(Span::kReplication, point_span);
        const std::uint64_t allocs = thread_allocations();
        runs[r] = pas::world::run_replication(workspace, point.config, r);
        result.replication_allocs += thread_allocations() - allocs;
        result.replication_ns += log.close(span);
      }
      std::uint32_t span = log.open(Span::kReduceRuns, point_span);
      const auto metrics = pas::world::reduce_runs(std::move(runs));
      log.close(span);
      span = log.open(Span::kRecord, point_span);
      const std::uint64_t allocs = thread_allocations();
      aggregator.record(point.index, point.seed, point.values, metrics);
      result.exp_allocs += thread_allocations() - allocs;
      log.close(span);
      log.close(point_span);
      result.counts[point.index] = counts_of(metrics);
    }
  } else {
    std::vector<std::pair<std::int64_t, std::int64_t>> task_ns(points.size());
    {
      pas::runtime::ThreadPool pool(jobs);
      std::vector<std::future<void>> futures;
      futures.reserve(points.size());
      for (const auto& point : points) {
        futures.push_back(pool.submit([&, p = &point] {
          // One kept-warm world per pool thread, as run_campaign does.
          static thread_local pas::world::Workspace workspace;
          const std::int64_t start = SpanLog::now_ns();
          std::vector<pas::metrics::RunMetrics> runs(reps);
          for (std::size_t r = 0; r < reps; ++r) {
            runs[r] = pas::world::run_replication(workspace, p->config, r);
          }
          const auto metrics = pas::world::reduce_runs(std::move(runs));
          aggregator.record(p->index, p->seed, p->values, metrics);
          result.counts[p->index] = counts_of(metrics);
          task_ns[p->index] = {start, SpanLog::now_ns()};
        }));
      }
      for (auto& f : futures) f.get();
    }
    for (const auto& [start, end] : task_ns) {
      log.add(Span::kPoolTask, pass, start, end);
      result.busy_ns += end - start;
    }
  }
  const std::uint32_t span = log.open(Span::kFinalize, pass);
  const std::uint64_t allocs = thread_allocations();
  aggregator.finalize();
  result.exp_allocs += thread_allocations() - allocs;
  log.close(span);
  log.close(pass);
  result.wall_s = seconds_between(t0, Clock::now());
  result.digest = out.digest();
  result.bytes = out.bytes();
  return result;
}

// ---------------------------------------------------------------------------
// Replayed set-up probes: the calls Workspace makes before a replication's
// simulation starts, on the same seeds.
// ---------------------------------------------------------------------------

/// The channel Workspace builds for `config`.
std::shared_ptr<pas::net::Channel> make_channel(
    const pas::world::ScenarioConfig& config) {
  switch (config.channel) {
    case pas::world::ChannelKind::kPerfect:
      return std::make_shared<pas::net::PerfectChannel>();
    case pas::world::ChannelKind::kBernoulli:
      return std::make_shared<pas::net::BernoulliLossChannel>(
          config.channel_loss);
    case pas::world::ChannelKind::kGilbertElliott:
      return std::make_shared<pas::net::GilbertElliottChannel>(config.gilbert);
  }
  throw std::logic_error("make_channel: unknown channel kind");
}

struct ReplayResult {
  std::uint64_t attempts = 0;
  std::size_t replications = 0;
};

ReplayResult replay_setup(const Setup& setup, SpanLog& log) {
  pas::sim::Simulator simulator;
  std::optional<pas::net::Network> network;
  pas::stimulus::ArrivalMap arrivals;
  std::unique_ptr<pas::stimulus::StimulusModel> model;
  const pas::world::ScenarioConfig* model_key = nullptr;
  ReplayResult result;
  log.reserve_more(setup.replications() * 6 + 1);
  const std::uint32_t root = log.open(Span::kReplay, SpanLog::kNoParent);
  for (const auto& point : setup.points) {
    for (std::size_t r = 0; r < setup.manifest.replications; ++r) {
      pas::world::ScenarioConfig config = point.config;
      config.seed = point.seed + r;  // what run_replication runs
      const pas::sim::SeedSequence seeds(config.seed);
      std::vector<pas::geom::Vec2> positions;
      bool connected = false;
      for (std::size_t attempt = 0;
           !connected && attempt < config.max_deployment_attempts; ++attempt) {
        auto rng = seeds.stream(pas::sim::SeedSequence::kDeployment, attempt);
        std::uint32_t span = log.open(Span::kDeploy, root);
        positions = pas::world::generate_deployment(config.deployment, rng);
        log.close(span);
        span = log.open(Span::kConnectivity, root);
        connected = pas::world::is_connected(positions, config.radio.range_m);
        log.close(span);
        ++result.attempts;
      }
      if (!connected) {
        throw std::runtime_error("replay: no connected deployment for point " +
                                 std::to_string(point.index));
      }
      if (model_key == nullptr ||
          !pas::world::same_stimulus(*model_key, config)) {
        model = pas::world::make_stimulus(config);
        model_key = &point.config;
      }
      std::uint32_t span = log.open(Span::kArrivalAssign, root);
      arrivals.assign(*model, positions, config.duration_s);
      log.close(span);
      if (!network.has_value()) {
        network.emplace(simulator, positions, config.radio,
                        make_channel(config), seeds);
      }
      span = log.open(Span::kNetReset, root);
      network->reset(positions, config.radio, make_channel(config), seeds);
      log.close(span);
      ++result.replications;
    }
  }
  log.close(root);
  return result;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

Json run_traced(const Args& args) {
  JsonObject result;
  result["noise"] = measure_noise();

  std::vector<double> load_ms, expand_ms, model_ms;
  std::optional<Setup> setup;
  for (int k = 0; k < kSetupProbes; ++k) {
    setup.emplace(set_up(args));
    load_ms.push_back(setup->load_s * 1e3);
    expand_ms.push_back(setup->expand_s * 1e3);
    model_ms.push_back(setup->model_s * 1e3);
  }

  // The run's time budget, split between the phases below.
  const auto start = Clock::now();
  const auto by = [&](double share) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(args.seconds * share));
  };
  const Outputs out = make_outputs(args, "out");
  const Outputs traced = make_outputs(args, "traced");
  JsonArray campaigns;
  const auto reps = static_cast<double>(setup->replications());
  const auto untraced_rate = [&](std::size_t jobs, Clock::time_point until) {
    std::vector<double> walls;
    do {
      const CampaignSample sample = run_campaign_once(*setup, out, jobs);
      walls.push_back(sample.wall_s);
      campaigns.push_back(
          campaign_record(false, jobs, sample.wall_s, sample.digest));
    } while (walls.size() < 2 || Clock::now() < until);
    return reps / undisturbed(walls);
  };

  // 1. The untraced reference. It also finishes every lazy initialisation,
  //    so the traced passes' allocation counts repeat exactly.
  const double untraced_rps = untraced_rate(1, by(0.2));

  // 2. Traced jobs-1 passes, repeated so their counts can be compared.
  SpanLog log;
  std::vector<PassResult> passes;
  do {
    passes.push_back(traced_pass(*setup, traced, 1, log));
    campaigns.push_back(
        campaign_record(true, 1, passes.back().wall_s, passes.back().digest));
  } while (passes.size() < 2 || Clock::now() < by(0.6));

  // 3. The same loop on the runtime::ThreadPool.
  const PassResult pooled = traced_pass(*setup, traced, kPoolJobs, log);
  campaigns.push_back(
      campaign_record(true, kPoolJobs, pooled.wall_s, pooled.digest));

  // 4. Replayed set-up probes.
  const ReplayResult replay = replay_setup(*setup, log);

  // 5. Untraced on the pool, for parallel efficiency.
  const double pool_rps = untraced_rate(kPoolJobs, by(0.9));

  bool counts_repeat = pooled.counts == passes.front().counts;
  bool allocs_repeat = true;
  std::vector<double> traced_walls;
  std::int64_t replication_ns = 0;
  for (const auto& pass : passes) {
    counts_repeat = counts_repeat && pass.counts == passes.front().counts;
    allocs_repeat =
        allocs_repeat &&
        pass.replication_allocs == passes.front().replication_allocs &&
        pass.exp_allocs == passes.front().exp_allocs &&
        pass.bytes == passes.front().bytes;
    traced_walls.push_back(pass.wall_s);
    replication_ns += pass.replication_ns;
  }
  const double traced_rps = reps / undisturbed(traced_walls);

  const Counts c = total_of(passes.front().counts);
  const auto points = static_cast<double>(setup->points.size());
  const auto n = [&c](Count i) { return static_cast<double>(c[i]); };
  const auto p50 = [&log](Span kind) {
    return quantile(log.durations_us(kind), 0.5);
  };
  const PassResult& first = passes.front();

  JsonObject m;
  m["exp.manifest_load_ms"] = quantile(load_ms, 0.5);
  m["exp.expand_grid_ms"] = quantile(expand_ms, 0.5);
  m["exp.record_us_p50"] = p50(Span::kRecord);
  m["exp.finalize_ms"] = p50(Span::kFinalize) / 1e3;
  m["exp.bytes_written"] = static_cast<double>(first.bytes);
  m["exp.allocs_per_point"] = static_cast<double>(first.exp_allocs) / points;
  const auto replication_us = log.durations_us(Span::kReplication);
  m["world.replication_us_p50"] = quantile(replication_us, 0.5);
  m["world.replication_us_p90"] = quantile(replication_us, 0.9);
  m["world.allocs_per_rep"] =
      static_cast<double>(first.replication_allocs) / reps;
  m["world.deploy_us"] = p50(Span::kDeploy);
  m["world.connectivity_us"] = p50(Span::kConnectivity);
  m["world.deploy_attempts_per_rep"] =
      ratio(static_cast<double>(replay.attempts),
            static_cast<double>(replay.replications));
  m["world.reduce_runs_us"] = p50(Span::kReduceRuns);
  m["stimulus.model_build_ms"] = quantile(model_ms, 0.5);
  m["stimulus.arrival_assign_us"] = p50(Span::kArrivalAssign);
  m["net.reset_us"] = p50(Span::kNetReset);
  m["net.broadcasts_per_rep"] = n(kBroadcasts) / reps;
  m["net.deliveries_per_broadcast"] = ratio(n(kDeliveries), n(kBroadcasts));
  m["net.not_listening_drop_ratio"] =
      ratio(n(kDroppedNotListening),
            n(kDeliveries) + n(kDroppedNotListening) + n(kDroppedOther));
  m["net.mac.data_tx_per_rep"] = n(kMacDataTx) / reps;
  m["net.mac.collision_ratio"] =
      ratio(n(kMacCollisions), n(kMacCollisions) + n(kMacDelivered));
  m["net.mac.retry_ratio"] = ratio(n(kMacRetries), n(kMacDataTx));
  m["net.mac.lpl_samples_per_rep"] = n(kMacLplSamples) / reps;
  m["net.collection.delivered_ratio"] =
      ratio(n(kCollectionDelivered), n(kCollectionOriginated));
  m["core.wakeups_per_rep"] = n(kWakeups) / reps;
  m["core.requests_per_rep"] = n(kRequests) / reps;
  m["core.responses_per_rep"] = n(kResponses) / reps;
  m["core.messages_received_per_rep"] = n(kMessagesReceived) / reps;
  m["core.push_suppressed_ratio"] =
      ratio(n(kPushesSuppressed), n(kPushesSuppressed) + n(kResponsesPushed));
  m["core.prediction_hit_ratio"] =
      ratio(n(kPredictionHits), n(kPredictionHits) + n(kPredictionMisses));
  m["sim.events_dispatched_per_rep"] = n(kEventsDispatched) / reps;
  m["sim.events_scheduled_per_rep"] = n(kEventsScheduled) / reps;
  m["sim.cancelled_ratio"] = ratio(n(kEventsCancelled), n(kEventsScheduled));
  m["sim.max_pending"] = n(kMaxPending);
  m["sim.ns_per_event"] =
      ratio(static_cast<double>(replication_ns),
            n(kEventsDispatched) * static_cast<double>(passes.size()));
  m["runtime.busy_ratio"] =
      ratio(static_cast<double>(pooled.busy_ns) / 1e9,
            static_cast<double>(kPoolJobs) * pooled.wall_s);
  m["runtime.parallel_efficiency"] =
      ratio(pool_rps, static_cast<double>(kPoolJobs) * untraced_rps);
  m["trace.overhead_ratio"] = ratio(untraced_rps, traced_rps);

  JsonObject counts;
  for (std::size_t i = 0; i < kCountFields; ++i) {
    counts[kCountNames[i]] = static_cast<double>(c[i]);
  }
  JsonObject trace;
  trace["manifest"] = args.manifest;
  trace["seed"] = static_cast<double>(args.seed);
  trace["noise"] = result["noise"];
  trace["spans"] = log.summary();
  trace["counts"] = Json(std::move(counts));
  trace["traced_passes"] = passes.size();
  trace["untraced_reps_per_s"] = untraced_rps;
  trace["traced_reps_per_s"] = traced_rps;
  const std::string trace_path = args.work + "/trace.json";
  const std::string spans_path = args.work + "/spans.tsv";
  {
    std::ofstream file(trace_path);
    file << Json(std::move(trace)).dump(2) << '\n';
    if (!file) throw std::runtime_error("cannot write " + trace_path);
  }
  log.write_tsv(spans_path);

  JsonObject checks;
  checks["counts_repeat"] = counts_repeat;
  checks["allocs_repeat"] = allocs_repeat;
  result["checks"] = Json(std::move(checks));
  result["metrics"] = Json(std::move(m));
  result["points"] = setup->points.size();
  result["campaigns"] = Json(std::move(campaigns));
  result["kept_digest"] = out.digest();
  result["artifacts"] = artifact_paths(out);
  result["trace_files"] = Json(JsonArray{trace_path, spans_path});
  return Json(std::move(result));
}

}  // namespace perfbench
