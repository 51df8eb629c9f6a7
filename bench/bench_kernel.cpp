// Microbenchmarks A4 — simulator-kernel throughput and parallel-sweep
// scaling: the costs everything else in this repository is built on.
//
// The CI perf gate (tools/check_bench_regression.py against
// bench/BENCH_kernel_baseline.json) watches BM_Simulator_EventStorm,
// BM_Simulator_EventStormPayload, BM_Scenario_SingleRun,
// BM_EventQueue_MacShaped, BM_EventQueue_Sparse, BM_Net_BroadcastFanout and
// BM_Core_RefreshEstimates at 15%, and
// BM_Aggregator_Record / BM_Aggregator_Finalize (filesystem-bound) at a
// looser 50%; keep their workloads stable. BM_Net_MacScenario and
// BM_Stimulus_RadialCovered are recorded but not gated yet: they wait for a
// baseline recorded on CI hardware.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/estimation.hpp"
#include "core/observation.hpp"
#include "exp/aggregate.hpp"
#include "exp/manifest.hpp"
#include "geom/disk_graph.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "stimulus/arrival_map.hpp"
#include "world/deployment.hpp"
#include "world/paper_setup.hpp"
#include "world/scenario.hpp"
#include "world/sweep.hpp"
#include "world/workspace.hpp"

namespace {

void BM_EventQueue_PushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  pas::sim::Pcg32 rng(1, 1);
  for (auto _ : state) {
    pas::sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(rng.uniform(0.0, 1e6), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueue_PushPop)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueue_CancelHeavy(benchmark::State& state) {
  // Protocol-shaped churn: a working set of pending timers is repeatedly
  // cancelled and replaced before firing (exactly what wake/eval/recheck
  // timers do on every state transition). Dominated by cancel() + push().
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLive = 256;
  pas::sim::Pcg32 rng(7, 1);
  for (auto _ : state) {
    pas::sim::EventQueue q;
    std::vector<pas::sim::EventId> live;
    live.reserve(kLive);
    for (std::size_t i = 0; i < kLive; ++i) {
      live.push_back(q.push(rng.uniform(0.0, 1e3), [] {}));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = i % kLive;
      q.cancel(live[k]);
      live[k] = q.push(rng.uniform(0.0, 1e3), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueue_CancelHeavy)->Arg(10000)->Arg(100000);

void BM_EventQueue_MixedHorizon(benchmark::State& state) {
  // A near-term working set churns on top of a stable far-future tail — the
  // shape of a live protocol run (imminent MAC/wake events over distant
  // failure and timeout events). Stresses heap locality with a deep heap.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTail = 4096;
  for (auto _ : state) {
    pas::sim::EventQueue q;
    for (std::size_t i = 0; i < kTail; ++i) {
      q.push(1e6 + static_cast<double>(i), [] {});
    }
    double now = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(now + 0.5, [] {});
      const auto popped = q.pop();
      now = popped.time;
      benchmark::DoNotOptimize(now);
    }
    q.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueue_MixedHorizon)->Arg(10000)->Arg(100000);

void BM_EventQueue_MacShaped(benchmark::State& state) {
  // A deep, periodic pending set: n timers always live, each re-arming one
  // period ahead as it fires, with a thin layer of short-horizon traffic on
  // top — the shape of any per-node periodic timer at scale. (The slotted
  // LPL MAC books its idle slot samples without events, so it arms a
  // sampling timer only while a carrier covers the sample.) It is the
  // workload the ladder index exists for — a heap pays O(log n) per re-arm
  // against a deep heap; the ladder touches one calendar bucket.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr double kPeriod = 0.25;
  pas::sim::Pcg32 rng(5, 9);
  for (auto _ : state) {
    pas::sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(kPeriod * static_cast<double>(i) / static_cast<double>(n),
             [] {});
    }
    const std::size_t pops = 8 * n;
    for (std::size_t i = 0; i < pops; ++i) {
      const auto popped = q.pop();
      benchmark::DoNotOptimize(popped.time);
      if (i % 8 == 7) {
        q.push(popped.time + 0.01 * rng.uniform01(), [] {});  // traffic
      } else {
        q.push(popped.time + kPeriod, [] {});  // timer re-arm
      }
    }
    q.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(8 * n) *
                          state.iterations());
}
BENCHMARK(BM_EventQueue_MacShaped)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueue_Sparse(benchmark::State& state) {
  // The opposite extreme: a near-empty pending set churning across an
  // astronomically wide horizon (idle nodes holding a failure timer and
  // little else). Guards the ladder's constant factors — with almost
  // nothing live, reseeds must cost almost nothing.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLive = 16;
  pas::sim::Pcg32 rng(13, 2);
  for (auto _ : state) {
    pas::sim::EventQueue q;
    for (std::size_t i = 0; i < kLive; ++i) {
      q.push(rng.uniform(0.0, 1e9), [] {});
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto popped = q.pop();
      benchmark::DoNotOptimize(popped.time);
      q.push(popped.time + rng.uniform(0.0, 1e9), [] {});
    }
    q.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueue_Sparse)->Arg(100000);

void BM_Simulator_EventStorm(benchmark::State& state) {
  // Self-rescheduling chain through a 16-byte POD functor: measures the
  // kernel's per-event dispatch cost with the smallest realistic capture (a
  // protocol timer's `this` + node index). (A previous version rescheduled
  // a captured std::function, so every event also paid a heap-allocating
  // self-copy of the callback — it benchmarked std::function, not us.)
  struct Tick {
    pas::sim::Simulator* sim;
    std::size_t* remaining;
    void operator()() const {
      if (--*remaining > 0) sim->schedule_in(0.001, Tick{sim, remaining});
    }
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    pas::sim::Simulator sim;
    std::size_t remaining = n;
    sim.schedule_in(0.001, Tick{&sim, &remaining});
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Simulator_EventStorm)->Arg(10000)->Arg(100000);

void BM_Simulator_EventStormPayload(benchmark::State& state) {
  // Same chain with a delivery-shaped capture: a net::Message-sized payload
  // rides in every callback, like a broadcast's delivery event — the most
  // common event in a protocol run. Captures this size blow past
  // std::function's inline buffer. (While net::Message was 112 B, this
  // 128 B capture overflowed SmallFn's buffer too and measured its heap
  // fallback; at 80 B it measures the inline path again.)
  struct Tick {
    pas::sim::Simulator* sim;
    std::size_t* remaining;
    unsigned char payload[sizeof(pas::net::Message)];
    void operator()() const {
      if (--*remaining > 0) {
        Tick next = *this;
        sim->schedule_in(0.001, next);
      }
    }
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    pas::sim::Simulator sim;
    std::size_t remaining = n;
    sim.schedule_in(0.001, Tick{&sim, &remaining, {}});
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Simulator_EventStormPayload)->Arg(10000)->Arg(100000);

void BM_Scenario_SingleRun(benchmark::State& state) {
  // One full paper-scenario simulation, the unit of every sweep.
  pas::world::PaperSetupOverrides o;
  o.policy = pas::core::Policy::kPas;
  const auto cfg = pas::world::paper_scenario(o);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto run_cfg = cfg;
    run_cfg.seed = seed++;
    benchmark::DoNotOptimize(pas::world::run_scenario(run_cfg).metrics);
  }
}
BENCHMARK(BM_Scenario_SingleRun)->Unit(benchmark::kMillisecond);

void BM_Scenario_Replicated(benchmark::State& state) {
  // A replicated point, serially — the unit of campaign work. Unlike
  // SingleRun this path may reuse world state across replications, so the
  // gap between the two is the workspace win.
  pas::world::PaperSetupOverrides o;
  o.policy = pas::core::Policy::kPas;
  const auto cfg = pas::world::paper_scenario(o);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pas::world::run_replicated(cfg, 8, nullptr).energy_j.mean);
  }
  state.SetItemsProcessed(8 * state.iterations());
}
BENCHMARK(BM_Scenario_Replicated)->Unit(benchmark::kMillisecond);

void BM_Sweep_Parallel(benchmark::State& state) {
  // Replicated sweep over the thread pool: should scale with cores until
  // memory bandwidth binds.
  const auto threads = static_cast<std::size_t>(state.range(0));
  pas::world::PaperSetupOverrides o;
  const auto cfg = pas::world::paper_scenario(o);
  for (auto _ : state) {
    pas::runtime::ThreadPool pool(threads);
    benchmark::DoNotOptimize(
        pas::world::run_replicated(cfg, 16, &pool).energy_j.mean);
  }
  state.SetItemsProcessed(16 * state.iterations());
}
BENCHMARK(BM_Sweep_Parallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Per-layer hot paths of a replication ------------------------------------

void BM_Net_BroadcastFanout(benchmark::State& state) {
  // One mac-off broadcast and the dispatch of its deliveries on a real
  // 30-node net::Network (the paper field, seed 1) with the real RESPONSE
  // Message: the dominant event of a protocol run. Items are broadcasts.
  const auto cfg = pas::world::paper_scenario();
  const pas::sim::SeedSequence seeds(cfg.seed);
  auto rng = seeds.stream(pas::sim::SeedSequence::kDeployment);
  pas::sim::Simulator sim;
  pas::net::Network network(sim,
                            pas::world::generate_deployment(cfg.deployment, rng),
                            cfg.radio,
                            std::make_shared<pas::net::PerfectChannel>(), seeds);
  std::uint64_t received = 0;
  for (std::uint32_t i = 0; i < network.size(); ++i) {
    network.set_rx_handler(
        i, [&received](const pas::net::Message&) { ++received; });
  }
  pas::net::Message msg;
  msg.payload = pas::net::ResponsePayload{};
  std::uint32_t from = 0;
  for (auto _ : state) {
    network.broadcast(from, msg);
    sim.run();
    if (++from == network.size()) from = 0;
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations());
  state.counters["deliveries_per_broadcast"] =
      static_cast<double>(network.stats().deliveries) /
      static_cast<double>(network.stats().broadcasts);
}
BENCHMARK(BM_Net_BroadcastFanout);

void BM_Net_MacScenario(benchmark::State& state) {
  // One MAC-on replication of examples/multihop_collection.json's base
  // config (49-node grid, slotted LPL MAC at slot 0.1 s, tree collection,
  // PAS) on a reused workspace, as a campaign runs it: the MAC layer's cost
  // end to end. Items are replications.
  const std::string here = __FILE__;
  const std::string root = here.substr(0, here.find("bench/bench_kernel.cpp"));
  const auto manifest = pas::exp::Manifest::load(
      root + "examples/multihop_collection.json");
  pas::world::Workspace workspace;
  std::size_t rep = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto m = pas::world::run_replication(workspace, manifest.base, rep++);
    events += m.kernel.events_dispatched;
    benchmark::DoNotOptimize(m.avg_energy_j);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["events_per_rep"] =
      static_cast<double>(events) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Net_MacScenario)->Unit(benchmark::kMillisecond);

void BM_Core_RefreshEstimates(benchmark::State& state) {
  // An alert node's work per RESPONSE heard: fold the observation into its
  // PeerTable, then formula 2 (expected velocity) and formula 3 (predicted
  // arrival) from the table's cached per-peer terms, as
  // Protocol::refresh_estimates runs them. Degree 8, neighbors heard
  // round-robin in scrambled id order; items are RESPONSEs.
  constexpr std::uint32_t kDegree = 8;
  pas::sim::Pcg32 rng(11, 3);
  std::vector<pas::core::PeerObservation> heard(kDegree);
  for (std::uint32_t k = 0; k < kDegree; ++k) {
    pas::core::PeerObservation& o = heard[k];
    o.id = (k * 5 + 3) % 17;
    o.position = {rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
    o.state = k % 2 == 0 ? pas::core::NodeState::kCovered
                         : pas::core::NodeState::kAlert;
    o.velocity = {rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6)};
    o.velocity_valid = true;
    o.detected_at = rng.uniform(0.0, 5.0);
    o.predicted_arrival = rng.uniform(5.0, 20.0);
  }
  const pas::core::PredictionPolicy policy{};
  const pas::geom::Vec2 self{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  pas::core::PeerTable table;
  table.reserve(kDegree);
  pas::sim::Time now = 0.0;
  std::uint32_t k = 0;
  for (auto _ : state) {
    pas::core::PeerObservation obs = heard[k];
    obs.received_at = now;
    table.update(obs);
    const auto velocity = table.expected_velocity();
    const auto arrival = table.predict_arrival(self, now, policy);
    benchmark::DoNotOptimize(velocity);
    benchmark::DoNotOptimize(arrival);
    if (++k == kDegree) k = 0;
    now += 0.01;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Core_RefreshEstimates);

/// The set-up world::Workspace runs before each replication's simulation:
/// deployment draws until the disk graph is connected (one graph per
/// attempt, storage reused), the arrival map, and Network::reset taking the
/// accepted graph on a warm network. Items are replications.
void world_setup(benchmark::State& state,
                 const pas::world::ScenarioConfig& cfg) {
  const auto model = pas::world::make_stimulus(cfg);
  const auto channel = std::make_shared<pas::net::PerfectChannel>();
  pas::stimulus::ArrivalMap arrivals;
  pas::sim::Simulator sim;
  pas::net::Network network(sim);
  pas::geom::DiskGraph graph;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const pas::sim::SeedSequence seeds(seed++);
    std::vector<pas::geom::Vec2> positions;
    bool connected = false;
    for (std::size_t attempt = 0;
         !connected && attempt < cfg.max_deployment_attempts; ++attempt) {
      auto rng = seeds.stream(pas::sim::SeedSequence::kDeployment, attempt);
      positions = pas::world::generate_deployment(cfg.deployment, rng);
      graph.build(positions, cfg.radio.range_m);
      connected = graph.connected();
    }
    arrivals.assign(*model, positions, cfg.duration_s);
    network.reset(positions, cfg.radio, channel, seeds, graph);
    benchmark::DoNotOptimize(network.mean_degree());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_World_Setup(benchmark::State& state) {
  // The paper scenario: radial front, whose arrival map is closed-form.
  world_setup(state, pas::world::paper_scenario());
}
BENCHMARK(BM_World_Setup);

/// examples/campaign.json's base scenario (a radial front with two
/// harmonics, 30 nodes, 150 s).
pas::world::ScenarioConfig campaign_base() {
  const std::string here = __FILE__;
  const std::string root = here.substr(0, here.find("bench/bench_kernel.cpp"));
  return pas::exp::Manifest::load(root + "examples/campaign.json").base;
}

void BM_World_SetupPlume(benchmark::State& state) {
  // examples/campaign.json's plume half: the arrival map searches the
  // plume's coarse probe grid for every node.
  auto cfg = campaign_base();
  cfg.stimulus = pas::world::StimulusKind::kPlume;
  world_setup(state, cfg);
}
BENCHMARK(BM_World_SetupPlume);

// --- Stimulus ---------------------------------------------------------------

/// A node sensing at a wake: examples/campaign.json's radial front over its
/// deployment, at times across the horizon. site:0 calls covered(p, t),
/// which pays atan2 and one cos per harmonic; site:1 calls
/// covered_at(site, t) with the node's site, as core::Protocol does. Items
/// are calls.
void BM_Stimulus_RadialCovered(benchmark::State& state) {
  const auto cfg = campaign_base();
  const auto model = pas::world::make_stimulus(cfg);
  auto rng = pas::sim::SeedSequence(1).stream(
      pas::sim::SeedSequence::kDeployment, 0);
  const auto positions = pas::world::generate_deployment(cfg.deployment, rng);
  std::vector<pas::stimulus::Site> sites;
  for (const auto p : positions) sites.push_back(model->site(p));
  const bool use_sites = state.range(0) != 0;
  std::size_t i = 0;
  double t = 0.0;
  std::size_t covered = 0;
  for (auto _ : state) {
    covered += use_sites ? model->covered_at(sites[i], t)
                         : model->covered(positions[i], t);
    if (++i == positions.size()) {
      i = 0;
      t = t + 0.37 > cfg.duration_s ? 0.0 : t + 0.37;
    }
  }
  benchmark::DoNotOptimize(covered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Stimulus_RadialCovered)->ArgName("site")->Arg(0)->Arg(1);

// --- Aggregation pipeline ---------------------------------------------------

pas::world::ReplicatedMetrics bench_point_metrics(std::size_t point,
                                                  std::size_t reps) {
  pas::world::ReplicatedMetrics m;
  const double d = 0.25 + 0.001 * static_cast<double>(point % 97);
  m.delay_s = {.n = reps, .mean = d, .stddev = 0.01, .min = d * 0.9,
               .max = d * 1.4, .ci95_half = 0.005};
  m.energy_j = {.n = reps, .mean = 1.5, .stddev = 0.02, .min = 1.4,
                .max = 1.6, .ci95_half = 0.01};
  m.active_fraction = {.n = reps, .mean = 0.05, .stddev = 0.0, .min = 0.05,
                       .max = 0.05, .ci95_half = 0.0};
  m.mean_missed = static_cast<double>(point % 3);
  m.mean_broadcasts = 100.0;
  m.runs.resize(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    m.runs[r].avg_delay_s = d + 0.01 * static_cast<double>(r);
    m.runs[r].avg_energy_j = 1.5;
  }
  return m;
}

pas::exp::AggregatorOptions bench_agg_options(const std::filesystem::path& dir,
                                              std::size_t points,
                                              std::size_t reps) {
  pas::exp::AggregatorOptions options;
  options.csv_path = (dir / "out.csv").string();
  options.json_path = (dir / "out.jsonl").string();
  options.per_run_path = (dir / "runs.csv").string();
  options.axis_names = {"x"};
  options.total_points = points;
  options.replications = reps;
  return options;
}

void BM_Aggregator_Record(benchmark::State& state) {
  // Record throughput: per-run rows + summary encoded, CRC'd, batched and
  // flushed once per point. The cost every worker pays per completed grid
  // point.
  constexpr std::size_t kPoints = 512;
  constexpr std::size_t kReps = 4;
  const auto dir = std::filesystem::temp_directory_path() / "pas_bench_agg_r";
  for (auto _ : state) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    pas::exp::Aggregator agg(bench_agg_options(dir, kPoints, kReps));
    agg.load_existing();
    for (std::size_t p = 0; p < kPoints; ++p) {
      agg.record(p, 1000 + p, {std::to_string(p)},
                 bench_point_metrics(p, kReps));
    }
    benchmark::DoNotOptimize(agg.done_count());
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(kPoints) *
                          state.iterations());
}
BENCHMARK(BM_Aggregator_Record)->Unit(benchmark::kMillisecond);

void BM_Aggregator_Finalize(benchmark::State& state) {
  // Finalize over a recorded store: index the records' offsets, read the
  // rows back in point order, stream the CSV/JSONL artifacts. Timed without
  // the record phase.
  constexpr std::size_t kPoints = 2048;
  constexpr std::size_t kReps = 4;
  const auto dir = std::filesystem::temp_directory_path() / "pas_bench_agg_f";
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      pas::exp::Aggregator agg(bench_agg_options(dir, kPoints, kReps));
      agg.load_existing();
      for (std::size_t p = 0; p < kPoints; ++p) {
        agg.record(p, 1000 + p, {std::to_string(p)},
                   bench_point_metrics(p, kReps));
      }
      state.ResumeTiming();
      agg.finalize();
    }
    benchmark::DoNotOptimize(dir);
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(kPoints) *
                          state.iterations());
}
BENCHMARK(BM_Aggregator_Finalize)->Unit(benchmark::kMillisecond);

void BM_Pcg32_Uniform(benchmark::State& state) {
  pas::sim::Pcg32 rng(42, 1);
  double acc = 0.0;
  for (auto _ : state) {
    acc += rng.uniform01();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Pcg32_Uniform);

}  // namespace

BENCHMARK_MAIN();
