#include "world/workspace.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/protocol.hpp"
#include "node/failure_model.hpp"

namespace pas::world {

bool same_stimulus(const ScenarioConfig& a, const ScenarioConfig& b) noexcept {
  if (a.stimulus != b.stimulus) return false;
  switch (a.stimulus) {
    case StimulusKind::kRadial:
      return a.radial == b.radial;
    case StimulusKind::kPde:
      return a.pde == b.pde;
    case StimulusKind::kPlume:
      return a.plume == b.plume;
    case StimulusKind::kTwoSources:
      return a.radial == b.radial && a.radial_second == b.radial_second;
  }
  return false;
}

namespace {

std::shared_ptr<net::Channel> make_channel(const ScenarioConfig& config) {
  switch (config.channel) {
    case ChannelKind::kPerfect:
      return std::make_shared<net::PerfectChannel>();
    case ChannelKind::kBernoulli:
      return std::make_shared<net::BernoulliLossChannel>(config.channel_loss);
    case ChannelKind::kGilbertElliott:
      return std::make_shared<net::GilbertElliottChannel>(config.gilbert);
  }
  throw std::logic_error("make_channel: unknown channel kind");
}

}  // namespace

const stimulus::StimulusModel& Workspace::model_for(
    const ScenarioConfig& config) {
  // The model is a pure function of the config's stimulus section — seeds
  // never enter it — so replications of one sweep point always hit. For the
  // PDE model a hit skips a full solver integration.
  if (!model_valid_ || !same_stimulus(model_key_, config)) {
    model_ = make_stimulus(config);
    model_key_ = config;
    model_valid_ = true;
  }
  return *model_;
}

void Workspace::execute(const ScenarioConfig& config,
                        sim::TraceLog* trace_log) {
  config.protocol.validate();
  if (config.duration_s <= 0.0) {
    throw std::invalid_argument("run_scenario: duration must be > 0");
  }
  if (!(config.radio.range_m > 0.0) || !std::isfinite(config.radio.range_m)) {
    throw std::invalid_argument(
        "run_scenario: radio.range_m must be finite and > 0");
  }

  const sim::SeedSequence seeds(config.seed);

  // Deployment: redraw until the disk graph is connected, exactly like a
  // fresh run (each attempt advances the dedicated deployment stream). Each
  // attempt builds its disk graph once: the search checks it, and the
  // accepted attempt's lists become the network's neighbor lists.
  bool connected = false;
  for (std::size_t attempt = 0; attempt < config.max_deployment_attempts;
       ++attempt) {
    sim::Pcg32 rng = seeds.stream(sim::SeedSequence::kDeployment, attempt);
    positions_ = generate_deployment(config.deployment, rng);
    graph_.build(positions_, config.radio.range_m);
    if (graph_.connected()) {
      deployment_attempts_ = attempt + 1;
      connected = true;
      break;
    }
  }
  if (!connected) {
    throw std::runtime_error(
        "run_scenario: no connected deployment found; increase density, "
        "range, or max_deployment_attempts");
  }

  const stimulus::StimulusModel& model = model_for(config);
  arrivals_.assign(model, positions_, config.duration_s);

  simulator_.reset();
  if (!network_.has_value()) network_.emplace(simulator_);
  network_->reset(positions_, config.radio, make_channel(config), seeds,
                  graph_);

  nodes_.resize(positions_.size());
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    node::SensorNode fresh;
    fresh.id = i;
    fresh.position = positions_[i];
    fresh.meter =
        energy::EnergyMeter(config.power, 0.0, energy::PowerMode::kActive);
    fresh.arrival = arrivals_.at(i);
    nodes_[i] = fresh;
  }

  network_->set_tx_hook([this](std::uint32_t id, std::size_t bits) {
    nodes_[id].meter.add_tx(bits);
  });
  // Reception while active is already covered by the 41 mW idle-listen
  // power (see EnergyMeter docs); no rx hook in the default accounting.

  // Slotted LPL MAC + multihop collection (off by default). The MAC consumes
  // the dedicated kMacSlot/kMacBackoff seed domains only when enabled, so a
  // mac-off run stays byte-identical to pre-MAC builds.
  if (config.mac.enabled) {
    config.mac.validate();
    config.collection.validate();
    if (mac_.has_value()) {
      mac_->reset(config.mac, seeds);
    } else {
      mac_.emplace(simulator_, *network_);
      mac_->reset(config.mac, seeds);
    }
    network_->attach_mac(&*mac_);
    mac_->set_cca_hook(
        [this](std::uint32_t id, sim::Duration s, std::uint64_t count) {
          nodes_[id].meter.add_cca(s, count);
        });
    mac_->set_preamble_hook([this](std::uint32_t id, sim::Duration s) {
      nodes_[id].meter.add_preamble(s);
    });
    mac_->set_listen_hook([this](std::uint32_t id, sim::Duration s) {
      nodes_[id].meter.add_listen(s);
    });
    mac_->set_tx_hook([this](std::uint32_t id, std::size_t bits) {
      nodes_[id].meter.add_tx(bits);
    });
    mac_->set_trace(trace_log);
  } else {
    network_->attach_mac(nullptr);
  }

  net::Collection* collection = nullptr;
  if (config.mac.enabled) {
    // The relay decision is the policy's; instantiate it briefly to ask
    // (the Protocol below builds its own copy from the same config).
    const auto policy = core::make_policy(config.protocol);
    if (!collection_.has_value()) {
      collection_.emplace(simulator_, *network_, *mac_);
    }
    collection_->reset(config.collection, policy->wants_collection_relay(),
                       config.deployment.region, trace_log);
    collection = &*collection_;
  }

  node::FailurePlan failures(nodes_.size(), config.failures,
                             seeds.stream(sim::SeedSequence::kFailure));

  core::Protocol protocol(simulator_, *network_, nodes_, model, arrivals_,
                          config.protocol, seeds, &failures, trace_log,
                          collection);
  protocol.start();
  simulator_.run_until(config.duration_s);
  // The MAC books its sleepers' idle slot samples lazily; bring it up to the
  // horizon before outcomes and stats are read.
  if (config.mac.enabled) mac_->settle();

  for (auto& n : nodes_) n.meter.finalize(config.duration_s);

  metrics::collect_outcomes(nodes_, outcomes_);
  // A sleeping node reached within its last possible sleep interval may not
  // have woken before the horizon; count those as censored, not missed. The
  // policy knows its own worst-case interval (sleep.max_s for the ramping
  // policies, period_s for DutyCycle, nothing for NS).
  const core::SleepingPolicy& policy = protocol.sleeping_policy();
  const double censor_cutoff =
      policy.sleeps() ? config.duration_s - policy.max_sleep_s() - 1.0
                      : config.duration_s;
  metrics_ = metrics::summarize(outcomes_, config.duration_s, censor_cutoff,
                                network_->stats(), protocol.stats());

  // Kernel counters are lifted here, not in summarize(): only the workspace
  // holds the simulator, and reset() above re-zeroed them for this run.
  const sim::EventQueue::Stats& queue = simulator_.queue_stats();
  metrics_.kernel.events_scheduled = queue.pushed;
  metrics_.kernel.events_dispatched = simulator_.executed_events();
  metrics_.kernel.events_cancelled = queue.cancelled;
  metrics_.kernel.max_pending = queue.max_live;
  metrics_.kernel.timer_reschedules = protocol.timer_reschedules();
  metrics_.kernel.rung_spawns = queue.rung_spawns;
  metrics_.kernel.bucket_resizes = queue.bucket_resizes;
  metrics_.kernel.max_bucket = queue.max_bucket;
  metrics_.kernel.dead_skips = queue.dead_skips;

  // Net-layer counters, same pattern: the summarizer never sees the MAC.
  metrics_.mac = config.mac.enabled ? mac_->stats() : net::MacStats{};
  metrics_.collection =
      config.mac.enabled ? collection_->stats() : net::CollectionStats{};
}

RunResult Workspace::run(const ScenarioConfig& config) {
  RunResult result;
  result.trace.enable(config.enable_trace);
  execute(config, &result.trace);
  result.positions = positions_;
  result.outcomes = outcomes_;
  result.metrics = metrics_;
  result.deployment_attempts = deployment_attempts_;
  return result;
}

const metrics::RunMetrics& Workspace::run_metrics(
    const ScenarioConfig& config) {
  execute(config, nullptr);
  return metrics_;
}

}  // namespace pas::world
