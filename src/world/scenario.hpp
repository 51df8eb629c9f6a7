// Scenario assembly and execution — the library's top-level API.
//
// A ScenarioConfig fully describes one simulated run (deployment, stimulus,
// radio/channel, protocol policy, failures, duration); run_scenario()
// builds the world, drives the simulation, and returns metrics + per-node
// outcomes. Identical configs (same seed) produce identical results.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "energy/power_profile.hpp"
#include "geom/aabb.hpp"
#include "metrics/report.hpp"
#include "net/collection.hpp"
#include "net/mac.hpp"
#include "net/network.hpp"
#include "node/failure_model.hpp"
#include "sim/trace.hpp"
#include "stimulus/advection_diffusion.hpp"
#include "stimulus/arrival_map.hpp"
#include "stimulus/composite.hpp"
#include "stimulus/plume.hpp"
#include "stimulus/radial_front.hpp"
#include "world/deployment.hpp"

namespace pas::world {

enum class StimulusKind : std::uint8_t {
  kRadial,
  kPde,
  kPlume,
  /// Two simultaneous radial releases (config.radial + config.radial_second)
  /// merged by stimulus::CompositeModel.
  kTwoSources,
};

[[nodiscard]] constexpr const char* to_string(StimulusKind k) noexcept {
  switch (k) {
    case StimulusKind::kRadial: return "radial";
    case StimulusKind::kPde: return "pde";
    case StimulusKind::kPlume: return "plume";
    case StimulusKind::kTwoSources: return "two-sources";
  }
  return "?";
}

enum class ChannelKind : std::uint8_t {
  kPerfect,
  kBernoulli,
  kGilbertElliott,
};

struct ScenarioConfig {
  std::uint64_t seed = 1;

  DeploymentConfig deployment{};
  /// Deployments whose disk graph is disconnected are redrawn up to this
  /// many times (each attempt advances the deployment RNG stream).
  std::size_t max_deployment_attempts = 64;

  net::RadioConfig radio{};
  energy::PowerProfile power = energy::PowerProfile::telos();
  core::ProtocolConfig protocol{};

  StimulusKind stimulus = StimulusKind::kRadial;
  stimulus::RadialFrontConfig radial{};
  /// Second release for StimulusKind::kTwoSources.
  stimulus::RadialFrontConfig radial_second{};
  stimulus::AdvectionDiffusionConfig pde{};
  stimulus::GaussianPlumeConfig plume{};

  ChannelKind channel = ChannelKind::kPerfect;
  double channel_loss = 0.0;  // Bernoulli loss probability
  net::GilbertElliottChannel::Params gilbert{};

  node::FailureConfig failures{};

  /// Slotted LPL MAC (off by default — the coin-flip single-hop path; runs
  /// are byte-identical to pre-MAC builds while disabled).
  net::MacConfig mac{};
  /// Multihop collection tree (only active when mac.enabled).
  net::CollectionConfig collection{};

  /// Simulated duration (s).
  sim::Duration duration_s = 150.0;

  bool enable_trace = false;
};

/// Structured run telemetry: kernel and protocol counters accumulated over
/// one or more runs. Campaign code add()s every replication's RunMetrics
/// into one of these per point. All fields are pure functions of the
/// configs + seeds involved, so telemetry is byte-reproducible however the
/// runs were scheduled.
struct RunTelemetry {
  std::size_t runs = 0;
  metrics::KernelStats kernel{};
  core::ProtocolStats protocol{};
  net::MacStats mac{};
  net::CollectionStats collection{};

  void add(const metrics::RunMetrics& m) {
    ++runs;
    kernel.add(m.kernel);
    protocol.add(m.protocol);
    mac.add(m.mac);
    collection.add(m.collection);
  }
};

struct RunResult {
  metrics::RunMetrics metrics{};
  std::vector<metrics::NodeOutcome> outcomes;
  std::vector<geom::Vec2> positions;
  sim::TraceLog trace;
  /// Deployment attempts consumed before a connected layout was found.
  std::size_t deployment_attempts = 1;
};

/// Builds the stimulus model configured by `config` (exposed for tests and
/// examples that want the model without running a scenario).
[[nodiscard]] std::unique_ptr<stimulus::StimulusModel> make_stimulus(
    const ScenarioConfig& config);

/// Runs one complete simulation.
[[nodiscard]] RunResult run_scenario(const ScenarioConfig& config);

}  // namespace pas::world
