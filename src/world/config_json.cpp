#include "world/config_json.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/policy.hpp"

namespace pas::world {

namespace {

io::Json vec_json(geom::Vec2 v) {
  io::Json j;
  j["x"] = v.x;
  j["y"] = v.y;
  return j;
}

io::Json radial_json(const stimulus::RadialFrontConfig& r) {
  io::Json j;
  j["source"] = vec_json(r.source);
  j["base_speed_mps"] = r.base_speed;
  j["accel"] = r.accel;
  j["start_time_s"] = r.start_time;
  j["max_radius_m"] = r.max_radius;
  io::Json harmonics;
  for (const auto& h : r.harmonics) {
    io::Json hj;
    hj["k"] = h.k;
    hj["amplitude"] = h.amplitude;
    hj["phase"] = h.phase;
    harmonics.push_back(std::move(hj));
  }
  j["harmonics"] = harmonics.is_null() ? io::Json(io::JsonArray{}) : harmonics;
  return j;
}

}  // namespace

io::Json to_json(const ScenarioConfig& config) {
  io::Json j;
  j["seed"] = static_cast<double>(config.seed);
  j["duration_s"] = config.duration_s;

  io::Json dep;
  dep["kind"] = to_string(config.deployment.kind);
  dep["count"] = config.deployment.count;
  dep["region_m"] = config.deployment.region.width();
  dep["grid_jitter"] = config.deployment.grid_jitter;
  dep["min_separation"] = config.deployment.min_separation;
  j["deployment"] = std::move(dep);

  io::Json radio;
  radio["range_m"] = config.radio.range_m;
  radio["data_rate_bps"] = config.radio.data_rate_bps;
  radio["max_jitter_s"] = config.radio.max_jitter_s;
  radio["propagation_s"] = config.radio.propagation_s;
  j["radio"] = std::move(radio);

  io::Json power;
  power["mcu_active_w"] = config.power.mcu_active_w;
  power["sleep_w"] = config.power.sleep_w;
  power["radio_rx_w"] = config.power.radio_rx_w;
  power["radio_tx_w"] = config.power.radio_tx_w;
  power["transition_w"] = config.power.transition_w;
  power["transition_time_s"] = config.power.transition_time_s;
  power["data_rate_bps"] = config.power.data_rate_bps;
  j["power"] = std::move(power);

  io::Json proto;
  proto["policy"] = std::string(core::to_string(config.protocol.policy));
  proto["alert_threshold_s"] = config.protocol.alert_threshold_s;
  proto["sleep_ramp"] = node::to_string(config.protocol.sleep.kind);
  proto["sleep_initial_s"] = config.protocol.sleep.initial_s;
  proto["sleep_increment_s"] = config.protocol.sleep.increment_s;
  proto["sleep_max_s"] = config.protocol.sleep.max_s;
  proto["response_wait_s"] = config.protocol.response_wait_s;
  proto["covered_timeout_s"] = config.protocol.covered_timeout_s;
  io::Json duty;
  duty["period_s"] = config.protocol.duty_cycle.period_s;
  proto["duty_cycle"] = std::move(duty);
  io::Json hold;
  hold["hold_window_s"] = config.protocol.threshold_hold.hold_window_s;
  proto["threshold_hold"] = std::move(hold);
  j["protocol"] = std::move(proto);

  io::Json stim;
  stim["kind"] = to_string(config.stimulus);
  switch (config.stimulus) {
    case StimulusKind::kRadial:
      stim["radial"] = radial_json(config.radial);
      break;
    case StimulusKind::kTwoSources:
      stim["radial"] = radial_json(config.radial);
      stim["radial_second"] = radial_json(config.radial_second);
      break;
    case StimulusKind::kPde: {
      io::Json p;
      p["source"] = vec_json(config.pde.source);
      p["diffusivity"] = config.pde.diffusivity;
      p["wind"] = vec_json(config.pde.wind);
      p["source_rate"] = config.pde.source_rate;
      p["threshold"] = config.pde.threshold;
      p["grid"] = config.pde.nx;
      stim["pde"] = std::move(p);
      break;
    }
    case StimulusKind::kPlume: {
      io::Json p;
      p["source"] = vec_json(config.plume.source);
      p["mass"] = config.plume.mass;
      p["diffusivity"] = config.plume.diffusivity;
      p["wind"] = vec_json(config.plume.wind);
      p["threshold"] = config.plume.threshold;
      stim["plume"] = std::move(p);
      break;
    }
  }
  j["stimulus"] = std::move(stim);

  io::Json chan;
  chan["kind"] = to_string(config.channel);
  switch (config.channel) {
    case ChannelKind::kPerfect: break;
    case ChannelKind::kBernoulli:
      chan["loss"] = config.channel_loss;
      break;
    case ChannelKind::kGilbertElliott:
      chan["p_good_to_bad"] = config.gilbert.p_good_to_bad;
      chan["p_bad_to_good"] = config.gilbert.p_bad_to_good;
      chan["loss_good"] = config.gilbert.loss_good;
      chan["loss_bad"] = config.gilbert.loss_bad;
      break;
  }
  j["channel"] = std::move(chan);

  io::Json fail;
  fail["fraction"] = config.failures.fraction;
  fail["window_start_s"] = config.failures.window_start_s;
  fail["window_end_s"] = config.failures.window_end_s;
  j["failures"] = std::move(fail);

  io::Json mac;
  mac["enabled"] = config.mac.enabled;
  mac["slot_period_s"] = config.mac.slot_period_s;
  mac["cca_s"] = config.mac.cca_s;
  mac["backoff_unit_s"] = config.mac.backoff_unit_s;
  mac["max_backoff_exponent"] = config.mac.max_backoff_exponent;
  mac["max_attempts"] = config.mac.max_attempts;
  mac["ack_wait_s"] = config.mac.ack_wait_s;
  mac["capture_margin_s"] = config.mac.capture_margin_s;
  j["mac"] = std::move(mac);

  io::Json coll;
  coll["sink_placement"] = std::string(net::to_string(config.collection.sink_placement));
  coll["max_hops"] = static_cast<double>(config.collection.max_hops);
  coll["node_queue_limit"] =
      static_cast<double>(config.collection.node_queue_limit);
  j["collection"] = std::move(coll);
  return j;
}

io::Json to_json(const metrics::RunMetrics& m) {
  io::Json j;
  j["node_count"] = m.node_count;
  j["duration_s"] = m.duration_s;
  j["avg_delay_s"] = m.avg_delay_s;
  j["p95_delay_s"] = m.p95_delay_s;
  j["max_delay_s"] = m.max_delay_s;
  j["reached"] = m.reached;
  j["detected"] = m.detected;
  j["missed"] = m.missed;
  j["censored"] = m.censored;
  j["avg_energy_j"] = m.avg_energy_j;
  j["total_energy_j"] = m.total_energy_j;
  j["avg_active_fraction"] = m.avg_active_fraction;
  j["broadcasts"] = m.network.broadcasts;
  j["deliveries"] = m.network.deliveries;
  j["dropped_channel"] = m.network.dropped_channel;
  j["wakeups"] = m.protocol.wakeups;
  j["alert_entries"] = m.protocol.alert_entries;
  j["responses_pushed"] = m.protocol.responses_pushed;
  j["failures"] = m.protocol.failures;
  return j;
}

io::Json to_json(const metrics::NodeOutcome& o) {
  io::Json j;
  j["id"] = static_cast<double>(o.id);
  j["position"] = vec_json(o.position);
  j["arrival_s"] = o.arrival;     // NaN/inf render as null
  j["detected_s"] = o.detected;
  j["delay_s"] = o.was_detected ? io::Json(o.delay_s) : io::Json(nullptr);
  j["reached"] = o.was_reached;
  j["failed"] = o.failed;
  j["energy_j"] = o.energy_j;
  j["energy_tx_j"] = o.energy_tx_j;
  j["active_s"] = o.active_s;
  j["transitions"] = static_cast<double>(o.transitions);
  return j;
}

io::Json run_record(const ScenarioConfig& config, const RunResult& result) {
  io::Json j;
  j["config"] = to_json(config);
  j["metrics"] = to_json(result.metrics);
  io::Json outcomes{io::JsonArray{}};
  for (const auto& o : result.outcomes) outcomes.push_back(to_json(o));
  j["outcomes"] = std::move(outcomes);
  return j;
}

// --- Deserialisation --------------------------------------------------------

namespace {

[[noreturn]] void unknown_value(const char* what, std::string_view s) {
  throw std::runtime_error(std::string("scenario_from_json: unknown ") + what +
                           " \"" + std::string(s) + "\"");
}

void read_known_keys(const io::Json& j, const char* context,
                     std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : j.as_object()) {
    (void)value;
    bool ok = false;
    for (const auto k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      throw std::runtime_error(std::string("scenario_from_json: unknown key \"") +
                               key + "\" in " + context);
    }
  }
}

geom::Vec2 vec_from_json(const io::Json& j) {
  read_known_keys(j, "vector", {"x", "y"});
  return geom::Vec2{j.number_or("x", 0.0), j.number_or("y", 0.0)};
}

stimulus::RadialFrontConfig radial_from_json(
    const io::Json& j, stimulus::RadialFrontConfig base) {
  read_known_keys(j, "radial", {"source", "base_speed_mps", "accel",
                                "start_time_s", "max_radius_m", "harmonics"});
  if (j.contains("source")) base.source = vec_from_json(j.at("source"));
  base.base_speed = j.number_or("base_speed_mps", base.base_speed);
  base.accel = j.number_or("accel", base.accel);
  base.start_time = j.number_or("start_time_s", base.start_time);
  base.max_radius = j.number_or("max_radius_m", base.max_radius);
  if (j.contains("harmonics")) {
    base.harmonics.clear();
    for (const auto& h : j.at("harmonics").as_array()) {
      read_known_keys(h, "harmonic", {"k", "amplitude", "phase"});
      base.harmonics.push_back(stimulus::RadialFrontConfig::Harmonic{
          .k = h.integer_or("k", 1),
          .amplitude = h.number_or("amplitude", 0.0),
          .phase = h.number_or("phase", 0.0),
      });
    }
  }
  return base;
}

}  // namespace

StimulusKind stimulus_kind_from_string(std::string_view s) {
  if (s == "radial") return StimulusKind::kRadial;
  if (s == "pde") return StimulusKind::kPde;
  if (s == "plume") return StimulusKind::kPlume;
  if (s == "two-sources") return StimulusKind::kTwoSources;
  unknown_value("stimulus kind", s);
}

ChannelKind channel_kind_from_string(std::string_view s) {
  if (s == "perfect") return ChannelKind::kPerfect;
  if (s == "bernoulli") return ChannelKind::kBernoulli;
  if (s == "gilbert-elliott") return ChannelKind::kGilbertElliott;
  unknown_value("channel kind", s);
}

DeploymentKind deployment_kind_from_string(std::string_view s) {
  if (s == "grid") return DeploymentKind::kGrid;
  if (s == "uniform") return DeploymentKind::kUniform;
  if (s == "poisson-disk") return DeploymentKind::kPoissonDisk;
  unknown_value("deployment kind", s);
}

core::Policy policy_from_string(std::string_view s) {
  // The registry is the single source of policy names; its error message
  // already lists the registered ones.
  return core::policy_from_name(s);
}

node::RampKind ramp_kind_from_string(std::string_view s) {
  if (s == "linear") return node::RampKind::kLinear;
  if (s == "exponential") return node::RampKind::kExponential;
  if (s == "fixed") return node::RampKind::kFixed;
  unknown_value("ramp kind", s);
}

ScenarioConfig scenario_from_json(const io::Json& j, ScenarioConfig base) {
  read_known_keys(j, "scenario",
                  {"seed", "duration_s", "deployment", "radio", "power",
                   "protocol", "stimulus", "channel", "failures", "mac",
                   "collection"});

  base.seed = j.integer_or("seed", base.seed);
  base.duration_s = j.number_or("duration_s", base.duration_s);

  if (j.contains("deployment")) {
    const auto& d = j.at("deployment");
    read_known_keys(d, "deployment",
                    {"kind", "count", "region_m", "grid_jitter",
                     "min_separation"});
    if (d.contains("kind")) {
      base.deployment.kind = deployment_kind_from_string(d.at("kind").as_string());
    }
    base.deployment.count = d.integer_or("count", base.deployment.count);
    if (d.contains("region_m")) {
      base.deployment.region = geom::Aabb::square(d.at("region_m").as_double());
    }
    base.deployment.grid_jitter =
        d.number_or("grid_jitter", base.deployment.grid_jitter);
    base.deployment.min_separation =
        d.number_or("min_separation", base.deployment.min_separation);
  }

  if (j.contains("radio")) {
    const auto& r = j.at("radio");
    read_known_keys(r, "radio",
                    {"range_m", "data_rate_bps", "max_jitter_s",
                     "propagation_s"});
    base.radio.range_m = r.number_or("range_m", base.radio.range_m);
    if (!(base.radio.range_m > 0.0) || !std::isfinite(base.radio.range_m)) {
      throw std::runtime_error(
          "scenario_from_json: radio.range_m must be finite and > 0");
    }
    base.radio.data_rate_bps =
        r.number_or("data_rate_bps", base.radio.data_rate_bps);
    base.radio.max_jitter_s =
        r.number_or("max_jitter_s", base.radio.max_jitter_s);
    base.radio.propagation_s =
        r.number_or("propagation_s", base.radio.propagation_s);
  }

  if (j.contains("power")) {
    const auto& p = j.at("power");
    read_known_keys(p, "power",
                    {"mcu_active_w", "sleep_w", "radio_rx_w", "radio_tx_w",
                     "transition_w", "transition_time_s", "data_rate_bps"});
    base.power.mcu_active_w = p.number_or("mcu_active_w", base.power.mcu_active_w);
    base.power.sleep_w = p.number_or("sleep_w", base.power.sleep_w);
    base.power.radio_rx_w = p.number_or("radio_rx_w", base.power.radio_rx_w);
    base.power.radio_tx_w = p.number_or("radio_tx_w", base.power.radio_tx_w);
    base.power.transition_w = p.number_or("transition_w", base.power.transition_w);
    base.power.transition_time_s =
        p.number_or("transition_time_s", base.power.transition_time_s);
    base.power.data_rate_bps =
        p.number_or("data_rate_bps", base.power.data_rate_bps);
  }

  if (j.contains("protocol")) {
    const auto& p = j.at("protocol");
    read_known_keys(
        p, "protocol",
        {"policy", "alert_threshold_s", "sleep_ramp", "sleep_initial_s",
         "sleep_increment_s", "sleep_factor", "sleep_max_s", "response_wait_s",
         "covered_timeout_s", "duty_cycle", "threshold_hold"});
    if (p.contains("policy")) {
      base.protocol.policy = policy_from_string(p.at("policy").as_string());
    }
    base.protocol.alert_threshold_s =
        p.number_or("alert_threshold_s", base.protocol.alert_threshold_s);
    if (p.contains("sleep_ramp")) {
      base.protocol.sleep.kind =
          ramp_kind_from_string(p.at("sleep_ramp").as_string());
    }
    base.protocol.sleep.initial_s =
        p.number_or("sleep_initial_s", base.protocol.sleep.initial_s);
    base.protocol.sleep.increment_s =
        p.number_or("sleep_increment_s", base.protocol.sleep.increment_s);
    base.protocol.sleep.factor =
        p.number_or("sleep_factor", base.protocol.sleep.factor);
    base.protocol.sleep.max_s =
        p.number_or("sleep_max_s", base.protocol.sleep.max_s);
    base.protocol.response_wait_s =
        p.number_or("response_wait_s", base.protocol.response_wait_s);
    base.protocol.covered_timeout_s =
        p.number_or("covered_timeout_s", base.protocol.covered_timeout_s);
    // Per-policy parameter blocks; present or not independently of which
    // policy is selected (a campaign may sweep the policy axis).
    if (p.contains("duty_cycle")) {
      const auto& d = p.at("duty_cycle");
      read_known_keys(d, "duty_cycle", {"period_s"});
      base.protocol.duty_cycle.period_s =
          d.number_or("period_s", base.protocol.duty_cycle.period_s);
    }
    if (p.contains("threshold_hold")) {
      const auto& t = p.at("threshold_hold");
      read_known_keys(t, "threshold_hold", {"hold_window_s"});
      base.protocol.threshold_hold.hold_window_s = t.number_or(
          "hold_window_s", base.protocol.threshold_hold.hold_window_s);
    }
  }

  if (j.contains("stimulus")) {
    const auto& s = j.at("stimulus");
    read_known_keys(s, "stimulus",
                    {"kind", "radial", "radial_second", "pde", "plume"});
    if (s.contains("kind")) {
      base.stimulus = stimulus_kind_from_string(s.at("kind").as_string());
    }
    if (s.contains("radial")) {
      base.radial = radial_from_json(s.at("radial"), base.radial);
    }
    if (s.contains("radial_second")) {
      base.radial_second =
          radial_from_json(s.at("radial_second"), base.radial_second);
    }
    if (s.contains("pde")) {
      const auto& p = s.at("pde");
      read_known_keys(p, "pde", {"source", "diffusivity", "wind",
                                 "source_rate", "threshold", "grid"});
      if (p.contains("source")) base.pde.source = vec_from_json(p.at("source"));
      base.pde.diffusivity = p.number_or("diffusivity", base.pde.diffusivity);
      if (p.contains("wind")) base.pde.wind = vec_from_json(p.at("wind"));
      base.pde.source_rate = p.number_or("source_rate", base.pde.source_rate);
      base.pde.threshold = p.number_or("threshold", base.pde.threshold);
      if (p.contains("grid")) {
        base.pde.nx = io::to_integer<int>(p.at("grid").as_double(), "grid");
        base.pde.ny = base.pde.nx;
      }
    }
    if (s.contains("plume")) {
      const auto& p = s.at("plume");
      read_known_keys(p, "plume",
                      {"source", "mass", "diffusivity", "wind", "threshold"});
      if (p.contains("source")) base.plume.source = vec_from_json(p.at("source"));
      base.plume.mass = p.number_or("mass", base.plume.mass);
      base.plume.diffusivity = p.number_or("diffusivity", base.plume.diffusivity);
      if (p.contains("wind")) base.plume.wind = vec_from_json(p.at("wind"));
      base.plume.threshold = p.number_or("threshold", base.plume.threshold);
    }
  }

  if (j.contains("channel")) {
    const auto& c = j.at("channel");
    read_known_keys(c, "channel",
                    {"kind", "loss", "p_good_to_bad", "p_bad_to_good",
                     "loss_good", "loss_bad"});
    if (c.contains("kind")) {
      base.channel = channel_kind_from_string(c.at("kind").as_string());
    }
    base.channel_loss = c.number_or("loss", base.channel_loss);
    base.gilbert.p_good_to_bad =
        c.number_or("p_good_to_bad", base.gilbert.p_good_to_bad);
    base.gilbert.p_bad_to_good =
        c.number_or("p_bad_to_good", base.gilbert.p_bad_to_good);
    base.gilbert.loss_good = c.number_or("loss_good", base.gilbert.loss_good);
    base.gilbert.loss_bad = c.number_or("loss_bad", base.gilbert.loss_bad);
  }

  if (j.contains("failures")) {
    const auto& f = j.at("failures");
    read_known_keys(f, "failures",
                    {"fraction", "window_start_s", "window_end_s"});
    base.failures.fraction = f.number_or("fraction", base.failures.fraction);
    base.failures.window_start_s =
        f.number_or("window_start_s", base.failures.window_start_s);
    base.failures.window_end_s =
        f.number_or("window_end_s", base.failures.window_end_s);
  }

  if (j.contains("mac")) {
    const auto& m = j.at("mac");
    read_known_keys(m, "mac",
                    {"enabled", "slot_period_s", "cca_s", "backoff_unit_s",
                     "max_backoff_exponent", "max_attempts", "ack_wait_s",
                     "capture_margin_s"});
    base.mac.enabled = m.bool_or("enabled", base.mac.enabled);
    base.mac.slot_period_s =
        m.number_or("slot_period_s", base.mac.slot_period_s);
    base.mac.cca_s = m.number_or("cca_s", base.mac.cca_s);
    base.mac.backoff_unit_s =
        m.number_or("backoff_unit_s", base.mac.backoff_unit_s);
    base.mac.max_backoff_exponent =
        m.integer_or("max_backoff_exponent", base.mac.max_backoff_exponent);
    base.mac.max_attempts = m.integer_or("max_attempts", base.mac.max_attempts);
    base.mac.ack_wait_s = m.number_or("ack_wait_s", base.mac.ack_wait_s);
    base.mac.capture_margin_s =
        m.number_or("capture_margin_s", base.mac.capture_margin_s);
  }

  if (j.contains("collection")) {
    const auto& c = j.at("collection");
    read_known_keys(c, "collection",
                    {"sink_placement", "max_hops", "node_queue_limit"});
    if (c.contains("sink_placement")) {
      base.collection.sink_placement =
          net::sink_placement_from_string(c.at("sink_placement").as_string());
    }
    base.collection.max_hops = c.integer_or("max_hops", base.collection.max_hops);
    base.collection.node_queue_limit =
        c.integer_or("node_queue_limit", base.collection.node_queue_limit);
  }

  return base;
}

}  // namespace pas::world
