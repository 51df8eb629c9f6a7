#include "exp/axis.hpp"

#include <cmath>
#include <stdexcept>

#include "io/csv.hpp"
#include "world/config_json.hpp"

namespace pas::exp {

AxisKind axis_kind_from_string(std::string_view s) {
  if (s == "policy") return AxisKind::kPolicy;
  if (s == "max_sleep_s") return AxisKind::kMaxSleep;
  if (s == "alert_threshold_s") return AxisKind::kAlertThreshold;
  if (s == "node_count") return AxisKind::kNodeCount;
  if (s == "stimulus") return AxisKind::kStimulus;
  if (s == "failure_fraction") return AxisKind::kFailureFraction;
  if (s == "channel_loss") return AxisKind::kChannelLoss;
  if (s == "duration_s") return AxisKind::kDuration;
  if (s == "deployment") return AxisKind::kDeployment;
  if (s == "radio_range_m") return AxisKind::kRadioRange;
  if (s == "sleep_ramp") return AxisKind::kSleepRamp;
  if (s == "ge_p_good_to_bad") return AxisKind::kGilbertPGoodToBad;
  if (s == "duty_cycle_period_s") return AxisKind::kDutyCyclePeriod;
  if (s == "hold_window_s") return AxisKind::kHoldWindow;
  if (s == "mac") return AxisKind::kMacEnabled;
  if (s == "slot_period_s") return AxisKind::kSlotPeriod;
  if (s == "topology") return AxisKind::kTopology;
  if (s == "sink_placement") return AxisKind::kSinkPlacement;
  throw std::runtime_error("Axis: unknown axis \"" + std::string(s) + "\"");
}

std::string Axis::value_string(std::size_t i) const {
  if (axis_is_categorical(kind)) return labels.at(i);
  return io::format_double(numbers.at(i));
}

void Axis::apply(world::ScenarioConfig& config, std::size_t i) const {
  switch (kind) {
    case AxisKind::kPolicy:
      config.protocol.policy = world::policy_from_string(labels.at(i));
      break;
    case AxisKind::kMaxSleep:
      config.protocol.sleep.max_s = numbers.at(i);
      break;
    case AxisKind::kAlertThreshold:
      config.protocol.alert_threshold_s = numbers.at(i);
      break;
    case AxisKind::kNodeCount:
      if (numbers.at(i) < 0.0) {
        throw std::invalid_argument("Axis node_count: value must be >= 0");
      }
      config.deployment.count =
          io::to_integer<std::size_t>(numbers.at(i), "node_count");
      break;
    case AxisKind::kStimulus:
      config.stimulus = world::stimulus_kind_from_string(labels.at(i));
      break;
    case AxisKind::kFailureFraction:
      config.failures.fraction = numbers.at(i);
      // A failure axis is meaningless with a zero-length window; default to
      // the whole run unless the manifest base configured one.
      if (config.failures.window_end_s <= config.failures.window_start_s) {
        config.failures.window_end_s = config.duration_s;
      }
      break;
    case AxisKind::kChannelLoss:
      config.channel_loss = numbers.at(i);
      if (config.channel == world::ChannelKind::kPerfect &&
          config.channel_loss > 0.0) {
        config.channel = world::ChannelKind::kBernoulli;
      }
      break;
    case AxisKind::kDuration:
      config.duration_s = numbers.at(i);
      break;
    case AxisKind::kDeployment:
      config.deployment.kind =
          world::deployment_kind_from_string(labels.at(i));
      break;
    case AxisKind::kRadioRange:
      if (!(numbers.at(i) > 0.0) || !std::isfinite(numbers.at(i))) {
        throw std::invalid_argument(
            "Axis radio_range_m: value must be finite and > 0");
      }
      config.radio.range_m = numbers.at(i);
      break;
    case AxisKind::kSleepRamp:
      config.protocol.sleep.kind =
          world::ramp_kind_from_string(labels.at(i));
      break;
    case AxisKind::kGilbertPGoodToBad:
      if (numbers.at(i) < 0.0 || numbers.at(i) > 1.0) {
        throw std::invalid_argument(
            "Axis ge_p_good_to_bad: value must be in [0, 1]");
      }
      config.gilbert.p_good_to_bad = numbers.at(i);
      // Sweeping a Gilbert–Elliott parameter implies the bursty channel;
      // the other GE parameters come from the manifest base (or defaults).
      config.channel = world::ChannelKind::kGilbertElliott;
      break;
    case AxisKind::kDutyCyclePeriod:
      if (numbers.at(i) <= 0.0) {
        throw std::invalid_argument(
            "Axis duty_cycle_period_s: value must be > 0");
      }
      config.protocol.duty_cycle.period_s = numbers.at(i);
      break;
    case AxisKind::kHoldWindow:
      if (numbers.at(i) < 0.0) {
        throw std::invalid_argument("Axis hold_window_s: value must be >= 0");
      }
      config.protocol.threshold_hold.hold_window_s = numbers.at(i);
      break;
    case AxisKind::kMacEnabled: {
      const std::string& v = labels.at(i);
      if (v != "on" && v != "off") {
        throw std::invalid_argument("Axis mac: values must be on/off");
      }
      config.mac.enabled = v == "on";
      break;
    }
    case AxisKind::kSlotPeriod:
      if (numbers.at(i) <= 0.0) {
        throw std::invalid_argument("Axis slot_period_s: value must be > 0");
      }
      config.mac.slot_period_s = numbers.at(i);
      // Sweeping the wake-slot period implies the MAC, like channel_loss
      // implies the Bernoulli channel.
      config.mac.enabled = true;
      break;
    case AxisKind::kTopology:
      // Multihop spellings of the deployment layouts: a regular grid vs. the
      // paper's aerial scattering (both typically sized well beyond one hop).
      if (labels.at(i) == "grid") {
        config.deployment.kind = world::DeploymentKind::kGrid;
      } else if (labels.at(i) == "random-multihop") {
        config.deployment.kind = world::DeploymentKind::kUniform;
      } else {
        throw std::invalid_argument(
            "Axis topology: values must be grid/random-multihop");
      }
      break;
    case AxisKind::kSinkPlacement:
      config.collection.sink_placement =
          net::sink_placement_from_string(labels.at(i));
      break;
  }
}

void Axis::validate() const {
  if (size() == 0) {
    throw std::invalid_argument(std::string("Axis ") + to_string(kind) +
                                ": no values");
  }
  if (axis_is_categorical(kind) && !numbers.empty()) {
    throw std::invalid_argument(std::string("Axis ") + to_string(kind) +
                                ": expects string values");
  }
  if (!axis_is_categorical(kind) && !labels.empty()) {
    throw std::invalid_argument(std::string("Axis ") + to_string(kind) +
                                ": expects numeric values");
  }
  // Applying every value to a scratch config surfaces bad labels (unknown
  // policy/stimulus names) at manifest-load time instead of mid-campaign.
  world::ScenarioConfig scratch;
  for (std::size_t i = 0; i < size(); ++i) apply(scratch, i);
}

Axis Axis::from_json(const io::Json& j) {
  Axis axis;
  axis.kind = axis_kind_from_string(j.at("axis").as_string());
  for (const auto& v : j.at("values").as_array()) {
    if (axis_is_categorical(axis.kind)) {
      axis.labels.push_back(v.as_string());
    } else {
      axis.numbers.push_back(v.as_double());
    }
  }
  axis.validate();
  return axis;
}

io::Json Axis::to_json() const {
  io::Json j;
  j["axis"] = std::string(to_string(kind));
  io::Json values{io::JsonArray{}};
  if (axis_is_categorical(kind)) {
    for (const auto& l : labels) values.push_back(l);
  } else {
    for (const auto n : numbers) values.push_back(n);
  }
  j["values"] = std::move(values);
  return j;
}

}  // namespace pas::exp
