#include "exp/manifest.hpp"

#include <stdexcept>

#include "world/config_json.hpp"

namespace pas::exp {

std::size_t Manifest::point_count() const noexcept {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.size();
  return n;
}

void Manifest::validate() const {
  if (replications == 0) {
    throw std::invalid_argument("Manifest: replications must be >= 1");
  }
  bool sweeps_channel_loss = false, sweeps_ge = false;
  bool sweeps_topology = false, sweeps_deployment = false;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    axes[i].validate();
    sweeps_channel_loss |= axes[i].kind == AxisKind::kChannelLoss;
    sweeps_ge |= axes[i].kind == AxisKind::kGilbertPGoodToBad;
    sweeps_topology |= axes[i].kind == AxisKind::kTopology;
    sweeps_deployment |= axes[i].kind == AxisKind::kDeployment;
    for (std::size_t k = i + 1; k < axes.size(); ++k) {
      if (axes[i].kind == axes[k].kind) {
        throw std::invalid_argument(std::string("Manifest: duplicate axis ") +
                                    to_string(axes[i].kind));
      }
    }
  }
  if (sweeps_channel_loss && sweeps_ge) {
    // ge_p_good_to_bad selects the Gilbert–Elliott channel, which ignores
    // channel_loss — combining the axes would emit a channel_loss column
    // with no effect on the simulation.
    throw std::invalid_argument(
        "Manifest: channel_loss and ge_p_good_to_bad axes cannot be "
        "combined (the Gilbert-Elliott channel ignores channel_loss)");
  }
  if (sweeps_topology && sweeps_deployment) {
    // Both axes write deployment.kind; whichever applies last would silently
    // win and the other's column would lie about the simulated layout.
    throw std::invalid_argument(
        "Manifest: topology and deployment axes cannot be combined (both "
        "select the deployment layout)");
  }
  base.protocol.validate();
}

Manifest Manifest::from_json(const io::Json& j) {
  for (const auto& [key, value] : j.as_object()) {
    (void)value;
    if (key != "name" && key != "description" && key != "replications" &&
        key != "seed_base" && key != "base" && key != "axes") {
      throw std::runtime_error("Manifest: unknown key \"" + key + "\"");
    }
  }
  Manifest m;
  m.name = j.string_or("name", m.name);
  m.description = j.string_or("description", m.description);
  m.replications = j.integer_or("replications", m.replications);
  m.seed_base = j.integer_or("seed_base", m.seed_base);
  if (j.contains("base")) {
    m.base = world::scenario_from_json(j.at("base"));
  }
  if (j.contains("axes")) {
    for (const auto& a : j.at("axes").as_array()) {
      m.axes.push_back(Axis::from_json(a));
    }
  }
  m.validate();
  return m;
}

Manifest Manifest::load(const std::string& path) {
  return from_json(io::Json::parse_file(path));
}

io::Json Manifest::to_json() const {
  io::Json j;
  j["name"] = name;
  if (!description.empty()) j["description"] = description;
  j["replications"] = replications;
  j["seed_base"] = static_cast<double>(seed_base);
  j["base"] = world::to_json(base);
  io::Json axes_json{io::JsonArray{}};
  for (const auto& axis : axes) axes_json.push_back(axis.to_json());
  j["axes"] = std::move(axes_json);
  return j;
}

}  // namespace pas::exp
