#include "stimulus/composite.hpp"

#include <algorithm>
#include <stdexcept>

namespace pas::stimulus {

CompositeModel::CompositeModel(
    std::vector<std::unique_ptr<StimulusModel>> parts)
    : parts_(std::move(parts)) {
  if (parts_.empty()) {
    throw std::invalid_argument("CompositeModel: needs at least one part");
  }
  for (const auto& p : parts_) {
    if (!p) throw std::invalid_argument("CompositeModel: null part");
  }
}

bool CompositeModel::covered(geom::Vec2 p, sim::Time t) const {
  for (const auto& part : parts_) {
    if (part->covered(p, t)) return true;
  }
  return false;
}

geom::Vec2 CompositeModel::source() const noexcept {
  return parts_.front()->source();
}

bool CompositeModel::recedes() const noexcept {
  return std::any_of(parts_.begin(), parts_.end(),
                     [](const auto& part) { return part->recedes(); });
}

sim::Time CompositeModel::arrival_time(geom::Vec2 p, sim::Time horizon) const {
  sim::Time best = sim::kNever;
  for (const auto& part : parts_) {
    best = std::min(best, part->arrival_time(p, horizon));
  }
  return best;
}

}  // namespace pas::stimulus
