#include "stimulus/arrival_map.hpp"

#include <algorithm>

namespace pas::stimulus {

ArrivalMap::ArrivalMap(const StimulusModel& model,
                       std::span<const geom::Vec2> positions,
                       sim::Time horizon) {
  assign(model, positions, horizon);
}

void ArrivalMap::assign(const StimulusModel& model,
                        std::span<const geom::Vec2> positions,
                        sim::Time horizon) {
  sites_.resize(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    sites_[i] = model.site(positions[i]);
  }
  times_.resize(positions.size());
  model.arrival_many(sites_, horizon, times_);
  model_ = &model;
}

std::size_t ArrivalMap::covered_count(sim::Time t) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(times_.begin(), times_.end(),
                    [t](sim::Time a) { return a <= t; }));
}

sim::Time ArrivalMap::first_arrival() const noexcept {
  sim::Time best = sim::kNever;
  for (const sim::Time t : times_) best = std::min(best, t);
  return best;
}

sim::Time ArrivalMap::last_arrival() const noexcept {
  sim::Time best = sim::kNever;
  for (const sim::Time t : times_) {
    if (t < sim::kNever) {
      best = best == sim::kNever ? t : std::max(best, t);
    }
  }
  return best;
}

std::size_t ArrivalMap::reached_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(times_.begin(), times_.end(),
                    [](sim::Time a) { return a < sim::kNever; }));
}

}  // namespace pas::stimulus
