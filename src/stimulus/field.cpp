#include "stimulus/field.hpp"

#include <algorithm>
#include <cassert>

namespace pas::stimulus {

Site StimulusModel::site(geom::Vec2 p) const { return Site{.position = p}; }

bool StimulusModel::covered_at(const Site& site, sim::Time t) const {
  return covered(site.position, t);
}

sim::Time StimulusModel::arrival_time(geom::Vec2 p, sim::Time horizon) const {
  // Default: numeric first-crossing; models with closed forms override.
  return first_crossing(p, horizon, horizon / 512.0);
}

void StimulusModel::arrival_many(std::span<const Site> sites,
                                 sim::Time horizon,
                                 std::span<sim::Time> out) const {
  assert(sites.size() == out.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    out[i] = arrival_time(sites[i].position, horizon);
  }
}

sim::Time StimulusModel::first_crossing(geom::Vec2 p, sim::Time horizon,
                                        sim::Duration coarse_step,
                                        sim::Duration tol) const {
  if (horizon <= 0.0) return sim::kNever;
  if (coarse_step <= 0.0) coarse_step = horizon / 512.0;

  if (covered(p, 0.0)) return 0.0;
  sim::Time lo = 0.0;
  sim::Time hi = sim::kNever;
  for (sim::Time t = coarse_step; t <= horizon + 0.5 * coarse_step;
       t += coarse_step) {
    const sim::Time probe = std::min(t, horizon);
    if (covered(p, probe)) {
      hi = probe;
      break;
    }
    lo = probe;
  }
  if (hi == sim::kNever) return sim::kNever;

  while (hi - lo > tol) {
    const sim::Time mid = 0.5 * (lo + hi);
    if (covered(p, mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace pas::stimulus
