#include "stimulus/plume.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace pas::stimulus {

GaussianPlumeModel::GaussianPlumeModel(GaussianPlumeConfig config)
    : cfg_(config) {
  if (cfg_.mass <= 0.0) {
    throw std::invalid_argument("GaussianPlumeModel: mass must be > 0");
  }
  if (cfg_.diffusivity <= 0.0) {
    throw std::invalid_argument("GaussianPlumeModel: diffusivity must be > 0");
  }
  if (cfg_.threshold <= 0.0) {
    throw std::invalid_argument("GaussianPlumeModel: threshold must be > 0");
  }
}

double GaussianPlumeModel::concentration(geom::Vec2 p, sim::Time t) const {
  const double tau = t - cfg_.start_time;
  if (tau <= 0.0) return 0.0;
  const double denom = 4.0 * std::numbers::pi * cfg_.diffusivity * tau;
  const geom::Vec2 center = cfg_.source + cfg_.wind * tau;
  const double r2 = geom::distance2(p, center);
  return cfg_.mass / denom * std::exp(-r2 / (4.0 * cfg_.diffusivity * tau));
}

bool GaussianPlumeModel::covered(geom::Vec2 p, sim::Time t) const {
  return concentration(p, t) >= cfg_.threshold;
}

sim::Time GaussianPlumeModel::dissolve_time() const noexcept {
  // Peak concentration Q/(4πDτ) falls below threshold at this τ.
  return cfg_.start_time +
         cfg_.mass / (4.0 * std::numbers::pi * cfg_.diffusivity * cfg_.threshold);
}

double GaussianPlumeModel::covered_radius(sim::Time t) const noexcept {
  const double tau = t - cfg_.start_time;
  if (tau <= 0.0) return 0.0;
  const double peak =
      cfg_.mass / (4.0 * std::numbers::pi * cfg_.diffusivity * tau);
  if (peak < cfg_.threshold) return 0.0;
  // c(r) = peak · exp(−r²/(4Dτ)) = threshold  ⇒  r² = 4Dτ ln(peak/threshold).
  return std::sqrt(4.0 * cfg_.diffusivity * tau * std::log(peak / cfg_.threshold));
}

sim::Duration GaussianPlumeModel::probe_step() const noexcept {
  // Coverage is not monotone (the puff recedes), so the scan needs a step
  // fine enough to catch the growth phase.
  const sim::Duration window = dissolve_time() - cfg_.start_time;
  return std::max(1e-3, window / 2048.0);
}

std::vector<sim::Time> GaussianPlumeModel::probe_times(
    sim::Time horizon) const {
  // first_crossing's probes, accumulated exactly as it accumulates them.
  // Probes from the first one at which even the peak, Q/(4πDτ) computed as
  // concentration() computes its prefactor, is below the threshold are
  // dropped: exp() of a non-positive argument is at most 1, so no position
  // is covered there or later. Checking only past dissolve_time() keeps
  // the division off the common path.
  const sim::Duration step = probe_step();
  const sim::Time dissolve = dissolve_time();
  std::vector<sim::Time> probes;
  for (sim::Time t = step; t <= horizon + 0.5 * step; t += step) {
    const sim::Time probe = std::min(t, horizon);
    if (probe > dissolve) {
      const double tau = probe - cfg_.start_time;
      const double denom = 4.0 * std::numbers::pi * cfg_.diffusivity * tau;
      if (cfg_.mass / denom < cfg_.threshold) break;
    }
    probes.push_back(probe);
  }
  return probes;
}

sim::Time GaussianPlumeModel::arrival_on(
    geom::Vec2 p, sim::Time horizon, std::span<const sim::Time> probes) const {
  // first_crossing(p, horizon, probe_step()), found by search instead of a
  // scan: the same probes, the same first covered one, the same bisection.
  if (horizon <= 0.0) return sim::kNever;
  if (covered(p, 0.0)) return 0.0;

  // c(p, t0 + τ) rises until τ* and falls after it: d ln c/dτ vanishes only
  // at the positive root of |w|²τ² + 4Dτ − |p − src|² = 0. This form of the
  // root keeps its digits as |w| → 0, where (−b + √…)/2a cancels.
  const double d2 = geom::distance2(p, cfg_.source);
  const double four_d = 4.0 * cfg_.diffusivity;
  const double tau_star =
      2.0 * d2 /
      (four_d + std::sqrt(four_d * four_d + 4.0 * cfg_.wind.norm2() * d2));
  // Probes within eps of the peak are tested one by one, which absorbs the
  // root's rounding.
  const double eps = 1e-9 * std::max(1.0, tau_star);
  const sim::Time peak = cfg_.start_time + tau_star;

  // 1. Coverage is monotone over the probes before the peak.
  const auto rising_end =
      std::lower_bound(probes.begin(), probes.end(), peak - eps);
  auto hit = std::partition_point(probes.begin(), rising_end,
                                  [&](sim::Time t) { return !covered(p, t); });
  // 2. None covered while rising: test the probes around the peak, up to
  //    and including the first one past it; after that c only falls.
  if (hit == rising_end) {
    hit = probes.end();
    for (auto it = rising_end; it != probes.end(); ++it) {
      if (covered(p, *it)) {
        hit = it;
        break;
      }
      if (*it >= peak + eps) break;
    }
  }
  if (hit == probes.end()) return sim::kNever;

  // 3. first_crossing's bisection on its bracket.
  sim::Time lo = hit == probes.begin() ? 0.0 : *(hit - 1);
  sim::Time hi = *hit;
  while (hi - lo > kCrossingTolerance) {
    const sim::Time mid = 0.5 * (lo + hi);
    if (covered(p, mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

sim::Time GaussianPlumeModel::arrival_time(geom::Vec2 p,
                                           sim::Time horizon) const {
  return arrival_on(p, horizon, probe_times(horizon));
}

void GaussianPlumeModel::arrival_many(std::span<const Site> sites,
                                      sim::Time horizon,
                                      std::span<sim::Time> out) const {
  assert(sites.size() == out.size());
  const std::vector<sim::Time> probes = probe_times(horizon);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    out[i] = arrival_on(sites[i].position, horizon, probes);
  }
}

}  // namespace pas::stimulus
