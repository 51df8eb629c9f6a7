#include "stimulus/radial_front.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pas::stimulus {

RadialFrontModel::RadialFrontModel(RadialFrontConfig config)
    : cfg_(std::move(config)) {
  if (cfg_.base_speed <= 0.0) {
    throw std::invalid_argument("RadialFrontModel: base_speed must be > 0");
  }
  if (cfg_.accel < 0.0) {
    throw std::invalid_argument("RadialFrontModel: accel must be >= 0");
  }
  if (cfg_.max_radius <= 0.0) {
    throw std::invalid_argument("RadialFrontModel: max_radius must be > 0");
  }
  double total = 0.0;
  for (const auto& h : cfg_.harmonics) total += std::abs(h.amplitude);
  if (total >= 0.9) {
    throw std::invalid_argument(
        "RadialFrontModel: harmonic amplitudes sum to >= 0.9; speed profile "
        "could become non-positive");
  }
}

double RadialFrontModel::speed_at(double theta) const noexcept {
  double factor = 1.0;
  for (const auto& h : cfg_.harmonics) {
    factor += h.amplitude * std::cos(h.k * theta + h.phase);
  }
  return cfg_.base_speed * factor;
}

double RadialFrontModel::growth(double tau) const noexcept {
  return tau + 0.5 * cfg_.accel * tau * tau;
}

double RadialFrontModel::inverse_growth(double x) const noexcept {
  if (x <= 0.0) return 0.0;
  if (cfg_.accel == 0.0) return x;
  // τ + a/2 τ² = x  ⇒  τ = (−1 + sqrt(1 + 2 a x)) / a, the positive root.
  return (-1.0 + std::sqrt(1.0 + 2.0 * cfg_.accel * x)) / cfg_.accel;
}

double RadialFrontModel::radius_at(double theta, sim::Time t) const noexcept {
  const double tau = t - cfg_.start_time;
  if (tau <= 0.0) return 0.0;
  return std::min(cfg_.max_radius, speed_at(theta) * growth(tau));
}

bool RadialFrontModel::covered(geom::Vec2 p, sim::Time t) const {
  const geom::Vec2 d = p - cfg_.source;
  const double r = d.norm();
  if (r == 0.0) return t >= cfg_.start_time;
  return r <= radius_at(d.angle(), t);
}

Site RadialFrontModel::site(geom::Vec2 p) const {
  const geom::Vec2 d = p - cfg_.source;
  return Site{.position = p, .range = d.norm(), .speed = speed_at(d.angle())};
}

bool RadialFrontModel::covered_at(const Site& site, sim::Time t) const {
  // covered() and radius_at() with the bearing terms looked up, not
  // recomputed: the same operations on the same values.
  if (site.range == 0.0) return t >= cfg_.start_time;
  const double tau = t - cfg_.start_time;
  const double radius =
      tau <= 0.0 ? 0.0 : std::min(cfg_.max_radius, site.speed * growth(tau));
  return site.range <= radius;
}

sim::Time RadialFrontModel::arrival_at(const Site& site,
                                       sim::Time horizon) const noexcept {
  if (site.range == 0.0) {
    return cfg_.start_time <= horizon ? cfg_.start_time : sim::kNever;
  }
  if (site.range > cfg_.max_radius) return sim::kNever;
  const sim::Time t = cfg_.start_time + inverse_growth(site.range / site.speed);
  return t <= horizon ? t : sim::kNever;
}

sim::Time RadialFrontModel::arrival_time(geom::Vec2 p,
                                         sim::Time horizon) const {
  return arrival_at(site(p), horizon);
}

void RadialFrontModel::arrival_many(std::span<const Site> sites,
                                    sim::Time horizon,
                                    std::span<sim::Time> out) const {
  for (std::size_t i = 0; i < sites.size(); ++i) {
    out[i] = arrival_at(sites[i], horizon);
  }
}

}  // namespace pas::stimulus
