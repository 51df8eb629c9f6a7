// Gaussian puff plume stimulus.
//
// Closed-form solution of 2-D diffusion of an instantaneous release of mass
// Q, optionally advected by a constant wind w:
//   c(p, t) = Q / (4πDτ) · exp(−|p − src − w·τ|² / (4Dτ)),  τ = t − t₀.
// The covered region (c ≥ threshold) grows while the puff is concentrated
// and eventually *recedes* as it dilutes — which exercises the paper's
// covered → (detection timeout) → safe transition that the monotone models
// never trigger.
//
// Arrival times are first_crossing()'s, found by search. At any position c
// rises to one peak and then falls, so coverage over the coarse probes is
// monotone before the peak; a binary search finds the first covered probe
// there, and at most the probes around the peak are tested one by one. The
// bisection after that is first_crossing()'s own, so the result has the
// same bits as the scan, with O(log n) probes instead of up to n.
#pragma once

#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "stimulus/field.hpp"

namespace pas::stimulus {

struct GaussianPlumeConfig {
  geom::Vec2 source{0.0, 0.0};
  /// Released mass Q (concentration-units·m²).
  double mass = 400.0;
  /// Diffusivity D, m²/s.
  double diffusivity = 1.0;
  /// Advection velocity, m/s.
  geom::Vec2 wind{0.0, 0.0};
  /// Coverage threshold on c.
  double threshold = 0.05;
  sim::Time start_time = 0.0;

  // Equality keys world::Workspace's stimulus-model cache.
  constexpr bool operator==(const GaussianPlumeConfig&) const noexcept = default;
};

class GaussianPlumeModel final : public StimulusModel {
 public:
  explicit GaussianPlumeModel(GaussianPlumeConfig config);

  /// concentration(p, t) >= threshold.
  [[nodiscard]] bool covered(geom::Vec2 p, sim::Time t) const override;
  [[nodiscard]] geom::Vec2 source() const noexcept override { return cfg_.source; }
  /// first_crossing() with probe_step(), bit for bit, but the first
  /// covered probe is found by search: c(p, t) is unimodal in t, so
  /// coverage is monotone over the probes before its peak and at most the
  /// probes around the peak need testing one by one. O(log n) probes
  /// instead of up to n; the bisection that follows is first_crossing's.
  [[nodiscard]] sim::Time arrival_time(geom::Vec2 p,
                                       sim::Time horizon) const override;
  /// arrival_time() for every site, building the probe times once.
  void arrival_many(std::span<const Site> sites, sim::Time horizon,
                    std::span<sim::Time> out) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "plume"; }

  /// c(p, t), the puff's concentration; 0 before the release.
  [[nodiscard]] double concentration(geom::Vec2 p, sim::Time t) const;

  /// Time at which the whole covered region has dissolved (c < threshold
  /// everywhere): when 4πDτ ≥ Q/threshold the peak is below threshold.
  [[nodiscard]] sim::Time dissolve_time() const noexcept;

  /// Radius of the covered disk around the (advected) center at time t;
  /// 0 when nothing is covered.
  [[nodiscard]] double covered_radius(sim::Time t) const noexcept;

  [[nodiscard]] const GaussianPlumeConfig& config() const noexcept { return cfg_; }

  /// The coarse step of the arrival search: 1/2048 of the dissolve window,
  /// at least 1 ms.
  [[nodiscard]] sim::Duration probe_step() const noexcept;

 private:
  /// first_crossing's probe times up to `horizon`, without those after the
  /// puff has dissolved (never covered anywhere).
  [[nodiscard]] std::vector<sim::Time> probe_times(sim::Time horizon) const;
  /// arrival_time(p, horizon) over probe_times(horizon).
  [[nodiscard]] sim::Time arrival_on(geom::Vec2 p, sim::Time horizon,
                                     std::span<const sim::Time> probes) const;

  GaussianPlumeConfig cfg_;
};

}  // namespace pas::stimulus
