// Anisotropic radial-front stimulus.
//
// The boundary is a star-shaped curve around the source: R(θ, t) =
// v(θ) · g(t − t₀), where v(θ) is a strictly positive angular speed profile
// built from cosine harmonics (the "irregular alert area" of the paper's
// Fig 2) and g(τ) = τ + ½·accel·τ² allows a uniformly accelerating or
// constant-speed front. Arrival times invert g in closed form, which makes
// this the reference model for unit-testing estimators.
#pragma once

#include <vector>

#include "geom/vec2.hpp"
#include "stimulus/field.hpp"

namespace pas::stimulus {

struct RadialFrontConfig {
  geom::Vec2 source{0.0, 0.0};
  /// Mean outward speed in m/s.
  double base_speed = 0.5;
  /// Fractional acceleration a in g(τ) = τ + 0.5·a·τ² (0 = constant speed).
  double accel = 0.0;
  /// Release time of the stimulus.
  sim::Time start_time = 0.0;
  /// Growth stops at this radius (e.g. the monitored region's extent).
  double max_radius = 1e9;

  /// v(θ) = base_speed · (1 + Σ amplitude·cos(k·θ + phase)). The config is
  /// rejected unless Σ|amplitude| < 0.9 so the speed stays positive.
  struct Harmonic {
    int k = 1;
    double amplitude = 0.0;
    double phase = 0.0;

    constexpr bool operator==(const Harmonic&) const noexcept = default;
  };
  std::vector<Harmonic> harmonics;

  // Equality keys world::Workspace's stimulus-model cache.
  bool operator==(const RadialFrontConfig&) const noexcept = default;
};

class RadialFrontModel final : public StimulusModel {
 public:
  /// Throws std::invalid_argument on non-positive speed or |harmonics| ≥ 0.9.
  explicit RadialFrontModel(RadialFrontConfig config);

  [[nodiscard]] bool covered(geom::Vec2 p, sim::Time t) const override;
  /// Holds the distance from the source and v(θ), so covered_at pays no
  /// atan2 and no cos.
  [[nodiscard]] Site site(geom::Vec2 p) const override;
  [[nodiscard]] bool covered_at(const Site& site, sim::Time t) const override;
  [[nodiscard]] geom::Vec2 source() const noexcept override { return cfg_.source; }
  /// arrival_at(site(p), horizon).
  [[nodiscard]] sim::Time arrival_time(geom::Vec2 p,
                                       sim::Time horizon) const override;
  /// Closed-form arrival from each site's range and speed, in one loop: no
  /// atan2 and no cos, since site() paid them.
  void arrival_many(std::span<const Site> sites, sim::Time horizon,
                    std::span<sim::Time> out) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "radial"; }
  /// False: the covered radius never decreases in t. Each operation of
  /// radius_at() (t − start_time, the growth polynomial with accel ≥ 0,
  /// the product with a positive speed, the min with max_radius) is
  /// monotone under rounding, and the source is covered from start_time on.
  [[nodiscard]] bool recedes() const noexcept override { return false; }

  /// Angular speed profile v(θ), m/s.
  [[nodiscard]] double speed_at(double theta) const noexcept;

  /// Front radius along direction θ at time t (0 before start_time).
  [[nodiscard]] double radius_at(double theta, sim::Time t) const noexcept;

  [[nodiscard]] const RadialFrontConfig& config() const noexcept { return cfg_; }

 private:
  /// g(τ) for τ ≥ 0.
  [[nodiscard]] double growth(double tau) const noexcept;
  /// Inverse of g: smallest τ ≥ 0 with g(τ) = x.
  [[nodiscard]] double inverse_growth(double x) const noexcept;
  /// The arrival at a site: start_time at the source, never past
  /// max_radius, else start_time + g⁻¹(range / speed), cut at `horizon`.
  [[nodiscard]] sim::Time arrival_at(const Site& site,
                                     sim::Time horizon) const noexcept;

  RadialFrontConfig cfg_;
};

}  // namespace pas::stimulus
