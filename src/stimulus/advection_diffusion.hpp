// Advection–diffusion PDE stimulus.
//
// Solves ∂c/∂t = D ∇²c − u·∇c + s(x, t) on a regular grid with an explicit
// scheme (FTCS diffusion + first-order upwind advection, zero-flux
// boundaries) and records, per cell, the first time the concentration
// crosses the coverage threshold. This is the "liquid pollutant" substrate
// the paper's introduction motivates; the radial model is its idealisation.
//
// Coverage is defined as "the threshold has been crossed at or before t",
// i.e. once covered a cell stays covered, matching the paper's continuously
// enlarging stimulus.
#pragma once

#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec2.hpp"
#include "stimulus/field.hpp"

namespace pas::stimulus {

struct AdvectionDiffusionConfig {
  geom::Aabb region = geom::Aabb::square(40.0);
  int nx = 96;
  int ny = 96;
  /// Diffusivity D in m²/s.
  double diffusivity = 1.0;
  /// Advection (wind/current) velocity u in m/s.
  geom::Vec2 wind{0.0, 0.0};
  geom::Vec2 source{2.0, 2.0};
  /// Source emission rate, concentration-units·m²/s injected at the source.
  double source_rate = 60.0;
  /// Emission stops after this long (kNever-like large default).
  sim::Duration source_duration = 1e9;
  /// Coverage threshold on concentration.
  double threshold = 1.0;
  sim::Time start_time = 0.0;
  /// The solver integrates eagerly to this horizon at construction.
  sim::Time horizon = 300.0;

  // Equality keys world::Workspace's stimulus-model cache: two equal
  // configs integrate to bit-identical fields, so the solve is shareable.
  bool operator==(const AdvectionDiffusionConfig&) const noexcept = default;
};

class AdvectionDiffusionModel final : public StimulusModel {
 public:
  /// Runs the solver to config.horizon; cost ~ nx·ny·steps (milliseconds to
  /// a few hundred ms for default sizes). Throws on invalid config.
  explicit AdvectionDiffusionModel(AdvectionDiffusionConfig config);

  [[nodiscard]] bool covered(geom::Vec2 p, sim::Time t) const override;
  [[nodiscard]] geom::Vec2 source() const noexcept override { return cfg_.source; }
  [[nodiscard]] sim::Time arrival_time(geom::Vec2 p,
                                       sim::Time horizon) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "pde"; }

  [[nodiscard]] const AdvectionDiffusionConfig& config() const noexcept { return cfg_; }

  /// The time step actually used (after the stability clamp).
  [[nodiscard]] double dt() const noexcept { return dt_; }
  /// Total mass currently on the grid (∫c dA) at the horizon — conservation
  /// diagnostics for tests.
  [[nodiscard]] double total_mass_at_horizon() const noexcept;

 private:
  [[nodiscard]] std::size_t idx(int ix, int iy) const noexcept {
    return static_cast<std::size_t>(iy) * static_cast<std::size_t>(cfg_.nx) +
           static_cast<std::size_t>(ix);
  }
  [[nodiscard]] int cell_x(double x) const noexcept;
  [[nodiscard]] int cell_y(double y) const noexcept;
  [[nodiscard]] sim::Time cell_arrival(geom::Vec2 p) const noexcept;

  void integrate();
  void step(std::vector<double>& next, const std::vector<double>& cur,
            sim::Time t);

  AdvectionDiffusionConfig cfg_;
  double dx_ = 1.0;
  double dy_ = 1.0;
  double dt_ = 0.0;
  std::vector<double> field_;       // scratch: final state
  std::vector<float> first_cross_;  // per-cell crossing time, inf if never
  double mass_at_horizon_ = 0.0;
};

}  // namespace pas::stimulus
