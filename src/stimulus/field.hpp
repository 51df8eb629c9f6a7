// Stimulus model interface.
//
// A stimulus model answers, for any position and simulation time, whether
// the diffusion stimulus (DS) has reached that position, and provides the
// ground-truth *arrival time* used both to schedule detection events and to
// score detection delay. The paper's §3.3 assumption — the front spreads
// along the outward normal of its boundary — holds for every model here.
//
// Sensor nodes never move, so a model may split covered(p, t) into the
// terms that depend on the position alone, computed once per node by
// site(p), and the time-dependent rest, covered_at(site, t). The contract:
// covered_at(site(p), t) == covered(p, t) for every p and t, so both must
// perform covered()'s floating-point operations in covered()'s order. A
// stimulus::ArrivalMap builds every node's site first, then takes their
// arrivals from one arrival_many(sites, ...) call, and the protocol senses
// through covered_at with those sites. tests/stimulus/test_site.cpp checks
// the contract for every model; tests/stimulus/test_arrival_map.cpp checks
// that a map's arrivals equal arrival_time(p, horizon).
#pragma once

#include <span>
#include <string_view>

#include "geom/vec2.hpp"
#include "sim/time.hpp"

namespace pas::stimulus {

/// Width of the bracket first_crossing() bisects an arrival down to.
inline constexpr sim::Duration kCrossingTolerance = 1e-4;

/// A fixed position plus the terms of covered() that depend on it alone.
/// Only the model that built a site may read it.
struct Site {
  geom::Vec2 position{};
  /// RadialFrontModel: distance from the source and the angular speed
  /// v(θ) toward the position. Unused by the default.
  double range = 0.0;
  double speed = 0.0;
};

class StimulusModel {
 public:
  virtual ~StimulusModel() = default;

  /// True when the stimulus covers position `p` at time `t`.
  [[nodiscard]] virtual bool covered(geom::Vec2 p, sim::Time t) const = 0;

  /// The position-only terms of covered(p, ·). Default: just `p`.
  [[nodiscard]] virtual Site site(geom::Vec2 p) const;

  /// covered(site.position, t) from a site this model built; bit-identical
  /// to it. Default: calls covered().
  [[nodiscard]] virtual bool covered_at(const Site& site, sim::Time t) const;

  /// Location the stimulus emanates from.
  [[nodiscard]] virtual geom::Vec2 source() const noexcept = 0;

  /// Whether coverage can be lost: false promises that covered_at(site, t)
  /// never goes from true to false as t grows, for every site. A covered
  /// node then never returns to safe on the detection timeout, so the
  /// protocol arms no coverage checks under such a model. Default: true.
  [[nodiscard]] virtual bool recedes() const noexcept { return true; }

  /// First time within [0, horizon] at which `p` becomes covered, or
  /// sim::kNever if the stimulus never reaches `p` by `horizon`.
  [[nodiscard]] virtual sim::Time arrival_time(geom::Vec2 p,
                                               sim::Time horizon) const;

  /// out[i] = arrival_time(sites[i].position, horizon), for sites this
  /// model built: one virtual call for a whole node set. The default loops
  /// over arrival_time(); a model overrides it when the sites or a shared
  /// precomputation save work, with bit-identical results. `out.size()`
  /// must equal `sites.size()`.
  virtual void arrival_many(std::span<const Site> sites, sim::Time horizon,
                            std::span<sim::Time> out) const;

  /// Short identifier for reports ("radial", "pde", "plume").
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

 protected:
  /// Generic earliest-crossing search: scans [0, horizon] in `coarse_step`
  /// increments for the first covered sample, then bisects the bracketing
  /// interval down to `tol`. Exact only for coverage that, once gained, is
  /// not lost within a coarse step — true for all models in this library.
  ///
  /// The probes are accumulated (t += coarse_step, clamped to the horizon),
  /// never k · coarse_step. This scan backs the default arrival_time(); a
  /// model that finds arrivals faster (GaussianPlumeModel searches the same
  /// probes) must return its bits exactly, and the tests use this scan as
  /// the oracle.
  [[nodiscard]] sim::Time first_crossing(
      geom::Vec2 p, sim::Time horizon, sim::Duration coarse_step,
      sim::Duration tol = kCrossingTolerance) const;
};

}  // namespace pas::stimulus
