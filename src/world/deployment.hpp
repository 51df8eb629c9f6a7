// Node deployment generators.
//
// Three layouts: a jittered grid (planned installations), uniform random
// (aerial scattering — the paper's implied setup), and Poisson-disk (random
// but with a minimum spacing). Deployments are drawn from the dedicated
// deployment RNG stream so the same seed yields the same field.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec2.hpp"
#include "sim/rng.hpp"

namespace pas::world {

enum class DeploymentKind : std::uint8_t {
  kGrid,
  kUniform,
  kPoissonDisk,
};

[[nodiscard]] constexpr const char* to_string(DeploymentKind k) noexcept {
  switch (k) {
    case DeploymentKind::kGrid: return "grid";
    case DeploymentKind::kUniform: return "uniform";
    case DeploymentKind::kPoissonDisk: return "poisson-disk";
  }
  return "?";
}

struct DeploymentConfig {
  DeploymentKind kind = DeploymentKind::kUniform;
  std::size_t count = 30;
  geom::Aabb region = geom::Aabb::square(40.0);
  /// Grid: per-node jitter as a fraction of the cell pitch, in [0, 0.5].
  double grid_jitter = 0.2;
  /// Poisson-disk: minimum pairwise separation (m).
  double min_separation = 4.0;
};

/// `count` positions inside `region` per the configured layout.
/// Poisson-disk throws std::runtime_error if the spacing cannot fit `count`
/// points after a bounded number of dart throws.
[[nodiscard]] std::vector<geom::Vec2> generate_deployment(
    const DeploymentConfig& config, sim::Pcg32& rng);

/// Individual generators (also used directly by tests).
[[nodiscard]] std::vector<geom::Vec2> grid_deployment(std::size_t count,
                                                      geom::Aabb region,
                                                      double jitter,
                                                      sim::Pcg32& rng);
[[nodiscard]] std::vector<geom::Vec2> uniform_deployment(std::size_t count,
                                                         geom::Aabb region,
                                                         sim::Pcg32& rng);
[[nodiscard]] std::vector<geom::Vec2> poisson_disk_deployment(
    std::size_t count, geom::Aabb region, double min_separation,
    sim::Pcg32& rng);

/// True if the disk graph over `positions` with radius `range` is
/// connected: geom::DiskGraph::build, then DiskGraph::connected.
[[nodiscard]] bool is_connected(const std::vector<geom::Vec2>& positions,
                                double range);

}  // namespace pas::world
