#include "world/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geom/disk_graph.hpp"

namespace pas::world {

std::vector<geom::Vec2> grid_deployment(std::size_t count, geom::Aabb region,
                                        double jitter, sim::Pcg32& rng) {
  if (count == 0) return {};
  if (jitter < 0.0 || jitter > 0.5) {
    throw std::invalid_argument("grid_deployment: jitter must be in [0, 0.5]");
  }
  // Smallest near-square grid holding `count` nodes.
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(count))));
  const auto rows = (count + cols - 1) / cols;
  const double dx = region.width() / static_cast<double>(cols);
  const double dy = region.height() / static_cast<double>(rows);

  std::vector<geom::Vec2> out;
  out.reserve(count);
  for (std::size_t r = 0; r < rows && out.size() < count; ++r) {
    for (std::size_t c = 0; c < cols && out.size() < count; ++c) {
      const double cx = region.lo.x + (static_cast<double>(c) + 0.5) * dx;
      const double cy = region.lo.y + (static_cast<double>(r) + 0.5) * dy;
      const double jx = rng.uniform(-jitter, jitter) * dx;
      const double jy = rng.uniform(-jitter, jitter) * dy;
      out.push_back(region.clamp({cx + jx, cy + jy}));
    }
  }
  return out;
}

std::vector<geom::Vec2> uniform_deployment(std::size_t count, geom::Aabb region,
                                           sim::Pcg32& rng) {
  std::vector<geom::Vec2> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({rng.uniform(region.lo.x, region.hi.x),
                   rng.uniform(region.lo.y, region.hi.y)});
  }
  return out;
}

std::vector<geom::Vec2> poisson_disk_deployment(std::size_t count,
                                                geom::Aabb region,
                                                double min_separation,
                                                sim::Pcg32& rng) {
  if (min_separation <= 0.0) {
    throw std::invalid_argument(
        "poisson_disk_deployment: min_separation must be > 0");
  }
  std::vector<geom::Vec2> out;
  out.reserve(count);
  const double sep2 = min_separation * min_separation;
  const std::size_t max_attempts = count * 2000 + 1000;
  std::size_t attempts = 0;
  while (out.size() < count) {
    if (++attempts > max_attempts) {
      throw std::runtime_error(
          "poisson_disk_deployment: could not place all nodes; reduce "
          "min_separation or count");
    }
    const geom::Vec2 candidate{rng.uniform(region.lo.x, region.hi.x),
                               rng.uniform(region.lo.y, region.hi.y)};
    bool ok = true;
    for (const geom::Vec2 p : out) {
      if (geom::distance2(p, candidate) < sep2) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(candidate);
  }
  return out;
}

std::vector<geom::Vec2> generate_deployment(const DeploymentConfig& config,
                                            sim::Pcg32& rng) {
  switch (config.kind) {
    case DeploymentKind::kGrid:
      return grid_deployment(config.count, config.region, config.grid_jitter,
                             rng);
    case DeploymentKind::kUniform:
      return uniform_deployment(config.count, config.region, rng);
    case DeploymentKind::kPoissonDisk:
      return poisson_disk_deployment(config.count, config.region,
                                     config.min_separation, rng);
  }
  throw std::logic_error("generate_deployment: unknown kind");
}

bool is_connected(const std::vector<geom::Vec2>& positions, double range) {
  geom::DiskGraph graph;
  graph.build(positions, range);
  return graph.connected();
}

}  // namespace pas::world
