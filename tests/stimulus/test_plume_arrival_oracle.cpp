// Oracle test for the plume's arrival search: GaussianPlumeModel's
// arrival_time() and arrival_many() must equal StimulusModel::first_crossing
// — the generic scan over the same coarse probes — bit for bit, wherever
// the position and whatever the configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "stimulus/plume.hpp"

namespace pas::stimulus {
namespace {

/// A model whose coverage is the plume's, so the base class's generic scan
/// runs over plume coverage with the plume's own probe step.
class ScanOracle final : public StimulusModel {
 public:
  explicit ScanOracle(const GaussianPlumeModel& plume) : plume_(plume) {}

  [[nodiscard]] bool covered(geom::Vec2 p, sim::Time t) const override {
    return plume_.covered(p, t);
  }
  [[nodiscard]] geom::Vec2 source() const noexcept override {
    return plume_.source();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "scan-oracle";
  }

  [[nodiscard]] sim::Time scan(geom::Vec2 p, sim::Time horizon) const {
    return first_crossing(p, horizon, plume_.probe_step());
  }

 private:
  const GaussianPlumeModel& plume_;
};

/// The highest concentration `p` ever sees: c at the peak time τ* of
/// |w|²τ² + 4Dτ − |p − src|² = 0.
double peak_concentration(const GaussianPlumeModel& model, geom::Vec2 p) {
  const GaussianPlumeConfig& cfg = model.config();
  const double d2 = geom::distance2(p, cfg.source);
  const double four_d = 4.0 * cfg.diffusivity;
  const double tau = 2.0 * d2 /
                     (four_d + std::sqrt(four_d * four_d +
                                         4.0 * cfg.wind.norm2() * d2));
  return model.concentration(p, cfg.start_time + tau);
}

/// Positions whose peak concentration equals the threshold, to the last
/// bit: bisection along rays from the source, keeping both ends of each
/// final bracket (peak at or above, and below, the threshold).
std::vector<geom::Vec2> grazing_positions(const GaussianPlumeModel& model,
                                          int rays, sim::Pcg32& rng) {
  const GaussianPlumeConfig& cfg = model.config();
  std::vector<geom::Vec2> out;
  for (int k = 0; k < rays; ++k) {
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const geom::Vec2 dir{std::cos(angle), std::sin(angle)};
    double lo = 0.0;  // the source: its peak is unbounded
    double hi = 1.0;
    while (peak_concentration(model, cfg.source + dir * hi) >= cfg.threshold) {
      lo = hi;
      hi *= 2.0;
    }
    for (int it = 0; it < 200 && std::nextafter(lo, hi) < hi; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (peak_concentration(model, cfg.source + dir * mid) >= cfg.threshold) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    out.push_back(cfg.source + dir * lo);
    out.push_back(cfg.source + dir * hi);
  }
  return out;
}

struct Case {
  GaussianPlumeConfig cfg;
  sim::Time horizon = 0.0;
};

/// Random configurations: winds of 0, 1e-9 and ordinary size, releases at
/// and after t = 0, horizons below the dissolve time (not a multiple of the
/// step) and past it.
std::vector<Case> random_cases(int n, sim::Pcg32& rng) {
  std::vector<Case> out;
  for (int k = 0; k < n; ++k) {
    Case c;
    c.cfg.source = {rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)};
    c.cfg.mass = rng.uniform(50.0, 4000.0);
    c.cfg.diffusivity = rng.uniform(0.2, 3.0);
    c.cfg.threshold = rng.uniform(0.02, 0.5);
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    double speed = 0.0;
    switch (k % 4) {
      case 0: speed = 0.0; break;
      case 1: speed = 1e-9; break;
      default: speed = rng.uniform(0.01, 1.5); break;
    }
    c.cfg.wind = {speed * std::cos(angle), speed * std::sin(angle)};
    // The release, when late, is a fraction of the dissolve window late, so
    // the probes before it stay a fraction of the scan.
    const double window = GaussianPlumeModel(c.cfg).dissolve_time();
    c.cfg.start_time = k % 3 == 0 ? 0.0 : window * rng.uniform(0.01, 0.2);
    // Mostly well inside the dissolve window (the campaign's horizon is a
    // third of it), sometimes past it; either way almost surely not a
    // multiple of the step.
    c.horizon = c.cfg.start_time +
                window * (k % 10 == 0 ? rng.uniform(1.0, 1.5)
                                      : rng.uniform(0.05, 0.4));
    out.push_back(c);
  }
  // examples/campaign.json's plume at its 150 s horizon.
  Case campaign;
  campaign.cfg.source = {3.0, 3.0};
  campaign.cfg.mass = 3000.0;
  campaign.cfg.diffusivity = 1.5;
  campaign.cfg.wind = {0.05, 0.05};
  campaign.cfg.threshold = 0.35;
  campaign.horizon = 150.0;
  out.push_back(campaign);
  return out;
}

std::string describe(const Case& c, geom::Vec2 p) {
  std::ostringstream os;
  os.precision(17);
  os << "mass " << c.cfg.mass << " D " << c.cfg.diffusivity << " thr "
     << c.cfg.threshold << " wind (" << c.cfg.wind.x << ", " << c.cfg.wind.y
     << ") t0 " << c.cfg.start_time << " horizon " << c.horizon << " at ("
     << p.x << ", " << p.y << ")";
  return os.str();
}

/// Compares both search entry points against the scan at every position;
/// returns the number of positions checked.
std::size_t expect_matches_scan(const Case& c,
                                const std::vector<geom::Vec2>& positions) {
  const GaussianPlumeModel model(c.cfg);
  const ScanOracle oracle(model);
  std::vector<Site> sites;
  for (const geom::Vec2 p : positions) sites.push_back(model.site(p));
  std::vector<sim::Time> batch(positions.size());
  model.arrival_many(sites, c.horizon, batch);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const sim::Time want = oracle.scan(positions[i], c.horizon);
    const sim::Time one = model.arrival_time(positions[i], c.horizon);
    if (std::bit_cast<std::uint64_t>(want) != std::bit_cast<std::uint64_t>(one) ||
        std::bit_cast<std::uint64_t>(want) !=
            std::bit_cast<std::uint64_t>(batch[i])) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << describe(c, positions[i]) << ": scan " << want
                      << ", arrival_time " << one << ", arrival_many "
                      << batch[i];
      }
    }
  }
  EXPECT_EQ(mismatches, 0U) << describe(c, {});
  return positions.size();
}

TEST(PlumeArrivalOracle, SearchEqualsScanOverRandomConfigs) {
  sim::Pcg32 rng(2024, 18);
  const std::vector<Case> cases = random_cases(60, rng);
  std::size_t checked = 0;
  std::size_t reached = 0;
  for (const Case& c : cases) {
    const GaussianPlumeModel model(c.cfg);
    // A box around most of what the puff covers by the horizon: its widest
    // disk plus the drift of its center.
    const double window = model.dissolve_time() - c.cfg.start_time;
    const double reach =
        0.9 * std::sqrt(4.0 * c.cfg.diffusivity * window / std::numbers::e) +
        c.cfg.wind.norm() * std::min(window, c.horizon - c.cfg.start_time);
    std::vector<geom::Vec2> positions;
    for (int k = 0; k < 1700; ++k) {
      positions.push_back({c.cfg.source.x + rng.uniform(-reach, reach),
                           c.cfg.source.y + rng.uniform(-reach, reach)});
    }
    checked += expect_matches_scan(c, positions);
    for (const geom::Vec2 p : positions) {
      if (model.arrival_time(p, c.horizon) < sim::kNever) ++reached;
    }
  }
  EXPECT_GE(checked, 100'000U);
  // The sample must exercise both outcomes, not just misses.
  EXPECT_GT(reached, checked / 10);
  EXPECT_LT(reached, checked - checked / 10);
}

TEST(PlumeArrivalOracle, SearchEqualsScanAtGrazingPositions) {
  // Peak concentration equal to the threshold: coverage there is a single
  // probe or none, and rounding decides — the search must decide it as the
  // scan does.
  sim::Pcg32 rng(7, 18);
  for (Case c : random_cases(60, rng)) {
    // The whole growth phase, so grazing points are reached before the
    // horizon cuts them off.
    const GaussianPlumeModel model(c.cfg);
    c.horizon = std::max(c.horizon, model.dissolve_time());
    expect_matches_scan(c, grazing_positions(model, 24, rng));
  }
}

TEST(PlumeArrivalOracle, SearchEqualsScanAtSourceAndUnreachedPoints) {
  sim::Pcg32 rng(11, 18);
  for (const Case& c : random_cases(60, rng)) {
    const geom::Vec2 s = c.cfg.source;
    expect_matches_scan(c, {s,
                            {s.x + 1e-12, s.y},
                            {s.x + 1e3, s.y},
                            {s.x, s.y - 5e2},
                            {s.x - 1e6, s.y + 1e6}});
  }
}

TEST(PlumeArrivalOracle, SearchEqualsScanForEdgeHorizons) {
  // Horizons at or below zero, shorter than one step, exactly on a probe,
  // and far past the dissolve time.
  GaussianPlumeConfig cfg;
  cfg.source = {3.0, 3.0};
  cfg.mass = 3000.0;
  cfg.diffusivity = 1.5;
  cfg.wind = {0.05, 0.05};
  cfg.threshold = 0.35;
  const GaussianPlumeModel model(cfg);
  const double step = model.probe_step();
  std::vector<geom::Vec2> positions;
  sim::Pcg32 rng(5, 5);
  for (int k = 0; k < 200; ++k) {
    positions.push_back({rng.uniform(-25.0, 30.0), rng.uniform(-25.0, 30.0)});
  }
  for (const double horizon :
       {-1.0, 0.0, 0.3 * step, step, 1.5 * step, 37.0 * step, 150.0,
        model.dissolve_time(), 3.0 * model.dissolve_time()}) {
    expect_matches_scan({cfg, horizon}, positions);
  }
  // A release before t = 0: points already covered at t = 0 arrive at 0.
  cfg.start_time = -20.0;
  expect_matches_scan({cfg, 150.0}, positions);
}

}  // namespace
}  // namespace pas::stimulus
