#include "stimulus/advection_diffusion.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pas::stimulus {

namespace {
constexpr float kNeverF = std::numeric_limits<float>::infinity();
}

AdvectionDiffusionModel::AdvectionDiffusionModel(
    AdvectionDiffusionConfig config)
    : cfg_(std::move(config)) {
  if (cfg_.nx < 4 || cfg_.ny < 4) {
    throw std::invalid_argument("AdvectionDiffusionModel: grid too small");
  }
  if (cfg_.diffusivity <= 0.0) {
    throw std::invalid_argument("AdvectionDiffusionModel: diffusivity must be > 0");
  }
  if (cfg_.threshold <= 0.0) {
    throw std::invalid_argument("AdvectionDiffusionModel: threshold must be > 0");
  }
  if (cfg_.horizon <= cfg_.start_time) {
    throw std::invalid_argument("AdvectionDiffusionModel: horizon before start");
  }
  if (!cfg_.region.contains(cfg_.source)) {
    throw std::invalid_argument("AdvectionDiffusionModel: source outside region");
  }
  dx_ = cfg_.region.width() / cfg_.nx;
  dy_ = cfg_.region.height() / cfg_.ny;

  // Explicit-scheme stability: diffusion needs dt ≤ dx²/(4D); upwind
  // advection needs the CFL dt ≤ dx/|u|. Take 40% of the binding limit.
  const double diff_limit =
      std::min(dx_ * dx_, dy_ * dy_) / (4.0 * cfg_.diffusivity);
  const double speed = cfg_.wind.norm();
  const double adv_limit =
      speed > 0.0 ? std::min(dx_, dy_) / speed : std::numeric_limits<double>::infinity();
  dt_ = 0.4 * std::min(diff_limit, adv_limit);

  integrate();
}

int AdvectionDiffusionModel::cell_x(double x) const noexcept {
  const int c = static_cast<int>(std::floor((x - cfg_.region.lo.x) / dx_));
  return std::clamp(c, 0, cfg_.nx - 1);
}

int AdvectionDiffusionModel::cell_y(double y) const noexcept {
  const int c = static_cast<int>(std::floor((y - cfg_.region.lo.y) / dy_));
  return std::clamp(c, 0, cfg_.ny - 1);
}

void AdvectionDiffusionModel::step(std::vector<double>& next,
                                   const std::vector<double>& cur,
                                   sim::Time t) {
  const double D = cfg_.diffusivity;
  const double ux = cfg_.wind.x, uy = cfg_.wind.y;
  const double inv_dx2 = 1.0 / (dx_ * dx_), inv_dy2 = 1.0 / (dy_ * dy_);

  for (int iy = 0; iy < cfg_.ny; ++iy) {
    for (int ix = 0; ix < cfg_.nx; ++ix) {
      const std::size_t c = idx(ix, iy);
      // Zero-flux (Neumann) boundaries: mirror the edge cell.
      const double cc = cur[c];
      const double cl = ix > 0 ? cur[idx(ix - 1, iy)] : cc;
      const double cr = ix < cfg_.nx - 1 ? cur[idx(ix + 1, iy)] : cc;
      const double cd = iy > 0 ? cur[idx(ix, iy - 1)] : cc;
      const double cu = iy < cfg_.ny - 1 ? cur[idx(ix, iy + 1)] : cc;

      const double lap = (cl - 2.0 * cc + cr) * inv_dx2 +
                         (cd - 2.0 * cc + cu) * inv_dy2;
      // First-order upwind advection.
      const double dcdx = ux >= 0.0 ? (cc - cl) / dx_ : (cr - cc) / dx_;
      const double dcdy = uy >= 0.0 ? (cc - cd) / dy_ : (cu - cc) / dy_;

      next[c] = cc + dt_ * (D * lap - ux * dcdx - uy * dcdy);
    }
  }

  // Source injection: rate is in units·m²/s, spread over one cell's area.
  const sim::Time since_start = t - cfg_.start_time;
  if (since_start >= 0.0 && since_start < cfg_.source_duration) {
    const std::size_t sc = idx(cell_x(cfg_.source.x), cell_y(cfg_.source.y));
    next[sc] += cfg_.source_rate * dt_ / (dx_ * dy_);
  }
}

void AdvectionDiffusionModel::integrate() {
  const std::size_t n =
      static_cast<std::size_t>(cfg_.nx) * static_cast<std::size_t>(cfg_.ny);
  field_.assign(n, 0.0);
  first_cross_.assign(n, kNeverF);
  std::vector<double> next(n, 0.0);

  const auto total_steps = static_cast<std::size_t>(
      std::ceil((cfg_.horizon - cfg_.start_time) / dt_));

  sim::Time t = cfg_.start_time;
  for (std::size_t s = 0; s <= total_steps; ++s) {
    step(next, field_, t);
    std::swap(next, field_);
    t += dt_;
    for (std::size_t c = 0; c < n; ++c) {
      if (first_cross_[c] == kNeverF && field_[c] >= cfg_.threshold) {
        first_cross_[c] = static_cast<float>(t);
      }
    }
  }

  mass_at_horizon_ = 0.0;
  for (const double c : field_) mass_at_horizon_ += c;
  mass_at_horizon_ *= dx_ * dy_;
}

sim::Time AdvectionDiffusionModel::cell_arrival(geom::Vec2 p) const noexcept {
  if (!cfg_.region.contains(p)) return sim::kNever;
  const float v = first_cross_[idx(cell_x(p.x), cell_y(p.y))];
  return v == kNeverF ? sim::kNever : static_cast<sim::Time>(v);
}

bool AdvectionDiffusionModel::covered(geom::Vec2 p, sim::Time t) const {
  return cell_arrival(p) <= t;
}

sim::Time AdvectionDiffusionModel::arrival_time(geom::Vec2 p,
                                                sim::Time horizon) const {
  const sim::Time t = cell_arrival(p);
  return t <= horizon ? t : sim::kNever;
}

double AdvectionDiffusionModel::total_mass_at_horizon() const noexcept {
  return mass_at_horizon_;
}

}  // namespace pas::stimulus
