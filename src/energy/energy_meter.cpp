#include "energy/energy_meter.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace pas::energy {

namespace {

/// A positive finite double as sig · 2^(exp − 1075): the integer
/// significand, and the biased exponent with subnormals at 1. Consecutive
/// multiples of one binade's ulp 2^(exp − 1075) have consecutive bit
/// patterns, up to and including the binade's end.
struct Scaled {
  std::uint64_t sig;
  int exp;
};

Scaled scaled(double v) noexcept {
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased = static_cast<int>(bits >> 52);
  if (biased == 0) return {bits & kMantissa, 1};
  return {(bits & kMantissa) | (std::uint64_t{1} << 52), biased};
}

}  // namespace

double add_repeated(double s, double x, std::uint64_t n) noexcept {
  if (!(s >= 0.0 && std::isfinite(s) && x > 0.0 && std::isfinite(x))) {
    for (; n > 0; --n) s += x;
    return s;
  }
  const Scaled xs = scaled(x);
  while (n > 0 && std::isfinite(s)) {
    if (s < x) {  // includes s = 0 and -0: one real addition reaches x
      s += x;
      --n;
      continue;
    }
    // s = S·u with u = 2^(exp − 1075); its binade ends at limit·u. In units
    // of u, x = q = xs.sig / 2^shift, and one addition that stays inside
    // the binade adds round(q): q's integer part m, plus one when its
    // fraction is over a half, or is exactly a half and m + S is odd.
    const Scaled ss = scaled(s);
    const std::uint64_t limit = std::uint64_t{1} << (ss.exp == 1 ? 52 : 53);
    const int shift = ss.exp - xs.exp;
    std::uint64_t m = 0;
    std::uint64_t step = 0;  // when q < 1/2, every addition rounds back to s
    if (shift == 0) {
      m = step = xs.sig;
    } else if (shift < 64) {
      m = xs.sig >> shift;
      const std::uint64_t fraction = xs.sig & ((std::uint64_t{1} << shift) - 1);
      const std::uint64_t half = std::uint64_t{1} << (shift - 1);
      if (fraction == half && (ss.sig & 1) != 0) {
        s += x;  // a tie from an odd S lands on an even sum; then it stays even
        --n;
        continue;
      }
      step = fraction < half ? m : fraction > half ? m + 1 : m + (m & 1);
    }
    if (step == 0) return s;
    // Addition i (from S + i·step) stays inside the binade while
    // S + i·step + q < limit, that is while i·step ≤ limit − S − m − 1.
    if (limit - ss.sig < m + 1) {
      s += x;  // this one crosses into the next binade
      --n;
      continue;
    }
    const std::uint64_t k = std::min(n, (limit - ss.sig - m - 1) / step + 1);
    s = std::bit_cast<double>(std::bit_cast<std::uint64_t>(s) + k * step);
    n -= k;
  }
  return s;  // an infinite sum stays infinite
}

void EnergyMeter::accrue(sim::Time now) {
  assert(now >= last_change_ && "EnergyMeter: time went backwards");
  const sim::Duration dt = now - last_change_;
  if (dt > 0.0) {
    switch (mode_) {
      case PowerMode::kSleep:
        sleep_j_ += profile_.sleep_w * dt;
        sleep_s_ += dt;
        break;
      case PowerMode::kActive:
        active_j_ += profile_.total_active_w() * dt;
        active_s_ += dt;
        break;
    }
  }
  last_change_ = now;
}

void EnergyMeter::set_mode(PowerMode mode, sim::Time now) {
  accrue(now);
  if (mode != mode_) {
    transition_j_ += profile_.transition_energy();
    ++transitions_;
    mode_ = mode;
  }
}

void EnergyMeter::add_tx(std::size_t bits) {
  tx_j_ += profile_.tx_energy(bits);
  ++tx_count_;
}

void EnergyMeter::add_rx(std::size_t bits) {
  rx_j_ += profile_.rx_energy(bits);
  ++rx_count_;
}

void EnergyMeter::finalize(sim::Time now) {
  accrue(now);
  fold_cca();
}

void EnergyMeter::add_cca(sim::Duration seconds, std::uint64_t count) {
  // Never one multiplication: cca_j() must equal the charges added one at
  // a time, whatever the MAC's batching.
  const double joules = profile_.radio_rx_w * seconds;
  if (std::bit_cast<std::uint64_t>(joules) !=
      std::bit_cast<std::uint64_t>(cca_charge_)) {
    fold_cca();
    cca_charge_ = joules;
  }
  cca_pending_ += count;
  cca_count_ += count;
}

void EnergyMeter::fold_cca() noexcept {
  cca_j_ = cca_j();
  cca_pending_ = 0;
}

double EnergyMeter::cca_j() const noexcept {
  return add_repeated(cca_j_, cca_charge_, cca_pending_);
}

void EnergyMeter::add_preamble(sim::Duration seconds) {
  preamble_j_ += profile_.radio_tx_w * seconds;
  preamble_s_ += seconds;
}

void EnergyMeter::add_listen(sim::Duration seconds) {
  listen_j_ += profile_.total_active_w() * seconds;
  listen_s_ += seconds;
}

double EnergyMeter::total_j(sim::Time now) const {
  double open = 0.0;
  if (now > last_change_) {
    const sim::Duration dt = now - last_change_;
    open = mode_ == PowerMode::kSleep ? profile_.sleep_w * dt
                                      : profile_.total_active_w() * dt;
  }
  return sleep_j_ + active_j_ + tx_j_ + rx_j_ + transition_j_ + cca_j() +
         preamble_j_ + listen_j_ + open;
}

}  // namespace pas::energy
