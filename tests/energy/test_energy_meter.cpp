#include "energy/energy_meter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/rng.hpp"

namespace pas::energy {
namespace {

constexpr PowerProfile kTelos = PowerProfile::telos();

TEST(EnergyMeter, AccruesActivePower) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  m.finalize(10.0);
  EXPECT_DOUBLE_EQ(m.active_j(), 41e-3 * 10.0);
  EXPECT_DOUBLE_EQ(m.sleep_j(), 0.0);
  EXPECT_DOUBLE_EQ(m.active_s(), 10.0);
}

TEST(EnergyMeter, AccruesSleepPower) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kSleep);
  m.finalize(100.0);
  EXPECT_DOUBLE_EQ(m.sleep_j(), 15e-6 * 100.0);
  EXPECT_DOUBLE_EQ(m.sleep_s(), 100.0);
}

TEST(EnergyMeter, ModeSwitchSplitsIntervalsAndBooksTransition) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  m.set_mode(PowerMode::kSleep, 4.0);
  m.set_mode(PowerMode::kActive, 9.0);
  m.finalize(10.0);
  EXPECT_DOUBLE_EQ(m.active_s(), 5.0);  // [0,4) + [9,10)
  EXPECT_DOUBLE_EQ(m.sleep_s(), 5.0);   // [4,9)
  EXPECT_EQ(m.transitions(), 2U);
  EXPECT_DOUBLE_EQ(m.transition_j(), 2.0 * kTelos.transition_energy());
}

TEST(EnergyMeter, RedundantModeSetIsFree) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  m.set_mode(PowerMode::kActive, 5.0);
  EXPECT_EQ(m.transitions(), 0U);
  EXPECT_DOUBLE_EQ(m.transition_j(), 0.0);
}

TEST(EnergyMeter, TxEnergyAndCount) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  m.add_tx(1000);
  m.add_tx(2000);
  EXPECT_EQ(m.tx_count(), 2U);
  EXPECT_DOUBLE_EQ(m.tx_j(), kTelos.tx_energy(1000) + kTelos.tx_energy(2000));
}

TEST(EnergyMeter, RxEnergyAndCount) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  m.add_rx(500);
  EXPECT_EQ(m.rx_count(), 1U);
  EXPECT_DOUBLE_EQ(m.rx_j(), kTelos.rx_energy(500));
}

TEST(EnergyMeter, BulkCcaIsBitIdenticalToSingleCharges) {
  // The MAC books idle slot samples in bulk; the meter must not be able to
  // tell, so cca_j is compared bit for bit, not within a tolerance.
  for (const double seconds : {2e-3, 1.5e-3, 0.1 / 3.0}) {
    for (const std::uint64_t count : {0ULL, 1ULL, 7ULL, 1000ULL, 34599ULL}) {
      EnergyMeter bulk(kTelos, 0.0, PowerMode::kSleep);
      EnergyMeter single(kTelos, 0.0, PowerMode::kSleep);
      // Start both off a non-zero running sum, as a mid-run meter would be.
      bulk.add_cca(seconds, 3);
      for (int k = 0; k < 3; ++k) single.add_cca(seconds);
      bulk.add_cca(seconds, count);
      for (std::uint64_t k = 0; k < count; ++k) single.add_cca(seconds);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(bulk.cca_j()),
                std::bit_cast<std::uint64_t>(single.cca_j()))
          << seconds << " s x " << count;
      EXPECT_EQ(bulk.cca_count(), single.cca_count());
      EXPECT_EQ(bulk.cca_count(), count + 3);
    }
  }
}

/// The oracle: `n` additions in turn.
double add_in_turn(double s, double x, std::uint64_t n) {
  for (std::uint64_t k = 0; k < n; ++k) s += x;
  return s;
}

void expect_fold_exact(double s, double x, std::uint64_t n) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(add_repeated(s, x, n)),
            std::bit_cast<std::uint64_t>(add_in_turn(s, x, n)))
      << std::hexfloat << s << " + " << x << " x " << std::dec << n;
}

TEST(AddRepeated, EqualsTheLoopOnRandomSums) {
  sim::Pcg32 rng(11, 3);
  for (int trial = 0; trial < 3000; ++trial) {
    // A start of either sign of zero or any magnitude around the charge,
    // and charges with few mantissa bits (rounding ties once the sum
    // outgrows them) as well as full ones.
    const int ex = static_cast<int>(rng.uniform_int(-30, 10));
    const double x =
        trial % 2 == 0
            ? std::ldexp(static_cast<double>(rng.uniform_int(1, 15)), ex)
            : std::ldexp(rng.uniform(1.0, 2.0), ex);
    const double s =
        trial % 7 == 0   ? 0.0
        : trial % 7 == 1 ? -0.0
                         : std::ldexp(rng.uniform(1.0, 2.0),
                                      ex + static_cast<int>(
                                               rng.uniform_int(-5, 40)));
    const auto n = static_cast<std::uint64_t>(rng.uniform_int(0, 3000));
    expect_fold_exact(s, x, n);
  }
}

TEST(AddRepeated, EqualsTheLoopOnTies) {
  // x is an odd multiple of half the sum's ulp: every addition in the
  // binade is a tie, broken toward an even significand, so the first step
  // from an odd significand differs from the rest.
  sim::Pcg32 rng(12, 3);
  for (int trial = 0; trial < 2000; ++trial) {
    const int es = static_cast<int>(rng.uniform_int(-40, 40));
    const double s =
        std::ldexp(static_cast<double>(
                       (std::uint64_t{1} << 52) |
                       static_cast<std::uint64_t>(rng.uniform_int(0, 0xFFFFF))),
                   es - 52);
    const auto odd = static_cast<double>(2 * rng.uniform_int(0, 6) + 1);
    const double x = std::ldexp(odd, es - 53);
    expect_fold_exact(s, x, static_cast<std::uint64_t>(rng.uniform_int(1, 5000)));
    expect_fold_exact(std::nextafter(s, 1e300), x, 4097);
  }
}

TEST(AddRepeated, EqualsTheLoopAtBinadeEnds) {
  // Sums a few ulps below 2, and charges of a few ulps with every kind of
  // fraction: additions land exactly on the binade's end, or just past it
  // where the next binade's coarser ulp rounds them back.
  constexpr double kUlp = 0x1p-52;
  for (int below = 1; below <= 64; ++below) {
    for (int whole = 0; whole <= 8; ++whole) {
      for (const double fraction : {0.0, 0.25, 0.5, 0.75}) {
        if (whole == 0 && fraction == 0.0) continue;
        expect_fold_exact(2.0 - below * kUlp, (whole + fraction) * kUlp, 70);
      }
    }
  }
}

TEST(AddRepeated, EqualsTheLoopAtTheEdges) {
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  // Long runs across many binades: the meter's own charges included.
  for (const double x : {kTelos.radio_rx_w * 2e-3, kTelos.radio_rx_w * 1.5e-3,
                         0.1 / 3.0, 1.0, 3.0 * kDenorm}) {
    expect_fold_exact(0.0, x, 1'000'000);
    expect_fold_exact(x * 0.75, x, 1'000'000);
  }
  // Charges too small to move the sum, in whole or after a while.
  expect_fold_exact(1.0, 0x1p-54, 100);
  expect_fold_exact(1.0, 0x1p-53, 100);
  expect_fold_exact(std::nextafter(1.0, 2.0), 0x1p-53, 100);
  expect_fold_exact(1.0, 0x1.8p-53, 100);
  expect_fold_exact(0x1p-40, 0x1p-93, 1000);
  // Subnormal sums and the step into the normals.
  expect_fold_exact(0.0, kDenorm, 100'000);
  expect_fold_exact(kMin - 5 * kDenorm, kDenorm, 100);
  expect_fold_exact(kMin, kDenorm, 1000);
  // Overflow to infinity, and sums that start out of the fast path.
  expect_fold_exact(kMax * 0.75, kMax / 8, 10);
  expect_fold_exact(std::numeric_limits<double>::infinity(), 1.0, 10);
  expect_fold_exact(-1.0, 0.25, 10);
  expect_fold_exact(1.0, -0.25, 10);
  expect_fold_exact(1.0, 0.0, 10);
  expect_fold_exact(0.0, 1.0, 0);
}

TEST(EnergyMeter, CcaRunsEqualChargesAddedInTurn) {
  // Charges of two sizes in runs, read mid-run and after finalize(),
  // against every charge added in turn.
  EnergyMeter m(kTelos, 0.0, PowerMode::kSleep);
  double cca = 0.0;
  const auto charge = [&](double seconds, std::uint64_t count) {
    m.add_cca(seconds, count);
    cca = add_in_turn(cca, kTelos.radio_rx_w * seconds, count);
  };
  const auto expect_reads = [&](double now) {
    // total_j's own sum with the reference CCA in its place; reads happen
    // right after a mode switch at `now`, so the open interval is empty.
    const double total = m.sleep_j() + m.active_j() + m.tx_j() + m.rx_j() +
                         m.transition_j() + cca + m.preamble_j() +
                         m.listen_j() + 0.0;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.cca_j()),
              std::bit_cast<std::uint64_t>(cca));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.total_j(now)),
              std::bit_cast<std::uint64_t>(total));
  };
  sim::Pcg32 rng(13, 3);
  double now = 0.0;
  std::uint64_t charges = 0;
  for (int k = 0; k < 200; ++k) {
    const double seconds = rng.uniform01() < 0.2 ? 3e-3 : 2e-3;
    const auto count = static_cast<std::uint64_t>(rng.uniform_int(0, 2000));
    charge(seconds, count);
    charges += count;
    if (k % 5 == 0) m.add_tx(1000);
    now += rng.uniform(0.1, 2.0);
    m.set_mode(k % 2 == 0 ? PowerMode::kActive : PowerMode::kSleep, now);
    expect_reads(now);
  }
  now += 1.0;
  m.finalize(now);
  expect_reads(now);
  EXPECT_EQ(m.cca_count(), charges);
  // A charge after finalize() keeps counting from the folded sum.
  charge(2e-3, 5);
  expect_reads(now);
}

TEST(EnergyMeter, TotalIncludesOpenInterval) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  // Without finalize, total_j(now) prices the open interval.
  EXPECT_DOUBLE_EQ(m.total_j(2.0), 41e-3 * 2.0);
  m.add_tx(1000);
  EXPECT_DOUBLE_EQ(m.total_j(2.0), 41e-3 * 2.0 + kTelos.tx_energy(1000));
}

TEST(EnergyMeter, NsVersusSleeperOverSameWindow) {
  // The core economics of the paper: a sleeping node costs ~3 orders of
  // magnitude less than an always-on node over the same window.
  EnergyMeter ns(kTelos, 0.0, PowerMode::kActive);
  EnergyMeter sleeper(kTelos, 0.0, PowerMode::kSleep);
  ns.finalize(150.0);
  sleeper.finalize(150.0);
  EXPECT_GT(ns.total_j(150.0), 1000.0 * sleeper.total_j(150.0));
}

TEST(EnergyMeter, NonFiniteStartHandledByConstruction) {
  // Meter honours a nonzero start time: nothing accrues before it.
  EnergyMeter m(kTelos, 5.0, PowerMode::kActive);
  m.finalize(6.0);
  EXPECT_DOUBLE_EQ(m.active_s(), 1.0);
}

}  // namespace
}  // namespace pas::energy
