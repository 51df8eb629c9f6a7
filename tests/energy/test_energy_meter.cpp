#include "energy/energy_meter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

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
