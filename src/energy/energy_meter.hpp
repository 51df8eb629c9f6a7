// Per-node energy accounting.
//
// The meter integrates power over time across mode changes (sleep vs
// active/idle-listen) and adds per-event energies for transmissions and
// sleep↔active transitions. "Active" charges the paper's 41 mW total-active
// power, which already includes idle listening, so packet reception while
// active is not double-charged; transmissions add TX energy on top (the
// ~3 mW MCU overlap during the sub-millisecond TX window is negligible and
// documented here rather than modelled).
#pragma once

#include <cstddef>
#include <cstdint>

#include "energy/power_profile.hpp"
#include "sim/time.hpp"

namespace pas::energy {

/// The exact result of `n` successive `s += x` in round-to-nearest, in a
/// few steps per binade the sum crosses instead of `n`. Within one binade
/// every addition of the same `x` adds the same rounded step, once one real
/// addition has fixed the parity a rounding tie depends on, so a run of
/// them is one multiply-add on the bit pattern. Inputs other than a finite
/// s ≥ 0 and a positive finite x take the plain loop.
[[nodiscard]] double add_repeated(double s, double x, std::uint64_t n) noexcept;

enum class PowerMode : std::uint8_t {
  kSleep,
  kActive,  // MCU on + radio listening (41 mW)
};

class EnergyMeter {
 public:
  EnergyMeter() = default;
  EnergyMeter(PowerProfile profile, sim::Time start, PowerMode initial)
      : profile_(profile), mode_(initial), last_change_(start) {}

  /// Switches mode at `now`, accruing the elapsed interval at the old mode's
  /// power. A sleep↔active switch also books one transition's energy.
  void set_mode(PowerMode mode, sim::Time now);

  [[nodiscard]] PowerMode mode() const noexcept { return mode_; }

  /// Books a transmission of `bits`.
  void add_tx(std::size_t bits);

  /// Books an explicit reception of `bits` (only for accounting variants
  /// that price receives separately; the default pipeline does not call it).
  void add_rx(std::size_t bits);

  // MAC line items (net::SlottedLplMac hooks; all zero when the MAC is off).

  /// `count` clear-channel assessments of `seconds` each — radio briefly up
  /// at RX power. Charged to sleeping nodes (LPL slot samples, relay CCAs);
  /// an awake radio's listening is already inside the active-mode power.
  /// cca_j() is the sum of every charge added in turn, as if one at a time:
  /// the meter keeps the current run of equal charges as (charge, count)
  /// and folds it with add_repeated() — when a charge of another size
  /// arrives, in finalize(), and on the fly in cca_j() and total_j() — so
  /// a bulk call is bit-identical to `count` single ones and costs O(1).
  void add_cca(sim::Duration seconds, std::uint64_t count = 1);
  /// Preamble of `seconds` at TX power (rendezvous preambles dominate).
  void add_preamble(sim::Duration seconds);
  /// Idle-listen extension of `seconds` at total-active power: a sleeping
  /// node that detected a preamble holds its radio up through the data.
  void add_listen(sim::Duration seconds);

  /// Total energy including the open interval [last_change, now] (J).
  [[nodiscard]] double total_j(sim::Time now) const;

  /// Closes accounting at `now` (e.g. end of simulation).
  void finalize(sim::Time now);

  // Breakdown (closed intervals only; call finalize() first for full runs).
  [[nodiscard]] double sleep_j() const noexcept { return sleep_j_; }
  [[nodiscard]] double active_j() const noexcept { return active_j_; }
  [[nodiscard]] double tx_j() const noexcept { return tx_j_; }
  [[nodiscard]] double rx_j() const noexcept { return rx_j_; }
  [[nodiscard]] double transition_j() const noexcept { return transition_j_; }
  [[nodiscard]] double cca_j() const noexcept;
  [[nodiscard]] double preamble_j() const noexcept { return preamble_j_; }
  [[nodiscard]] double listen_j() const noexcept { return listen_j_; }

  [[nodiscard]] double sleep_s() const noexcept { return sleep_s_; }
  [[nodiscard]] double active_s() const noexcept { return active_s_; }
  [[nodiscard]] double preamble_s() const noexcept { return preamble_s_; }
  [[nodiscard]] double listen_s() const noexcept { return listen_s_; }
  [[nodiscard]] std::uint64_t transitions() const noexcept { return transitions_; }
  [[nodiscard]] std::uint64_t tx_count() const noexcept { return tx_count_; }
  [[nodiscard]] std::uint64_t rx_count() const noexcept { return rx_count_; }
  [[nodiscard]] std::uint64_t cca_count() const noexcept { return cca_count_; }

  [[nodiscard]] const PowerProfile& profile() const noexcept { return profile_; }

 private:
  void accrue(sim::Time now);
  /// Adds the pending run of equal CCA charges into cca_j_.
  void fold_cca() noexcept;

  PowerProfile profile_{};
  PowerMode mode_ = PowerMode::kActive;
  sim::Time last_change_ = 0.0;

  double sleep_j_ = 0.0;
  double active_j_ = 0.0;
  double tx_j_ = 0.0;
  double rx_j_ = 0.0;
  double transition_j_ = 0.0;
  double cca_j_ = 0.0;  // folded CCA charges; cca_j() adds the pending run
  double cca_charge_ = 0.0;
  std::uint64_t cca_pending_ = 0;
  double preamble_j_ = 0.0;
  double listen_j_ = 0.0;
  double sleep_s_ = 0.0;
  double active_s_ = 0.0;
  double preamble_s_ = 0.0;
  double listen_s_ = 0.0;
  std::uint64_t transitions_ = 0;
  std::uint64_t tx_count_ = 0;
  std::uint64_t rx_count_ = 0;
  std::uint64_t cca_count_ = 0;
};

}  // namespace pas::energy
