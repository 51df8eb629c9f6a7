#include "energy/energy_meter.hpp"

#include <cassert>

namespace pas::energy {

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

void EnergyMeter::add_cca(sim::Duration seconds, std::uint64_t count) {
  // One addition per charge, never one multiplication: cca_j_ must not
  // depend on how the MAC batched its idle samples.
  const double joules = profile_.radio_rx_w * seconds;
  for (std::uint64_t k = 0; k < count; ++k) cca_j_ += joules;
  cca_count_ += count;
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
  return sleep_j_ + active_j_ + tx_j_ + rx_j_ + transition_j_ + cca_j_ +
         preamble_j_ + listen_j_ + open;
}

}  // namespace pas::energy
