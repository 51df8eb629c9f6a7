// Table 1 — Telos hardware characteristics.
//
// The table itself is constants (asserted against the paper in
// tests/energy/test_power_profile.cpp); this bench prints it and
// microbenchmarks the energy-meter hot paths that price those constants in
// every simulation. It also runs NS, SAS and PAS on the same worlds at the
// paper's default operating point and prints how those Table-1 power
// numbers cash out per policy.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "energy/energy_meter.hpp"
#include "io/table.hpp"

namespace {

using pas::energy::EnergyMeter;
using pas::energy::PowerMode;
using pas::energy::PowerProfile;

void BM_EnergyMeter_SetMode(benchmark::State& state) {
  constexpr PowerProfile profile = PowerProfile::telos();
  EnergyMeter meter(profile, 0.0, PowerMode::kActive);
  double t = 0.0;
  PowerMode mode = PowerMode::kSleep;
  for (auto _ : state) {
    t += 0.5;
    meter.set_mode(mode, t);
    mode = mode == PowerMode::kSleep ? PowerMode::kActive : PowerMode::kSleep;
  }
  benchmark::DoNotOptimize(meter.total_j(t));
}
BENCHMARK(BM_EnergyMeter_SetMode);

void BM_EnergyMeter_AddTx(benchmark::State& state) {
  constexpr PowerProfile profile = PowerProfile::telos();
  EnergyMeter meter(profile, 0.0, PowerMode::kActive);
  for (auto _ : state) {
    meter.add_tx(296);  // RESPONSE-sized packet
  }
  benchmark::DoNotOptimize(meter.tx_j());
}
BENCHMARK(BM_EnergyMeter_AddTx);

void BM_EnergyMeter_TotalQuery(benchmark::State& state) {
  constexpr PowerProfile profile = PowerProfile::telos();
  EnergyMeter meter(profile, 0.0, PowerMode::kActive);
  meter.set_mode(PowerMode::kSleep, 10.0);
  meter.add_tx(96);
  double t = 10.0;
  for (auto _ : state) {
    t += 0.001;
    benchmark::DoNotOptimize(meter.total_j(t));
  }
}
BENCHMARK(BM_EnergyMeter_TotalQuery);

void print_table1() {
  constexpr PowerProfile p = PowerProfile::telos();
  std::cout << "\nTable 1 — Telos hardware characteristics (paper values)\n";
  pas::io::Table t({"quantity", "value", "unit"});
  t.add_row({"Active power", pas::io::fixed(p.mcu_active_w * 1e3, 0), "mW"});
  t.add_row({"Sleep power", pas::io::fixed(p.sleep_w * 1e6, 0), "uW"});
  t.add_row({"Receive power", pas::io::fixed(p.radio_rx_w * 1e3, 0), "mW"});
  t.add_row({"Transition power", pas::io::fixed(p.transition_w * 1e3, 0), "mW"});
  t.add_row({"Data rate", pas::io::fixed(p.data_rate_bps / 1e3, 0), "kbps"});
  t.add_row({"Total active power", pas::io::fixed(p.total_active_w() * 1e3, 0),
             "mW"});
  t.print(std::cout);
}

/// NS/SAS/PAS at the paper's default operating point. run_point gives every
/// policy the same seeds, so the three rows compare the same worlds (and
/// equal bench_fig4's and bench_fig6's points at max sleep 20 s).
void print_policy_comparison() {
  using pas::core::Policy;
  std::cout << "\nPolicy comparison at defaults (max sleep 20 s, T_alert 20 s, "
            << pas::bench::kReplications << " paired replications)\n";
  pas::io::Table t({"policy", "delay_s", "energy_J", "active_fraction"});
  for (const Policy policy : {Policy::kNeverSleep, Policy::kSas, Policy::kPas}) {
    const auto agg = pas::bench::run_point(policy, 20.0, 20.0);
    t.add_row({std::string(pas::core::to_string(policy)),
               pas::io::fixed(agg.delay_s.mean, 3),
               pas::io::fixed(agg.energy_j.mean, 4),
               pas::io::fixed(agg.active_fraction.mean, 3)});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  print_table1();
  print_policy_comparison();
  return 0;
}
