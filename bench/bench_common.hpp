// Shared infrastructure for the figure/table benches.
//
// Each bench binary registers one google-benchmark per sweep point; the
// benchmark body runs the replicated scenario and reports the paper metric
// as a counter. Results are also accumulated into a SeriesTable that the
// custom main prints after the benchmark run — the same rows/series as the
// paper's figure, ready to diff against EXPERIMENTS.md.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "exp/manifest.hpp"
#include "exp/runner.hpp"
#include "io/table.hpp"
#include "runtime/thread_pool.hpp"
#include "world/paper_setup.hpp"
#include "world/sweep.hpp"

namespace pas::bench {

/// Replications per sweep point. The PAS-vs-SAS delay gap is ~5% against a
/// ~25% per-run coefficient of variation, so figure series need ~30 seeds
/// to come out smooth; a full figure still runs in a few seconds.
inline constexpr std::size_t kReplications = 30;

/// Collects series values keyed by (x, series-name) for the end-of-run
/// figure printout.
class SeriesTable {
 public:
  void add(double x, const std::string& series, double value) {
    data_[x][series] = value;
    series_names_.insert(series);
  }

  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  void print(std::ostream& os, const std::string& title,
             const std::string& x_name, int precision = 3) const {
    if (data_.empty()) return;
    os << '\n' << title << '\n';
    std::vector<std::string> columns{x_name};
    columns.insert(columns.end(), series_names_.begin(), series_names_.end());
    io::Table table(columns);
    for (const auto& [x, row] : data_) {
      std::vector<std::string> cells{io::fixed(x, 1)};
      for (const auto& name : series_names_) {
        const auto it = row.find(name);
        cells.push_back(it == row.end() ? "-" : io::fixed(it->second, precision));
      }
      table.add_row(std::move(cells));
    }
    table.print(os);
    os.flush();
  }

  /// Singleton per bench binary.
  static SeriesTable& instance() {
    static SeriesTable table;
    return table;
  }

 private:
  std::map<double, std::map<std::string, double>> data_;
  std::set<std::string> series_names_;
};

/// Builds the single-point campaign manifest for one sweep point of the
/// paper scenario. Benches run through the experiment engine (src/exp) so
/// figure numbers come from exactly the machinery `pas-exp` campaigns use.
inline exp::Manifest point_manifest(core::Policy policy, double max_sleep_s,
                                    double alert_threshold_s,
                                    std::size_t reps = kReplications) {
  exp::Manifest m;
  m.name = "bench-point";
  m.base = world::paper_scenario();
  m.replications = reps;
  m.seed_base = 1;
  m.axes = {
      exp::Axis{.kind = exp::AxisKind::kPolicy,
                .labels = {std::string(core::to_string(policy))}},
      exp::Axis{.kind = exp::AxisKind::kMaxSleep, .numbers = {max_sleep_s}},
      exp::Axis{.kind = exp::AxisKind::kAlertThreshold,
                .numbers = {alert_threshold_s}},
  };
  return m;
}

/// Shared worker pool for replication-parallel bench points. One pool per
/// bench binary; replications land in an index-ordered buffer, so numbers
/// are identical to the serial path (world::run_replicated).
inline runtime::ThreadPool& bench_pool() {
  static runtime::ThreadPool pool;
  return pool;
}

/// Runs one sweep point of the paper scenario as a campaign job would,
/// replications in parallel on the shared bench pool.
inline world::ReplicatedMetrics run_point(core::Policy policy,
                                          double max_sleep_s,
                                          double alert_threshold_s,
                                          std::size_t reps = kReplications) {
  const auto manifest = point_manifest(policy, max_sleep_s, alert_threshold_s,
                                       reps);
  const auto points = exp::expand_grid(manifest);
  return world::run_replicated(points.front().config, reps, &bench_pool());
}

}  // namespace pas::bench

/// Custom main: run benchmarks, then print the accumulated figure series.
#define PAS_BENCH_MAIN(title, x_name, precision)                          \
  int main(int argc, char** argv) {                                       \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::benchmark::RunSpecifiedBenchmarks();                                \
    ::benchmark::Shutdown();                                              \
    ::pas::bench::SeriesTable::instance().print(std::cout, title, x_name, \
                                                precision);               \
    return 0;                                                             \
  }
