// Shared pieces of the campaign benchmark program: arguments, the output
// artifacts of one campaign, the timed set-up phase, and the noise record.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "exp/manifest.hpp"
#include "exp/runner.hpp"
#include "io/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string manifest;
  /// Directory that receives this workload's artifacts and trace files.
  std::string work;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool jsonl = false;
  bool per_run = false;
};

/// The artifact files one campaign writes (CSV always; JSONL and per-run
/// when the workload asks for them).
struct Outputs {
  std::string csv;
  std::string jsonl;
  std::string per_run;

  [[nodiscard]] std::vector<std::string> files() const;
  /// Deletes the artifacts and any row store left next to the CSV, so the
  /// next campaign starts from nothing (run_campaign refuses to overwrite).
  void remove() const;
  /// FNV-1a 64 of every artifact, joined; equal digests mean equal bytes.
  [[nodiscard]] std::string digest() const;
  [[nodiscard]] std::uint64_t bytes() const;
  void apply(pas::exp::CampaignOptions& options) const;
};

/// Artifact paths `<work>/<stem>.csv` etc. for the workload in `args`.
[[nodiscard]] Outputs make_outputs(const Args& args, const std::string& stem);

/// The once-per-campaign cost before the first replication: manifest load,
/// seed override + validate + grid expansion, and one stimulus model per
/// distinct stimulus config in the grid.
struct Setup {
  pas::exp::Manifest manifest;
  std::vector<pas::exp::GridPoint> points;
  double load_s = 0.0;
  double expand_s = 0.0;
  double model_s = 0.0;

  [[nodiscard]] double total_s() const { return load_s + expand_s + model_s; }
  [[nodiscard]] std::size_t replications() const {
    return points.size() * manifest.replications;
  }
};

[[nodiscard]] Setup set_up(const Args& args);

/// One untraced exp::run_campaign call, timed from outside.
struct CampaignSample {
  double wall_s = 0.0;
  std::size_t replications = 0;
  /// Gaps between consecutive progress callbacks: per-point completion
  /// times at one job (the first point, which also pays the campaign's
  /// start, is left out).
  std::vector<double> point_ms;
  /// wall_s cut at every progress callback: call start to the first
  /// callback, callback to callback, last callback to return (finalize).
  std::vector<double> segment_s;
  std::string digest;
};

/// Runs the campaign of `setup` into `out` (deleted first) on `jobs`
/// threads, with CampaignOptions.progress stamping each completed point.
[[nodiscard]] CampaignSample run_campaign_once(const Setup& setup,
                                               const Outputs& out,
                                               std::size_t jobs);

/// {"traced", "jobs", "wall_s", "digest"}: one campaign's wall time and
/// artifact digest, so run.py can require every campaign of a run to agree.
[[nodiscard]] pas::io::Json campaign_record(bool traced, std::size_t jobs,
                                            double wall_s,
                                            const std::string& digest);

/// {"csv": path, "jsonl": path, "perrun": path} for the present artifacts.
[[nodiscard]] pas::io::Json artifact_paths(const Outputs& out);

/// A fixed Pcg32 loop's time and the 1-minute load average, recorded next
/// to the numbers so a noisy machine is visible (never a metric).
[[nodiscard]] pas::io::Json measure_noise();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Share of a run's samples its timings are taken from. Contention on a
/// shared machine only ever slows work down, and repeated samples of one
/// piece of a run (a set-up, one point of a campaign) do identical work, so
/// the fastest tenth of them are the least disturbed; a timing is the
/// median of that tenth (the 5th percentile), so no single lucky sample
/// sets it.
inline constexpr double kFastShare = 0.1;

[[nodiscard]] inline double undisturbed(std::vector<double> times) {
  return quantile(std::move(times), kFastShare / 2);
}

/// Heap allocations made so far by the calling thread (alloc_count.cpp
/// replaces the global operator new to count them).
[[nodiscard]] std::uint64_t thread_allocations() noexcept;

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
