// Byte-level crash consistency of the row store: a campaign killed with
// its store cut at any byte, or with any one byte of it flipped, resumes
// to the artifacts of a clean run, byte for byte, or refuses with an error
// naming the store. Silent divergence is the failure this guards against.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/grid.hpp"
#include "exp/manifest.hpp"
#include "exp/row_store.hpp"
#include "exp/runner.hpp"
#include "world/paper_setup.hpp"

namespace pas::exp {
namespace {

namespace fs = std::filesystem;

/// The four artifacts of one finalized campaign.
using Artifacts = std::array<std::string, 4>;

class CrashSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pas_crash_sweep_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    manifest_.name = "crash-sweep";
    manifest_.base = world::paper_scenario();
    manifest_.replications = 2;
    manifest_.axes = {
        Axis{.kind = AxisKind::kPolicy, .labels = {"NS", "PAS"}}};
    points_ = expand_grid(manifest_);
    options_ = campaign_aggregator_options(
        manifest_, points_, (dir_ / "out.csv").string(),
        (dir_ / "out.jsonl").string(), (dir_ / "runs.csv").string(),
        (dir_ / "metrics.jsonl").string());
    io::JsonObject trailer;
    trailer["kind"] = "registry";
    trailers_ = {io::Json(std::move(trailer))};
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Deterministic per-point metrics with every exported field set.
  [[nodiscard]] world::ReplicatedMetrics synth_metrics(std::size_t p) const {
    world::ReplicatedMetrics m;
    const double x = 0.5 + static_cast<double>(p);
    m.delay_s = {.n = 2, .mean = x, .stddev = 0.1, .min = x - 0.1,
                 .max = x + 0.1, .ci95_half = 0.2};
    m.energy_j = {.n = 2, .mean = 2 * x, .stddev = 0.0, .min = 2 * x,
                  .max = 2 * x, .ci95_half = 0.0};
    m.active_fraction = {.n = 2, .mean = 0.25, .stddev = 0.0, .min = 0.25,
                         .max = 0.25, .ci95_half = 0.0};
    m.mean_missed = static_cast<double>(p);
    m.mean_broadcasts = 7.0 + static_cast<double>(p);
    m.runs.resize(manifest_.replications);
    for (std::size_t r = 0; r < m.runs.size(); ++r) {
      auto& run = m.runs[r];
      run.avg_delay_s = x + 0.01 * static_cast<double>(r);
      run.avg_energy_j = 2 * x;
      run.missed = p + r;
      run.network.broadcasts = 7 + p;
      run.kernel.events_dispatched = 100 * (p + 1) + r;
      run.protocol.wakeups = 3 * (p + 1) + r;
    }
    return m;
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  /// Resumes the campaign from a store holding `store_bytes` (from no
  /// store without them), computes the pending points and finalizes it.
  Artifacts resume(const std::optional<std::string>& store_bytes) {
    for (const auto& path : {options_.csv_path, options_.json_path,
                             options_.per_run_path, options_.metrics_path}) {
      fs::remove(path);
    }
    if (store_bytes.has_value()) {
      std::ofstream(RowStore::path_for(options_.csv_path),
                    std::ios::binary | std::ios::trunc)
          << *store_bytes;
    }
    Aggregator agg{AggregatorOptions(options_)};
    agg.load_existing();
    for (const std::size_t p : agg.pending()) {
      agg.record(points_[p], synth_metrics(p));
    }
    agg.finalize(trailers_);
    return {slurp(options_.csv_path), slurp(options_.json_path),
            slurp(options_.per_run_path), slurp(options_.metrics_path)};
  }

  fs::path dir_;
  Manifest manifest_;
  std::vector<GridPoint> points_;
  AggregatorOptions options_;
  std::vector<io::Json> trailers_;
};

TEST_F(CrashSweepTest, EveryTruncationAndByteFlipResumesToCleanBytes) {
  // The crash artifact: every point recorded, in reverse completion order,
  // and never finalized.
  const std::string store_path = RowStore::path_for(options_.csv_path);
  {
    Aggregator agg{AggregatorOptions(options_)};
    agg.load_existing();
    for (std::size_t i = points_.size(); i-- > 0;) {
      agg.record(points_[i], synth_metrics(i));
    }
  }
  const std::string store = slurp(store_path);
  // Small enough to sweep exhaustively, large enough to hold both points'
  // batches: per-run rows, telemetry rows and summaries.
  ASSERT_GT(store.size(), 1000U);
  ASSERT_LT(store.size(), 4000U);
  fs::remove(store_path);
  const Artifacts clean = resume(std::nullopt);
  for (const auto& artifact : clean) ASSERT_FALSE(artifact.empty());
  EXPECT_EQ(resume(store), clean);

  constexpr std::size_t kHeaderBytes = 16;
  std::vector<std::string> failures;
  const auto fail = [&failures](const std::string& what, std::size_t at) {
    if (failures.size() < 10) {
      failures.push_back(what + " at byte " + std::to_string(at));
    }
  };
  for (std::size_t size = 0; size <= store.size(); ++size) {
    if (resume(store.substr(0, size)) != clean) fail("truncation", size);
  }
  for (std::size_t at = 0; at < store.size(); ++at) {
    std::string flipped = store;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xFF);
    try {
      if (resume(flipped) != clean) fail("flip: different bytes", at);
      if (at < kHeaderBytes) fail("flip: header accepted", at);
    } catch (const std::runtime_error&) {
      if (at >= kHeaderBytes) fail("flip: runtime_error", at);
    }
  }
  EXPECT_TRUE(failures.empty()) << ::testing::PrintToString(failures);
}

}  // namespace
}  // namespace pas::exp
