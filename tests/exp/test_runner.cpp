// End-to-end campaign execution: parallel-vs-serial equality, resume, and
// the no-clobber guard. Small grids keep the suite fast; the inner
// simulations are real.
#include "exp/runner.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "world/paper_setup.hpp"

namespace pas::exp {
namespace {

namespace fs = std::filesystem;

Manifest small_manifest() {
  Manifest m;
  m.name = "runner-test";
  m.base = world::paper_scenario();
  m.base.duration_s = 60.0;  // shortened horizon keeps the suite quick
  m.replications = 2;
  m.seed_base = 3;
  m.axes = {
      Axis{.kind = AxisKind::kPolicy, .labels = {"NS", "SAS", "PAS"}},
      Axis{.kind = AxisKind::kMaxSleep, .numbers = {5.0, 15.0}},
  };
  return m;
}

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pas_runner_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  fs::path dir_;
};

TEST_F(RunnerTest, SerialAndParallelOutputsAreByteIdentical) {
  const Manifest m = small_manifest();

  CampaignOptions serial;
  serial.jobs = 1;
  serial.out_csv = (dir_ / "serial.csv").string();
  const auto serial_report = run_campaign(m, serial);

  CampaignOptions parallel;
  parallel.jobs = 4;
  parallel.out_csv = (dir_ / "parallel.csv").string();
  const auto parallel_report = run_campaign(m, parallel);

  EXPECT_EQ(serial_report.total_points, 6U);
  EXPECT_EQ(serial_report.computed, 6U);
  EXPECT_EQ(parallel_report.computed, 6U);
  const std::string a = slurp(dir_ / "serial.csv");
  const std::string b = slurp(dir_ / "parallel.csv");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST_F(RunnerTest, ResumeRecomputesOnlyMissingPoints) {
  const Manifest m = small_manifest();
  const std::string out = (dir_ / "campaign.csv").string();

  CampaignOptions options;
  options.jobs = 1;
  options.out_csv = out;
  run_campaign(m, options);
  const std::string complete = slurp(out);

  // Delete half the rows (keep the header and every second row — the
  // odd-indexed points), as if the campaign had been killed.
  {
    std::istringstream in(complete);
    std::ofstream truncated(out, std::ios::trunc);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
      if (n == 0 || n % 2 == 0) truncated << line << '\n';
      ++n;
    }
  }

  options.resume = true;
  std::vector<std::size_t> recomputed;
  options.progress = [&recomputed](const PointSummary& s, std::size_t,
                                   std::size_t) {
    recomputed.push_back(s.point);
  };
  const auto report = run_campaign(m, options);
  EXPECT_EQ(report.skipped, 3U);
  EXPECT_EQ(report.computed, 3U);
  EXPECT_EQ(recomputed.size(), 3U);
  // Only even points (the deleted rows) were simulated again...
  for (const auto p : recomputed) EXPECT_EQ(p % 2, 0U) << "point " << p;
  // ...and the resumed file is byte-identical to the uninterrupted run.
  EXPECT_EQ(slurp(out), complete);
}

TEST_F(RunnerTest, ResumeRejectsChangedReplicationCount) {
  Manifest m = small_manifest();
  CampaignOptions options;
  options.jobs = 1;
  options.out_csv = (dir_ / "campaign.csv").string();
  run_campaign(m, options);
  // Point seeds don't depend on the replication count, so only the rows'
  // replications cell betrays the change; resuming must refuse to mix.
  m.replications = 5;
  options.resume = true;
  EXPECT_THROW((void)run_campaign(m, options), std::runtime_error);
}

TEST_F(RunnerTest, ResumeRejectsPerRunRowsFromAnotherCampaign) {
  Manifest m = small_manifest();
  CampaignOptions options;
  options.jobs = 1;
  options.out_csv = (dir_ / "campaign.csv").string();
  options.per_run_csv = (dir_ / "runs.csv").string();
  run_campaign(m, options);
  // Same axes and replication count, different seeds: a fresh summary file
  // plus the old per-run file must be refused via the run rows' seed cells,
  // not silently adopted into the new campaign's artifact.
  m.seed_base += 1;
  options.out_csv = (dir_ / "campaign2.csv").string();
  options.resume = true;
  EXPECT_THROW((void)run_campaign(m, options), std::runtime_error);
}

TEST_F(RunnerTest, RefusesToClobberWithoutResume) {
  const Manifest m = small_manifest();
  CampaignOptions options;
  options.jobs = 1;
  options.out_csv = (dir_ / "campaign.csv").string();
  run_campaign(m, options);
  EXPECT_THROW(run_campaign(m, options), std::runtime_error);
}

TEST_F(RunnerTest, ProgressReportsMonotonicCompletion) {
  const Manifest m = small_manifest();
  CampaignOptions options;
  options.jobs = 2;
  std::vector<std::size_t> done_counts;
  options.progress = [&done_counts](const PointSummary&, std::size_t done,
                                    std::size_t total) {
    EXPECT_EQ(total, 6U);
    done_counts.push_back(done);
  };
  const auto report = run_campaign(m, options);
  EXPECT_EQ(report.computed, 6U);
  ASSERT_EQ(done_counts.size(), 6U);
  // Counts are non-decreasing (record and progress are not one atomic step,
  // so two workers may observe the same done count) and end complete.
  for (std::size_t i = 1; i < done_counts.size(); ++i) {
    EXPECT_LE(done_counts[i - 1], done_counts[i]);
  }
  EXPECT_EQ(done_counts.back(), 6U);
}

// A replication-heavy single point split into sub-jobs must reproduce the
// serial bytes exactly: the split only changes the schedule, never the
// per-replication seeds or the reduction order.
TEST_F(RunnerTest, ReplicationSplitIsByteIdenticalToSerial) {
  Manifest m = small_manifest();
  m.axes.clear();  // one point
  m.replications = 6;

  CampaignOptions serial;
  serial.jobs = 1;
  serial.out_csv = (dir_ / "serial.csv").string();
  serial.per_run_csv = (dir_ / "serial_runs.csv").string();
  run_campaign(m, serial);

  CampaignOptions split;
  split.jobs = 4;
  split.rep_chunk = 1;  // every replication its own sub-job
  split.out_csv = (dir_ / "split.csv").string();
  split.per_run_csv = (dir_ / "split_runs.csv").string();
  const auto report = run_campaign(m, split);
  EXPECT_EQ(report.computed, 1U);

  EXPECT_EQ(slurp(dir_ / "split.csv"), slurp(dir_ / "serial.csv"));
  EXPECT_EQ(slurp(dir_ / "split_runs.csv"), slurp(dir_ / "serial_runs.csv"));

  // The automatic chunk (rep_chunk = 0) picks some split for a one-point
  // campaign; whatever it picks, the bytes must not change.
  CampaignOptions autosplit;
  autosplit.jobs = 4;
  autosplit.out_csv = (dir_ / "auto.csv").string();
  run_campaign(m, autosplit);
  EXPECT_EQ(slurp(dir_ / "auto.csv"), slurp(dir_ / "serial.csv"));
}

TEST_F(RunnerTest, PerRunOutputHasOneRowPerReplication) {
  const Manifest m = small_manifest();
  CampaignOptions options;
  options.jobs = 2;
  options.out_csv = (dir_ / "out.csv").string();
  options.per_run_csv = (dir_ / "runs.csv").string();
  run_campaign(m, options);

  std::ifstream in(dir_ / "runs.csv");
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.substr(0, 15), "point,rep,seed,");
  EXPECT_NE(line.find("p95_delay_s"), std::string::npos);
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 6U * m.replications);
}

}  // namespace
}  // namespace pas::exp
