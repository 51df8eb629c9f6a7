// Process-level sharding: deterministic grid partitioning, independently
// resumable shard outputs, and merge_outputs() recombination that is
// byte-identical to an unsharded run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/runner.hpp"
#include "world/paper_setup.hpp"

namespace pas::exp {
namespace {

namespace fs = std::filesystem;

Manifest small_manifest() {
  Manifest m;
  m.name = "shard-test";
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

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pas_shard_" + std::to_string(::getpid()) + "_" +
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

  std::string path(const char* name) const { return (dir_ / name).string(); }

  /// Runs one shard of the manifest; returns the report.
  CampaignReport run_shard(const Manifest& m, std::size_t index,
                           std::size_t count, const std::string& out,
                           const std::string& per_run = {},
                           bool resume = false) {
    CampaignOptions options;
    options.jobs = 2;
    options.shard_index = index;
    options.shard_count = count;
    options.out_csv = out;
    options.per_run_csv = per_run;
    options.resume = resume;
    return run_campaign(m, options);
  }

  fs::path dir_;
};

TEST_F(ShardTest, ShardsPartitionTheGridByIndexModulo) {
  const Manifest m = small_manifest();
  const auto r0 = run_shard(m, 0, 2, path("s0.csv"));
  const auto r1 = run_shard(m, 1, 2, path("s1.csv"));
  EXPECT_EQ(r0.total_points, 6U);
  EXPECT_EQ(r0.owned_points, 3U);  // points 0, 2, 4
  EXPECT_EQ(r0.computed, 3U);
  EXPECT_EQ(r1.owned_points, 3U);  // points 1, 3, 5

  // Shard files carry exactly the owned points, in index order.
  std::ifstream in(path("s0.csv"));
  std::string line;
  std::getline(in, line);  // header
  std::size_t expected = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.substr(0, 2), std::to_string(expected) + ",");
    expected += 2;
  }
  EXPECT_EQ(expected, 6U);
}

TEST_F(ShardTest, MergedShardsAreByteIdenticalToUnshardedRun) {
  const Manifest m = small_manifest();
  CampaignOptions full;
  full.jobs = 1;
  full.out_csv = path("full.csv");
  full.per_run_csv = path("full_runs.csv");
  run_campaign(m, full);

  run_shard(m, 0, 3, path("s0.csv"), path("s0_runs.csv"));
  run_shard(m, 1, 3, path("s1.csv"), path("s1_runs.csv"));
  run_shard(m, 2, 3, path("s2.csv"), path("s2_runs.csv"));

  const auto rows = merge_outputs(
      {path("s0.csv"), path("s1.csv"), path("s2.csv")}, path("merged.csv"),
      &m);
  EXPECT_EQ(rows, 6U);
  EXPECT_EQ(slurp(path("merged.csv")), slurp(path("full.csv")));

  // The per-run CSVs merge the same way (layout detected via the header).
  const auto run_rows = merge_outputs(
      {path("s0_runs.csv"), path("s1_runs.csv"), path("s2_runs.csv")},
      path("merged_runs.csv"), &m);
  EXPECT_EQ(run_rows, 12U);  // 6 points x 2 replications
  EXPECT_EQ(slurp(path("merged_runs.csv")), slurp(path("full_runs.csv")));
}

TEST_F(ShardTest, TruncatedShardResumesToIdenticalBytes) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  const std::string complete = slurp(path("s0.csv"));

  // Keep the header and the first owned row only (killed after point 0).
  {
    std::istringstream in(complete);
    std::ofstream out(path("s0.csv"), std::ios::trunc);
    std::string line;
    for (int i = 0; i < 2 && std::getline(in, line); ++i) out << line << '\n';
  }
  std::vector<std::size_t> recomputed;
  CampaignOptions options;
  options.jobs = 1;
  options.shard_index = 0;
  options.shard_count = 2;
  options.out_csv = path("s0.csv");
  options.resume = true;
  options.progress = [&recomputed](const PointSummary& s, std::size_t,
                                   std::size_t) {
    recomputed.push_back(s.point);
  };
  const auto report = run_campaign(m, options);
  EXPECT_EQ(report.skipped, 1U);
  EXPECT_EQ(report.computed, 2U);
  EXPECT_EQ(recomputed, (std::vector<std::size_t>{2, 4}));
  EXPECT_EQ(slurp(path("s0.csv")), complete);
}

TEST_F(ShardTest, ResumeRejectsRowsFromAnotherShard) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  // Resuming shard 0's file as shard 1 would silently drop shard 0's rows
  // and duplicate work; it must fail loudly instead.
  EXPECT_THROW(run_shard(m, 1, 2, path("s0.csv"), {}, /*resume=*/true),
               std::runtime_error);
}

TEST_F(ShardTest, MergeRejectsOverlappingShards) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  EXPECT_THROW(
      (void)merge_outputs({path("s0.csv"), path("s0.csv")}, path("out.csv")),
      std::runtime_error);
}

TEST_F(ShardTest, MergeRejectsMissingShard) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  // Without the odd-point shard there are gaps; with or without a manifest
  // the merge must refuse to write a partial "full" output.
  EXPECT_THROW((void)merge_outputs({path("s0.csv")}, path("out.csv")),
               std::runtime_error);
  EXPECT_THROW((void)merge_outputs({path("s0.csv")}, path("out.csv"), &m),
               std::runtime_error);
}

TEST_F(ShardTest, MergeRejectsTruncatedRow) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  run_shard(m, 1, 2, path("s1.csv"));
  {
    std::ofstream out(path("s1.csv"), std::ios::app);
    out << "5,12345,PAS";  // torn mid-write
  }
  EXPECT_THROW((void)merge_outputs({path("s0.csv"), path("s1.csv")},
                                   path("out.csv")),
               std::runtime_error);
}

TEST_F(ShardTest, MergeRejectsUnsortedPerRunInputNamingTheFile) {
  const Manifest m = small_manifest();
  CampaignOptions full;
  full.jobs = 1;
  full.out_csv = path("full.csv");
  full.per_run_csv = path("full_runs.csv");
  run_campaign(m, full);

  // The same rows in rep-major order (every rep-0 row, then every rep-1
  // row). No writer produces this — finalize and compact export sorted
  // rows — so the merge refuses it instead of sorting it in memory, even
  // without a manifest.
  std::istringstream in(slurp(path("full_runs.csv")));
  std::string header, line;
  std::getline(in, header);
  std::vector<std::string> rep_rows[2];
  while (std::getline(in, line)) {
    rep_rows[line.substr(line.find(',') + 1, 1) == "0" ? 0 : 1].push_back(line);
  }
  {
    std::ofstream out(path("rep_major.csv"));
    out << header << '\n';
    for (const auto& rows : rep_rows) {
      for (const auto& row : rows) out << row << '\n';
    }
  }
  try {
    (void)merge_outputs({path("rep_major.csv")}, path("out.csv"));
    FAIL() << "an unsorted per-run input must not merge";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path("rep_major.csv")),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(path("out.csv")));
  EXPECT_FALSE(fs::exists(path("out.csv.tmp")));
}

TEST_F(ShardTest, MergeRejectsOutOfOrderSummaryRow) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  run_shard(m, 1, 2, path("s1.csv"));
  // Swap shard 1's first two rows (points 1 and 3). The merge meets point
  // 3 before point 1 and must refuse, with or without a manifest.
  std::istringstream in(slurp(path("s1.csv")));
  std::string header, first, second, rest;
  std::getline(in, header);
  std::getline(in, first);
  std::getline(in, second);
  std::getline(in, rest, '\0');
  std::ofstream(path("s1.csv"), std::ios::trunc)
      << header << '\n' << second << '\n' << first << '\n' << rest;
  EXPECT_THROW((void)merge_outputs({path("s0.csv"), path("s1.csv")},
                                   path("out.csv")),
               std::runtime_error);
  EXPECT_THROW((void)merge_outputs({path("s0.csv"), path("s1.csv")},
                                   path("out.csv"), &m),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(path("out.csv")));
}

TEST_F(ShardTest, MergeRejectsMismatchedHeaders) {
  {
    std::ofstream a(path("a.csv"));
    a << "point,seed,policy,replications\n0,1,NS,2\n";
    std::ofstream b(path("b.csv"));
    b << "point,seed,max_sleep_s,replications\n1,2,5,2\n";
  }
  EXPECT_THROW(
      (void)merge_outputs({path("a.csv"), path("b.csv")}, path("out.csv")),
      std::runtime_error);
}

TEST_F(ShardTest, MergeRejectsShardsOfADifferentManifest) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  run_shard(m, 1, 2, path("s1.csv"));
  Manifest other = m;
  other.seed_base = 99;  // same columns, different seeds per point
  EXPECT_THROW((void)merge_outputs({path("s0.csv"), path("s1.csv")},
                                   path("out.csv"), &other),
               std::runtime_error);
  // Seeds are independent of the replication count, so this mismatch is
  // only visible in the rows' replications cell — it must still be caught.
  Manifest recount = m;
  recount.replications = 5;
  EXPECT_THROW((void)merge_outputs({path("s0.csv"), path("s1.csv")},
                                   path("out.csv"), &recount),
               std::runtime_error);
}

TEST_F(ShardTest, RunCampaignValidatesShardSpec) {
  const Manifest m = small_manifest();
  CampaignOptions options;
  options.shard_count = 0;
  EXPECT_THROW((void)run_campaign(m, options), std::invalid_argument);
  options.shard_count = 2;
  options.shard_index = 2;
  EXPECT_THROW((void)run_campaign(m, options), std::invalid_argument);
}

}  // namespace
}  // namespace pas::exp
