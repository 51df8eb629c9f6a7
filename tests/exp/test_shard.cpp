// Process-level sharding: deterministic grid partitioning, independently
// resumable shard outputs, and merge_outputs() recombination through the
// row store that is byte-identical to an unsharded run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/row_store.hpp"
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

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Merge outputs: `<stem>.csv`, plus `<stem>_runs.csv` with `per_run`
  /// and `<stem>.jsonl` with `json`.
  AggregatorOptions outputs(const std::string& stem, bool per_run = false,
                            bool json = false) const {
    AggregatorOptions out;
    out.csv_path = path(stem + ".csv");
    if (per_run) out.per_run_path = path(stem + "_runs.csv");
    if (json) out.json_path = path(stem + ".jsonl");
    return out;
  }

  /// A failed merge leaves no artifact, no store and no temp file.
  static void expect_nothing_written(const AggregatorOptions& out) {
    const std::string store = RowStore::path_for(out.csv_path);
    for (const auto& p : {out.csv_path, out.json_path, out.per_run_path,
                          out.metrics_path, store}) {
      if (p.empty()) continue;
      EXPECT_FALSE(fs::exists(p)) << p;
      EXPECT_FALSE(fs::exists(p + ".tmp")) << p << ".tmp";
    }
  }

  /// Runs the merge expecting a std::runtime_error whose message contains
  /// every one of `needles`.
  static void expect_merge_error(const Manifest& m,
                                 const std::vector<std::string>& inputs,
                                 const AggregatorOptions& out,
                                 const std::vector<std::string>& needles) {
    try {
      (void)merge_outputs(m, inputs, out);
      ADD_FAILURE() << "the merge must fail";
    } catch (const std::runtime_error& e) {
      for (const auto& needle : needles) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "\"" << needle << "\" not in: " << e.what();
      }
    }
  }

  /// The unsharded serial reference: full.csv and full_runs.csv.
  void run_full(const Manifest& m) {
    CampaignOptions full;
    full.jobs = 1;
    full.out_csv = path("full.csv");
    full.per_run_csv = path("full_runs.csv");
    run_campaign(m, full);
  }

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
  full.out_json = path("full.jsonl");
  full.per_run_csv = path("full_runs.csv");
  run_campaign(m, full);

  run_shard(m, 0, 3, path("s0.csv"), path("s0_runs.csv"));
  run_shard(m, 1, 3, path("s1.csv"), path("s1_runs.csv"));
  run_shard(m, 2, 3, path("s2.csv"), path("s2_runs.csv"));

  // One call takes every shard file in any order, summary and per-run
  // alike (each is classified by its header), and renders the JSON mirror
  // from the summary rows.
  const auto out = outputs("merged", /*per_run=*/true, /*json=*/true);
  EXPECT_EQ(merge_outputs(m,
                          {path("s2_runs.csv"), path("s1.csv"),
                           path("s0_runs.csv"), path("s2.csv"),
                           path("s0.csv"), path("s1_runs.csv")},
                          out),
            6U);
  EXPECT_EQ(slurp(out.csv_path), slurp(path("full.csv")));
  EXPECT_EQ(slurp(out.per_run_path), slurp(path("full_runs.csv")));
  EXPECT_EQ(slurp(out.json_path), slurp(path("full.jsonl")));
  EXPECT_FALSE(fs::exists(RowStore::path_for(out.csv_path)));
}

// A shard past the end of the grid owns no point: it computes nothing,
// finalizes header-only files, and merges with the others into the
// unsharded bytes.
TEST_F(ShardTest, ShardPastTheGridComputesNothingAndMergesIdentically) {
  const Manifest m = small_manifest();  // 6 points
  run_full(m);
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::string stem = path("s") + std::to_string(i);
    const auto report = run_shard(m, i, 8, stem + ".csv", stem + "_runs.csv");
    EXPECT_EQ(report.owned_points, i < 6 ? 1U : 0U) << stem;
    EXPECT_EQ(report.computed, i < 6 ? 1U : 0U) << stem;
    inputs.push_back(stem + ".csv");
    inputs.push_back(stem + "_runs.csv");
  }
  const std::string full = slurp(path("full.csv"));
  EXPECT_EQ(slurp(path("s7.csv")), full.substr(0, full.find('\n') + 1));

  const auto out = outputs("merged", /*per_run=*/true);
  EXPECT_EQ(merge_outputs(m, inputs, out), 6U);
  EXPECT_EQ(slurp(out.csv_path), full);
  EXPECT_EQ(slurp(out.per_run_path), slurp(path("full_runs.csv")));
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
  run_shard(m, 1, 2, path("s1.csv"));
  const auto out = outputs("out");
  expect_merge_error(m, {path("s0.csv"), path("s1.csv"), path("s0.csv")}, out,
                     {path("s0.csv"), "overlapping shards"});
  expect_nothing_written(out);
}

TEST_F(ShardTest, MergeRejectsMissingShard) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  // Without the odd-point shard there are gaps; the merge must refuse to
  // write a partial "full" output.
  const auto out = outputs("out");
  expect_merge_error(m, {path("s0.csv")}, out,
                     {"3 of 6 points", "first point 1"});
  expect_nothing_written(out);
}

TEST_F(ShardTest, MergeRejectsTruncatedRow) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  run_shard(m, 1, 2, path("s1.csv"));
  // Point 5's row torn mid-write: the import drops it like resume does,
  // so point 5 is missing and the merge fails as incomplete.
  std::string s1 = slurp(path("s1.csv"));
  s1.replace(s1.find("\n5,") + 1, std::string::npos, "5,12345,PAS");
  std::ofstream(path("s1.csv"), std::ios::trunc) << s1;
  const auto out = outputs("out");
  expect_merge_error(m, {path("s0.csv"), path("s1.csv")}, out,
                     {"1 of 6 points", "first point 5"});
  expect_nothing_written(out);
}

TEST_F(ShardTest, MergeSortsRepMajorPerRunInput) {
  const Manifest m = small_manifest();
  run_full(m);

  // The same rows in rep-major order (every rep-0 row, then every rep-1
  // row). No writer produces this, but the export sorts whatever the
  // import took in.
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
  const auto out = outputs("out", /*per_run=*/true);
  EXPECT_EQ(merge_outputs(m, {path("rep_major.csv"), path("full.csv")}, out),
            6U);
  EXPECT_EQ(slurp(out.per_run_path), slurp(path("full_runs.csv")));
  EXPECT_EQ(slurp(out.csv_path), slurp(path("full.csv")));
}

TEST_F(ShardTest, MergeSortsOutOfOrderSummaryRows) {
  const Manifest m = small_manifest();
  run_full(m);
  run_shard(m, 0, 2, path("s0.csv"));
  run_shard(m, 1, 2, path("s1.csv"));
  // Swap shard 1's first two rows (points 1 and 3): the merge still
  // writes them in point order.
  std::istringstream in(slurp(path("s1.csv")));
  std::string header, first, second, rest;
  std::getline(in, header);
  std::getline(in, first);
  std::getline(in, second);
  std::getline(in, rest, '\0');
  std::ofstream(path("s1.csv"), std::ios::trunc)
      << header << '\n' << second << '\n' << first << '\n' << rest;
  const auto out = outputs("out");
  EXPECT_EQ(merge_outputs(m, {path("s1.csv"), path("s0.csv")}, out), 6U);
  EXPECT_EQ(slurp(out.csv_path), slurp(path("full.csv")));
}

TEST_F(ShardTest, MergeRejectsMismatchedHeaders) {
  const Manifest m = small_manifest();
  {
    std::ofstream a(path("a.csv"));
    a << "point,seed,policy,replications\n0,1,NS,2\n";
    std::ofstream b(path("b.csv"));
    b << "point,seed,max_sleep_s,replications\n1,2,5,2\n";
  }
  const auto out = outputs("out");
  expect_merge_error(m, {path("a.csv"), path("b.csv")}, out, {path("a.csv")});
  expect_nothing_written(out);
}

TEST_F(ShardTest, MergeRejectsShardsOfADifferentManifest) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  run_shard(m, 1, 2, path("s1.csv"));
  const auto out = outputs("out");
  Manifest other = m;
  other.seed_base = 99;  // same columns, different seeds per point
  EXPECT_THROW((void)merge_outputs(other, {path("s0.csv"), path("s1.csv")},
                                   out),
               std::runtime_error);
  expect_nothing_written(out);
  // Seeds are independent of the replication count, so this mismatch is
  // only visible in the rows' replications cell — it must still be caught.
  Manifest recount = m;
  recount.replications = 5;
  EXPECT_THROW((void)merge_outputs(recount, {path("s0.csv"), path("s1.csv")},
                                   out),
               std::runtime_error);
  expect_nothing_written(out);

  // One shard of another manifest among the right ones is named.
  Manifest reseeded = m;
  reseeded.seed_base += 1000;
  run_shard(reseeded, 1, 2, path("f1.csv"));
  expect_merge_error(m, {path("s0.csv"), path("f1.csv")}, out,
                     {path("f1.csv"), "different parameters"});
  expect_nothing_written(out);
}

// Inputs the merge cannot use are errors naming the file, and an existing
// output is refused like a campaign without --resume refuses it — but
// without suggesting --resume, which a merge does not take.
TEST_F(ShardTest, MergeRejectsUnusableInputsAndExistingOutputByName) {
  const Manifest m = small_manifest();
  CampaignOptions full;
  full.jobs = 1;
  full.out_csv = path("full.csv");
  full.out_json = path("full.jsonl");
  full.per_run_csv = path("full_runs.csv");
  run_campaign(m, full);
  const auto out = outputs("out");

  // The JSON mirror is rendered from the summary rows, never imported.
  expect_merge_error(m, {path("full.csv"), path("full.jsonl")}, out,
                     {path("full.jsonl")});
  expect_nothing_written(out);
  // Per-run rows need a per-run output to go to.
  expect_merge_error(m, {path("full.csv"), path("full_runs.csv")}, out,
                     {path("full_runs.csv"), "--per-run"});
  expect_nothing_written(out);
  // A path that cannot be read.
  expect_merge_error(m, {path("full.csv"), path("nope.csv")}, out,
                     {path("nope.csv")});
  expect_nothing_written(out);
  // Empty input list.
  EXPECT_THROW((void)merge_outputs(m, {}, out), std::invalid_argument);
  // An output that cannot be written fails the export, and the artifacts
  // already opened take their temp files with them.
  auto unwritable = out;
  unwritable.json_path = path("no_such_dir/out.jsonl");
  EXPECT_THROW((void)merge_outputs(m, {path("full.csv")}, unwritable),
               std::runtime_error);
  expect_nothing_written(unwritable);

  // An existing output, or the store of one, is refused untouched.
  std::ofstream(out.csv_path) << "keep me\n";
  try {
    (void)merge_outputs(m, {path("full.csv")}, out);
    FAIL() << "an existing output must be refused";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(out.csv_path), std::string::npos) << what;
    EXPECT_NE(what.find("remove it"), std::string::npos) << what;
    EXPECT_EQ(what.find("--resume"), std::string::npos) << what;
  }
  EXPECT_EQ(slurp(out.csv_path), "keep me\n");
  EXPECT_FALSE(fs::exists(RowStore::path_for(out.csv_path)));
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
