// Aggregator: row-store recording, CSV/JSON export, resume recovery,
// finalize.
#include "exp/aggregate.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exp/grid.hpp"
#include "exp/row_store.hpp"
#include "exp/runner.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "metrics/stats.hpp"
#include "world/paper_setup.hpp"
#include "world/sweep.hpp"

namespace pas::exp {
namespace {

namespace fs = std::filesystem;

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pas_agg_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    csv_ = (dir_ / "out.csv").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  static world::ReplicatedMetrics fake_metrics(double delay) {
    world::ReplicatedMetrics m;
    m.delay_s = {.n = 2, .mean = delay, .stddev = 0.0, .min = delay,
                 .max = delay, .ci95_half = 0.0};
    m.energy_j = {.n = 2, .mean = 4.0, .stddev = 0.0, .min = 4.0, .max = 4.0,
                  .ci95_half = 0.0};
    m.active_fraction = {.n = 2, .mean = 0.5, .stddev = 0.0, .min = 0.5,
                         .max = 0.5, .ci95_half = 0.0};
    m.mean_missed = 1.0;
    m.mean_broadcasts = 10.0;
    m.runs.resize(2);
    return m;
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  /// FNV-1a 64 over a file's bytes.
  static std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    return h;
  }

  static std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  fs::path dir_;
  std::string csv_;
};

TEST_F(AggregateTest, WritesHeaderAndRowsIncrementally) {
  Aggregator agg({.csv_path = csv_,
                  .axis_names = {"policy"},
                  .total_points = 3});
  EXPECT_EQ(agg.load_existing(), 0U);
  agg.record(1, 111, {"SAS"}, fake_metrics(2.0));
  // The row is on disk (flushed to the store) before the campaign
  // completes, and compact() renders it without finalizing.
  EXPECT_GT(fs::file_size(RowStore::path_for(csv_)), 16U);
  agg.compact();
  auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_EQ(lines[0].substr(0, 11), "point,seed,");
  EXPECT_EQ(lines[1].substr(0, 6), "1,111,");
  EXPECT_FALSE(agg.is_done(0));
  EXPECT_TRUE(agg.is_done(1));
  EXPECT_EQ(agg.pending(), (std::vector<std::size_t>{0, 2}));
}

TEST_F(AggregateTest, ResumeSkipsCompletedPoints) {
  {
    Aggregator agg({.csv_path = csv_,
                    .axis_names = {"policy"},
                    .total_points = 4});
    agg.load_existing();
    agg.record(0, 100, {"NS"}, fake_metrics(0.0));
    agg.record(2, 102, {"PAS"}, fake_metrics(1.5));
  }  // "killed" campaign: rows 0 and 2 on disk

  Aggregator resumed({.csv_path = csv_,
                      .axis_names = {"policy"},
                      .total_points = 4});
  EXPECT_EQ(resumed.load_existing(), 2U);
  EXPECT_TRUE(resumed.is_done(0));
  EXPECT_FALSE(resumed.is_done(1));
  EXPECT_TRUE(resumed.is_done(2));
  EXPECT_EQ(resumed.pending(), (std::vector<std::size_t>{1, 3}));

  resumed.record(1, 101, {"SAS"}, fake_metrics(2.0));
  resumed.record(3, 103, {"PAS"}, fake_metrics(3.0));
  resumed.finalize();

  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 5U);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(lines[p + 1].substr(0, 2), std::to_string(p) + ",");
  }
}

TEST_F(AggregateTest, ResumeDropsTruncatedTrailingRow) {
  {
    Aggregator agg({.csv_path = csv_,
                    .axis_names = {"policy"},
                    .total_points = 3});
    agg.load_existing();
    agg.record(0, 100, {"NS"}, fake_metrics(0.0));
    agg.compact();
  }
  // Without its store the CSV is all a resume has to go on (as after a
  // finalize); the import must drop the torn row.
  fs::remove(RowStore::path_for(csv_));
  {
    // Simulate a kill mid-write: append half a row.
    std::ofstream out(csv_, std::ios::app);
    out << "1,101,SAS,2,0.5";  // far fewer cells than the header
  }
  Aggregator resumed({.csv_path = csv_,
                      .axis_names = {"policy"},
                      .total_points = 3});
  EXPECT_EQ(resumed.load_existing(), 1U);
  EXPECT_FALSE(resumed.is_done(1));
  // The compacted file no longer carries the damaged point-1 line.
  resumed.compact();
  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 2U);  // header + intact row 0
  EXPECT_EQ(lines[1].substr(0, 2), "0,");
}

TEST_F(AggregateTest, HeaderMismatchThrows) {
  {
    std::ofstream out(csv_);
    out << "point,seed,wrong,columns\n";
  }
  Aggregator agg({.csv_path = csv_,
                  .axis_names = {"policy"},
                  .total_points = 3});
  EXPECT_THROW(agg.load_existing(), std::runtime_error);
}

TEST_F(AggregateTest, FinalizeRequiresCompleteness) {
  Aggregator agg({.csv_path = csv_, .total_points = 2});
  agg.load_existing();
  agg.record(0, 100, {}, fake_metrics(0.0));
  EXPECT_THROW(agg.finalize(), std::logic_error);
}

TEST_F(AggregateTest, JsonLinesMirrorRows) {
  const std::string jsonl = (dir_ / "out.jsonl").string();
  Aggregator agg({.csv_path = csv_,
                  .json_path = jsonl,
                  .axis_names = {"policy"},
                  .total_points = 1});
  agg.load_existing();
  agg.record(0, 100, {"PAS"}, fake_metrics(2.5));
  agg.finalize();
  const auto lines = read_lines(jsonl);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_NE(lines[0].find("\"policy\":\"PAS\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"delay_mean_s\":2.5"), std::string::npos);
  // Rows must be valid JSON documents.
  EXPECT_NO_THROW((void)io::Json::parse(lines[0]));
}

TEST_F(AggregateTest, NonFiniteMetricsBecomeJsonNull) {
  const std::string jsonl = (dir_ / "out.jsonl").string();
  Aggregator agg({.csv_path = csv_,
                  .json_path = jsonl,
                  .axis_names = {"policy"},
                  .total_points = 1});
  agg.load_existing();
  auto m = fake_metrics(std::numeric_limits<double>::quiet_NaN());
  m.energy_j.mean = std::numeric_limits<double>::infinity();
  agg.record(0, 100, {"PAS"}, m);
  agg.finalize();
  const auto lines = read_lines(jsonl);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_NE(lines[0].find("\"delay_mean_s\":null"), std::string::npos);
  EXPECT_NE(lines[0].find("\"energy_mean_j\":null"), std::string::npos);
  EXPECT_NO_THROW((void)io::Json::parse(lines[0]));  // still valid JSON
}

TEST_F(AggregateTest, ResumeRejectsRowsFromDifferentManifest) {
  {
    Aggregator agg({.csv_path = csv_,
                    .axis_names = {"max_sleep_s"},
                    .total_points = 2,
                    .expected_identity = {{"100", "5"}, {"101", "10"}}});
    agg.load_existing();
    agg.record(0, 100, {"5"}, fake_metrics(1.0));
  }
  // Same columns, but the campaign now expects different axis values for
  // point 0 (as if the manifest's sweep values changed).
  Aggregator changed({.csv_path = csv_,
                      .axis_names = {"max_sleep_s"},
                      .total_points = 2,
                      .expected_identity = {{"100", "7"}, {"101", "10"}}});
  EXPECT_THROW(changed.load_existing(), std::runtime_error);

  // A changed seed_base is caught the same way.
  Aggregator reseeded({.csv_path = csv_,
                       .axis_names = {"max_sleep_s"},
                       .total_points = 2,
                       .expected_identity = {{"999", "5"}, {"998", "10"}}});
  EXPECT_THROW(reseeded.load_existing(), std::runtime_error);

  // The matching manifest still resumes cleanly.
  Aggregator same({.csv_path = csv_,
                   .axis_names = {"max_sleep_s"},
                   .total_points = 2,
                   .expected_identity = {{"100", "5"}, {"101", "10"}}});
  EXPECT_EQ(same.load_existing(), 1U);
}

TEST_F(AggregateTest, OwnedPointsRestrictPendingAndFinalize) {
  AggregatorOptions options;
  options.csv_path = csv_;
  options.axis_names = {"policy"};
  options.total_points = 4;
  options.owned_points = {0, 2};
  Aggregator agg(std::move(options));
  EXPECT_EQ(agg.owned_count(), 2U);
  agg.load_existing();
  EXPECT_EQ(agg.pending(), (std::vector<std::size_t>{0, 2}));
  // Foreign points are a scheduling bug, not data.
  EXPECT_THROW(agg.record(1, 101, {"SAS"}, fake_metrics(1.0)),
               std::logic_error);
  agg.record(0, 100, {"NS"}, fake_metrics(0.0));
  agg.record(2, 102, {"PAS"}, fake_metrics(2.0));
  // Complete for this shard even though points 1 and 3 have no rows.
  agg.finalize();
  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 3U);
  EXPECT_EQ(lines[1].substr(0, 2), "0,");
  EXPECT_EQ(lines[2].substr(0, 2), "2,");
}

TEST_F(AggregateTest, PerRunRowsMirrorEveryReplication) {
  const std::string runs_csv = (dir_ / "runs.csv").string();
  AggregatorOptions options;
  options.csv_path = csv_;
  options.per_run_path = runs_csv;
  options.axis_names = {"policy"};
  options.total_points = 1;
  options.replications = 2;
  Aggregator agg(std::move(options));
  agg.load_existing();
  auto m = fake_metrics(2.0);
  m.runs[0].avg_delay_s = 1.5;
  m.runs[1].avg_delay_s = 2.5;
  agg.record(0, 100, {"PAS"}, m);
  agg.finalize();

  const auto lines = read_lines(runs_csv);
  ASSERT_EQ(lines.size(), 3U);  // header + one row per replication
  EXPECT_EQ(lines[0].substr(0, 15), "point,rep,seed,");
  // Replication r runs with seed 100 + r.
  EXPECT_EQ(lines[1].substr(0, 10), "0,0,100,PA");
  EXPECT_EQ(lines[2].substr(0, 10), "0,1,101,PA");
  EXPECT_NE(lines[1].find(",1.5,"), std::string::npos);
  EXPECT_NE(lines[2].find(",2.5,"), std::string::npos);
}

TEST_F(AggregateTest, ResumeDropsPointsWithTornPerRunGroups) {
  const std::string runs_csv = (dir_ / "runs.csv").string();
  const auto make_options = [&] {
    AggregatorOptions options;
    options.csv_path = csv_;
    options.per_run_path = runs_csv;
    options.axis_names = {"policy"};
    options.total_points = 2;
    options.replications = 2;
    return options;
  };
  {
    Aggregator agg(make_options());
    agg.load_existing();
    agg.record(0, 100, {"NS"}, fake_metrics(0.0));
    agg.record(1, 101, {"PAS"}, fake_metrics(1.0));
    agg.finalize();
  }
  // Tear point 1's per-run group (as if killed mid-write): its summary row
  // must not count as done on resume.
  {
    const auto lines = read_lines(runs_csv);
    ASSERT_EQ(lines.size(), 5U);
    std::ofstream out(runs_csv, std::ios::trunc);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << '\n';
  }
  Aggregator resumed(make_options());
  EXPECT_EQ(resumed.load_existing(), 1U);
  EXPECT_TRUE(resumed.is_done(0));
  EXPECT_FALSE(resumed.is_done(1));
  // The compacted per-run file dropped the torn group entirely.
  resumed.compact();
  EXPECT_EQ(read_lines(runs_csv).size(), 3U);
}

TEST_F(AggregateTest, MainCsvCarriesDelayPercentileColumns) {
  Aggregator agg({.csv_path = csv_,
                  .axis_names = {"policy"},
                  .total_points = 1});
  agg.load_existing();
  auto m = fake_metrics(2.0);
  m.runs[0].avg_delay_s = 1.0;
  m.runs[1].avg_delay_s = 3.0;
  agg.record(0, 100, {"PAS"}, m);
  agg.finalize();
  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_NE(lines[0].find("delay_p50_s,delay_p95_s,delay_p99_s"),
            std::string::npos);
  // Interpolated over the per-run delays {1, 3}, rendered exactly as the
  // aggregator does (round-trip formatting).
  const auto pct = metrics::Percentiles::of({1.0, 3.0});
  const std::string want = "," + io::format_double(pct.p50) + "," +
                           io::format_double(pct.p95) + "," +
                           io::format_double(pct.p99) + ",";
  EXPECT_NE(lines[1].find(want), std::string::npos);
}

TEST_F(AggregateTest, InMemoryAggregationNeedsNoFiles) {
  Aggregator agg({.axis_names = {"policy"}, .total_points = 2});
  agg.load_existing();
  agg.record(0, 1, {"NS"}, fake_metrics(0.0));
  agg.record(1, 2, {"PAS"}, fake_metrics(1.0));
  agg.finalize();
  EXPECT_EQ(agg.done_count(), 2U);
  EXPECT_TRUE(fs::directory_iterator(dir_) == fs::directory_iterator());
}

TEST_F(AggregateTest, RecordRejectsPointOutsideTheGrid) {
  // Unsharded, every in-range point is owned; an index past the grid must
  // not reach the completion bitmap.
  Aggregator in_memory({.axis_names = {"policy"}, .total_points = 2});
  in_memory.load_existing();
  EXPECT_THROW(in_memory.record(2, 102, {"PAS"}, fake_metrics(1.0)),
               std::logic_error);
  EXPECT_THROW(in_memory.record(SIZE_MAX, 0, {"PAS"}, fake_metrics(1.0)),
               std::logic_error);
  EXPECT_EQ(in_memory.done_count(), 0U);

  Aggregator on_disk({.csv_path = csv_,
                      .axis_names = {"policy"},
                      .total_points = 2});
  on_disk.load_existing();
  EXPECT_THROW(on_disk.record(2, 102, {"PAS"}, fake_metrics(1.0)),
               std::logic_error);
  EXPECT_EQ(on_disk.pending(), (std::vector<std::size_t>{0, 1}));
}

// --- Row store --------------------------------------------------------------

class StoreAggregateTest : public AggregateTest {
 protected:
  /// Deterministic per-(point, rep) metrics, so two campaigns recording the
  /// same points see identical inputs — any byte difference between their
  /// artifacts is then a pipeline bug.
  static world::ReplicatedMetrics synth_metrics(std::size_t point,
                                                std::size_t reps) {
    world::ReplicatedMetrics m = fake_metrics(
        0.5 + 0.01 * static_cast<double>(point % 13));
    m.runs.resize(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      m.runs[r] = metrics::RunMetrics{};
      m.runs[r].avg_delay_s =
          0.25 + 0.003 * static_cast<double>((point * 7 + r * 3) % 29);
      m.runs[r].avg_energy_j =
          1.0 + 0.001 * static_cast<double>((point + r) % 17);
    }
    return m;
  }

  AggregatorOptions store_options(const fs::path& sub,
                                  std::size_t total_points,
                                  std::size_t reps) {
    fs::create_directories(dir_ / sub);
    AggregatorOptions options;
    options.csv_path = (dir_ / sub / "out.csv").string();
    options.json_path = (dir_ / sub / "out.jsonl").string();
    options.per_run_path = (dir_ / sub / "runs.csv").string();
    options.axis_names = {"x"};
    options.total_points = total_points;
    options.replications = reps;
    return options;
  }
};

TEST_F(StoreAggregateTest, ScrambledOrderExportsPinnedBytes) {
  constexpr std::size_t kPoints = 37;
  constexpr std::size_t kReps = 3;
  const auto options = store_options("s", kPoints, kReps);
  Aggregator agg{AggregatorOptions(options)};
  agg.load_existing();
  // Record in a scrambled (but deterministic) completion order: the export
  // reads the store out of order and must still write point order.
  for (std::size_t i = 0; i < kPoints; ++i) {
    const std::size_t p = (i * 17) % kPoints;
    agg.record(p, 1000 + p, {std::to_string(p)}, synth_metrics(p, kReps));
  }
  agg.finalize();
  // finalize retires the store.
  EXPECT_FALSE(fs::exists(RowStore::path_for(options.csv_path)));
  // Recorded while the in-memory aggregator still produced these exact
  // bytes alongside the store.
  const std::pair<const char*, std::uint64_t> golden[] = {
      {"out.csv", 1448401146995590522ULL},
      {"out.jsonl", 10358593192240084000ULL},
      {"runs.csv", 12214723954500783299ULL}};
  for (const auto& [name, digest] : golden) {
    const std::string bytes = slurp(dir_ / "s" / name);
    EXPECT_EQ(fnv1a(bytes), digest)
        << name << " digest is now " << fnv1a(bytes);
  }
}

TEST_F(StoreAggregateTest, ResumeRecomputesTornOrMalformedPoint) {
  // The recovered campaign's artifacts must equal an uninterrupted run's.
  const auto clean = store_options("clean", 2, 2);
  {
    Aggregator oracle{AggregatorOptions(clean)};
    oracle.load_existing();
    oracle.record(0, 100, {"0"}, synth_metrics(0, 2));
    oracle.record(1, 101, {"1"}, synth_metrics(1, 2));
    oracle.finalize();
  }
  for (const std::string sub : {"torn", "malformed"}) {
    const auto options = store_options(sub, 2, 2);
    const std::string store = RowStore::path_for(options.csv_path);
    std::vector<std::string> columns;
    {
      Aggregator agg{AggregatorOptions(options)};
      agg.load_existing();
      agg.record(0, 100, {"0"}, synth_metrics(0, 2));
      agg.record(1, 101, {"1"}, synth_metrics(1, 2));
      columns = agg.columns();
      // No finalize: the campaign dies here, rows live only in the store.
    }
    EXPECT_FALSE(fs::exists(options.csv_path));
    ASSERT_TRUE(fs::exists(store));
    if (sub == "torn") {
      // Tear into point 1's trailing summary, as a kill mid-write would.
      fs::resize_file(store, fs::file_size(store) - 3);
    } else {
      // A later summary of the wrong width. Resume once counted the point
      // done while the export dropped it, so the CSV silently lacked it.
      RowStore damaged(store, RowStore::hash_identity(columns, 2, 2, {}));
      damaged.open_append();
      damaged.append(RowStore::Kind::kSummary, 1, 0, {"1"});
      damaged.flush();
    }

    Aggregator resumed{AggregatorOptions(options)};
    EXPECT_EQ(resumed.load_existing(), 1U) << sub;
    EXPECT_TRUE(resumed.is_done(0)) << sub;
    EXPECT_FALSE(resumed.is_done(1)) << sub;
    resumed.record(1, 101, {"1"}, synth_metrics(1, 2));
    resumed.finalize();
    for (const char* name : {"out.csv", "out.jsonl", "runs.csv"}) {
      EXPECT_EQ(slurp(dir_ / sub / name), slurp(dir_ / "clean" / name))
          << sub << " " << name;
    }
  }
}

TEST_F(StoreAggregateTest, SeedsFreshStoreFromFinalizedCsv) {
  const auto options = store_options("s", 2, 2);
  {
    Aggregator agg{AggregatorOptions(options)};
    agg.load_existing();
    agg.record(0, 100, {"0"}, synth_metrics(0, 2));
    agg.record(1, 101, {"1"}, synth_metrics(1, 2));
    agg.finalize();
  }
  const auto finalized = read_lines(options.csv_path);
  // Resume over the finalized artifact: no store on disk, so the CSV
  // readers import the rows into a fresh one; everything is already done.
  Aggregator resumed{AggregatorOptions(options)};
  EXPECT_EQ(resumed.load_existing(), 2U);
  EXPECT_EQ(resumed.pending(), std::vector<std::size_t>{});
  resumed.finalize();
  EXPECT_EQ(read_lines(options.csv_path), finalized);
  EXPECT_FALSE(fs::exists(RowStore::path_for(options.csv_path)));
}

TEST_F(StoreAggregateTest, FailedImportLeavesNoStore) {
  auto options = store_options("s", 3, 2);
  options.expected_identity = {{"100", "0"}, {"101", "1"}, {"102", "2"}};
  {
    Aggregator agg{AggregatorOptions(options)};
    agg.load_existing();
    for (std::size_t p = 0; p < 3; ++p) {
      agg.record(p, 100 + p, {std::to_string(p)}, synth_metrics(p, 2));
    }
    agg.finalize();
  }
  const std::string csv = slurp(options.csv_path);
  const std::string runs = slurp(options.per_run_path);
  const std::string store = RowStore::path_for(options.csv_path);
  const std::string tmp = store + ".tmp";
  const auto expect_no_store = [&](const char* what) {
    EXPECT_FALSE(fs::exists(store)) << what;
    EXPECT_FALSE(fs::exists(tmp)) << what;
    EXPECT_EQ(slurp(options.csv_path), csv) << what;
  };

  // A foreign header fails before the first row.
  auto foreign = options;
  foreign.axis_names = {"y"};
  EXPECT_THROW(Aggregator{std::move(foreign)}.load_existing(),
               std::runtime_error);
  expect_no_store("foreign header");

  // A changed manifest fails on the last summary row, after two rows have
  // already gone into the temporary store.
  auto changed = options;
  changed.expected_identity[2] = {"102", "7"};
  EXPECT_THROW(Aggregator{std::move(changed)}.load_existing(),
               std::runtime_error);
  expect_no_store("changed manifest");

  // A per-run row from another campaign fails after every summary row.
  {
    const std::string row = "\n2,1,103,";  // point 2, rep 1, seed 103
    std::string tampered = runs;
    tampered.replace(tampered.rfind(row), row.size(), "\n2,1,999,");
    std::ofstream(options.per_run_path, std::ios::trunc) << tampered;
  }
  EXPECT_THROW(Aggregator{AggregatorOptions(options)}.load_existing(),
               std::runtime_error);
  expect_no_store("foreign per-run row");
  std::ofstream(options.per_run_path, std::ios::trunc) << runs;

  // A killed import's leftover is never trusted; the right manifest still
  // recovers every row and re-exports the same bytes.
  std::ofstream(tmp) << "PASROWS1 torn";
  Aggregator resumed{AggregatorOptions(options)};
  EXPECT_EQ(resumed.load_existing(), 3U);
  EXPECT_FALSE(fs::exists(tmp));
  resumed.finalize();
  EXPECT_EQ(slurp(options.csv_path), csv);
  EXPECT_EQ(slurp(options.per_run_path), runs);
  EXPECT_FALSE(fs::exists(store));
}

TEST_F(StoreAggregateTest, StorePathRequiresCsvPath) {
  AggregatorOptions options;
  options.axis_names = {"x"};
  options.total_points = 1;
  options.store_path = (dir_ / "orphan.pasrows").string();
  EXPECT_THROW(Aggregator{std::move(options)}, std::logic_error);
}

TEST_F(StoreAggregateTest, FinalizeRejectsIncompleteCampaignBeforeExport) {
  const auto options = store_options("s", 2, 2);
  Aggregator agg{AggregatorOptions(options)};
  agg.load_existing();
  agg.record(0, 100, {"0"}, synth_metrics(0, 2));
  EXPECT_THROW(agg.finalize(), std::logic_error);
  // The failed finalize touched nothing: no CSV yet, store intact.
  EXPECT_FALSE(fs::exists(options.csv_path));
  EXPECT_TRUE(fs::exists(RowStore::path_for(options.csv_path)));
}

// --- Encoded batches (the --drive worker → driver path) ---------------------

class EncodedBatchTest : public StoreAggregateTest {
 protected:
  static Manifest manifest(std::uint64_t seed_base = 3) {
    Manifest m;
    m.name = "encoded-batch-test";
    m.base = world::paper_scenario();
    m.replications = 2;
    m.seed_base = seed_base;
    m.axes = {
        Axis{.kind = AxisKind::kPolicy, .labels = {"NS", "SAS", "PAS"}},
        Axis{.kind = AxisKind::kMaxSleep, .numbers = {5.0, 15.0}},
    };
    return m;
  }

  /// A campaign's options writing every artifact under `sub`; an empty
  /// flag drops that artifact.
  AggregatorOptions options(const Manifest& m, const char* sub,
                            bool per_run = true, bool metrics = true) {
    fs::create_directories(dir_ / sub);
    const auto file = [&](const char* name) {
      return (dir_ / sub / name).string();
    };
    return campaign_aggregator_options(
        m, expand_grid(m), file("out.csv"), file("out.jsonl"),
        per_run ? file("runs.csv") : "", metrics ? file("m.jsonl") : "");
  }

  /// Per-point metrics whose telemetry row differs between points too.
  static world::ReplicatedMetrics metrics(std::size_t point) {
    auto m = synth_metrics(point, 2);
    for (auto& run : m.runs) run.kernel.events_dispatched = 10 + point;
    return m;
  }
};

TEST_F(EncodedBatchTest, RecordEncodedFinalizesLikeRecord) {
  const Manifest m = manifest();
  const auto points = expand_grid(m);
  const Aggregator encoder(options(m, "encoder"));
  Aggregator direct(options(m, "direct"));
  Aggregator relayed(options(m, "relayed"));
  direct.load_existing();
  relayed.load_existing();
  for (const std::size_t p : {4U, 0U, 5U, 2U, 1U, 3U}) {
    direct.record(points[p], metrics(p));
    relayed.record_encoded(p, encoder.encode_point(points[p], metrics(p)));
  }
  // The relayed store holds the very bytes record() appended.
  EXPECT_EQ(slurp(dir_ / "relayed" / "out.csv.pasrows"),
            slurp(dir_ / "direct" / "out.csv.pasrows"));
  EXPECT_TRUE(fs::is_empty(dir_ / "encoder"));
  io::JsonObject trailer;
  trailer["kind"] = "registry";
  direct.finalize({io::Json(trailer)});
  relayed.finalize({io::Json(trailer)});
  for (const char* name : {"out.csv", "out.jsonl", "runs.csv", "m.jsonl"}) {
    const std::string bytes = slurp(dir_ / "direct" / name);
    EXPECT_FALSE(bytes.empty()) << name;
    EXPECT_EQ(slurp(dir_ / "relayed" / name), bytes) << name;
  }
}

TEST_F(EncodedBatchTest, RecordEncodedRejectsAnythingButThePointsBatch) {
  const Manifest m = manifest();
  const auto points = expand_grid(m);
  const Aggregator encoder(options(m, "encoder"));
  Aggregator driver(options(m, "driver"));
  driver.load_existing();
  const std::string store = (dir_ / "driver" / "out.csv.pasrows").string();
  const auto store_bytes = fs::file_size(store);

  std::string flipped = encoder.encode_point(points[1], metrics(1));
  flipped[flipped.size() / 2] ^= 0x20;
  const Manifest reseeded = manifest(99);
  const std::string foreign[] = {
      flipped,
      encoder.encode_point(points[2], metrics(2)),
      Aggregator(options(m, "no-runs", /*per_run=*/false))
          .encode_point(points[1], metrics(1)),
      Aggregator(options(m, "no-metrics", true, /*metrics=*/false))
          .encode_point(points[1], metrics(1)),
      Aggregator(options(reseeded, "reseeded"))
          .encode_point(expand_grid(reseeded)[1], metrics(1)),
  };
  for (const auto& bytes : foreign) {
    EXPECT_THROW(driver.record_encoded(1, bytes), std::runtime_error);
    EXPECT_FALSE(driver.is_done(1));
  }
  EXPECT_EQ(fs::file_size(store), store_bytes);

  driver.record_encoded(1, encoder.encode_point(points[1], metrics(1)));
  EXPECT_TRUE(driver.is_done(1));
  EXPECT_GT(fs::file_size(store), store_bytes);
}

TEST_F(AggregateTest, DelayQuantilesAreExactAtAnyReplicationCount) {
  // 300 replications reduced as a campaign reduces them: the summary's
  // delay p50/p95/p99 are the exact sample quantiles of the per-run
  // delays, the numbers --per-run rows give.
  constexpr std::size_t kReps = 300;
  Aggregator agg({.csv_path = csv_,
                  .axis_names = {"policy"},
                  .total_points = 1});
  agg.load_existing();
  std::vector<metrics::RunMetrics> runs(kReps);
  std::vector<double> delays;
  for (std::size_t r = 0; r < kReps; ++r) {
    const double x = static_cast<double>((r * 37) % kReps);
    runs[r].avg_delay_s = 1e-3 * x * x;  // skewed, like real delays
    delays.push_back(runs[r].avg_delay_s);
  }
  agg.record(0, 100, {"PAS"}, world::reduce_runs(std::move(runs)));
  agg.finalize();
  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 2U);
  const auto exact = metrics::Percentiles::of(delays);
  const std::string want = "," + io::format_double(exact.p50) + "," +
                           io::format_double(exact.p95) + "," +
                           io::format_double(exact.p99) + ",";
  EXPECT_NE(lines[1].find(want), std::string::npos) << lines[1];
}

}  // namespace
}  // namespace pas::exp
