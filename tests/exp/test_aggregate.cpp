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

#include "exp/row_store.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "metrics/stats.hpp"

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
  Aggregator agg(csv_, "", {"policy"}, 3);
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
    Aggregator agg(csv_, "", {"policy"}, 4);
    agg.load_existing();
    agg.record(0, 100, {"NS"}, fake_metrics(0.0));
    agg.record(2, 102, {"PAS"}, fake_metrics(1.5));
  }  // "killed" campaign: rows 0 and 2 on disk

  Aggregator resumed(csv_, "", {"policy"}, 4);
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
    Aggregator agg(csv_, "", {"policy"}, 3);
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
  Aggregator resumed(csv_, "", {"policy"}, 3);
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
  Aggregator agg(csv_, "", {"policy"}, 3);
  EXPECT_THROW(agg.load_existing(), std::runtime_error);
}

TEST_F(AggregateTest, FinalizeRequiresCompleteness) {
  Aggregator agg(csv_, "", {}, 2);
  agg.load_existing();
  agg.record(0, 100, {}, fake_metrics(0.0));
  EXPECT_THROW(agg.finalize(), std::logic_error);
}

TEST_F(AggregateTest, JsonLinesMirrorRows) {
  const std::string jsonl = (dir_ / "out.jsonl").string();
  Aggregator agg(csv_, jsonl, {"policy"}, 1);
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
  Aggregator agg(csv_, jsonl, {"policy"}, 1);
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
    Aggregator agg(csv_, "", {"max_sleep_s"}, 2,
                   {{"100", "5"}, {"101", "10"}});
    agg.load_existing();
    agg.record(0, 100, {"5"}, fake_metrics(1.0));
  }
  // Same columns, but the campaign now expects different axis values for
  // point 0 (as if the manifest's sweep values changed).
  Aggregator changed(csv_, "", {"max_sleep_s"}, 2,
                     {{"100", "7"}, {"101", "10"}});
  EXPECT_THROW(changed.load_existing(), std::runtime_error);

  // A changed seed_base is caught the same way.
  Aggregator reseeded(csv_, "", {"max_sleep_s"}, 2,
                      {{"999", "5"}, {"998", "10"}});
  EXPECT_THROW(reseeded.load_existing(), std::runtime_error);

  // The matching manifest still resumes cleanly.
  Aggregator same(csv_, "", {"max_sleep_s"}, 2, {{"100", "5"}, {"101", "10"}});
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
  Aggregator agg(csv_, "", {"policy"}, 1);
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
  Aggregator agg("", "", {"policy"}, 2);
  agg.load_existing();
  agg.record(0, 1, {"NS"}, fake_metrics(0.0));
  agg.record(1, 2, {"PAS"}, fake_metrics(1.0));
  agg.finalize();
  EXPECT_EQ(agg.done_count(), 2U);
  EXPECT_EQ(agg.summaries().at(1).delay_s.mean, 1.0);
  EXPECT_TRUE(fs::directory_iterator(dir_) == fs::directory_iterator());
}

TEST_F(AggregateTest, RecordRejectsPointOutsideTheGrid) {
  // Unsharded, every in-range point is owned; an index past the grid must
  // not reach the completion bitmap.
  Aggregator in_memory("", "", {"policy"}, 2);
  in_memory.load_existing();
  EXPECT_THROW(in_memory.record(2, 102, {"PAS"}, fake_metrics(1.0)),
               std::logic_error);
  EXPECT_THROW(in_memory.record(SIZE_MAX, 0, {"PAS"}, fake_metrics(1.0)),
               std::logic_error);
  EXPECT_EQ(in_memory.done_count(), 0U);

  Aggregator on_disk(csv_, "", {"policy"}, 2);
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
                                  std::size_t reps,
                                  std::size_t spill_budget) {
    fs::create_directories(dir_ / sub);
    AggregatorOptions options;
    options.csv_path = (dir_ / sub / "out.csv").string();
    options.json_path = (dir_ / sub / "out.jsonl").string();
    options.per_run_path = (dir_ / sub / "runs.csv").string();
    options.axis_names = {"x"};
    options.total_points = total_points;
    options.replications = reps;
    options.spill_budget_bytes = spill_budget;
    return options;
  }
};

TEST_F(StoreAggregateTest, SpillBudgetDoesNotChangeBytes) {
  constexpr std::size_t kPoints = 37;
  constexpr std::size_t kReps = 3;
  // A tiny spill budget forces many sorted runs and a genuine k-way merge
  // even on this small campaign; the default budget exports from a single
  // in-memory batch.
  for (const auto& [sub, budget] :
       {std::pair<const char*, std::size_t>{"tiny", 512},
        std::pair<const char*, std::size_t>{"default", 0}}) {
    const auto options = store_options(sub, kPoints, kReps, budget);
    Aggregator agg{AggregatorOptions(options)};
    agg.load_existing();
    // Record in a scrambled (but deterministic) completion order.
    for (std::size_t i = 0; i < kPoints; ++i) {
      const std::size_t p = (i * 17) % kPoints;
      agg.record(p, 1000 + p, {std::to_string(p)}, synth_metrics(p, kReps));
    }
    agg.finalize();
    // finalize retires the store.
    EXPECT_FALSE(fs::exists(RowStore::path_for(options.csv_path)));
  }
  // Recorded while the in-memory aggregator still produced these exact
  // bytes alongside the store.
  const std::pair<const char*, std::uint64_t> golden[] = {
      {"out.csv", 1448401146995590522ULL},
      {"out.jsonl", 10358593192240084000ULL},
      {"runs.csv", 12214723954500783299ULL}};
  for (const auto& [name, digest] : golden) {
    const std::string bytes = slurp(dir_ / "tiny" / name);
    EXPECT_EQ(bytes, slurp(dir_ / "default" / name)) << name;
    EXPECT_EQ(fnv1a(bytes), digest)
        << name << " digest is now " << fnv1a(bytes);
  }
}

TEST_F(StoreAggregateTest, ResumeDropsTornBinaryTail) {
  const auto options = store_options("s", 2, 2, 0);
  {
    Aggregator agg{AggregatorOptions(options)};
    agg.load_existing();
    agg.record(0, 100, {"0"}, synth_metrics(0, 2));
    agg.record(1, 101, {"1"}, synth_metrics(1, 2));
    // No finalize: the campaign dies here, rows live only in the store.
  }
  EXPECT_FALSE(fs::exists(options.csv_path));
  ASSERT_TRUE(fs::exists(RowStore::path_for(options.csv_path)));
  // Tear into point 1's trailing summary record, as a kill mid-write would.
  const std::string store = RowStore::path_for(options.csv_path);
  fs::resize_file(store, fs::file_size(store) - 3);

  Aggregator resumed{AggregatorOptions(options)};
  EXPECT_EQ(resumed.load_existing(), 1U);
  EXPECT_TRUE(resumed.is_done(0));
  EXPECT_FALSE(resumed.is_done(1));
  resumed.record(1, 101, {"1"}, synth_metrics(1, 2));
  resumed.finalize();

  // The recovered campaign's artifacts equal an uninterrupted run's.
  const auto clean = store_options("clean", 2, 2, 0);
  Aggregator oracle{AggregatorOptions(clean)};
  oracle.load_existing();
  oracle.record(0, 100, {"0"}, synth_metrics(0, 2));
  oracle.record(1, 101, {"1"}, synth_metrics(1, 2));
  oracle.finalize();
  for (const char* name : {"out.csv", "out.jsonl", "runs.csv"}) {
    EXPECT_EQ(read_lines((dir_ / "s" / name).string()),
              read_lines((dir_ / "clean" / name).string()))
        << name;
  }
}

TEST_F(StoreAggregateTest, DiscardPointsTombstonesWithoutRewrite) {
  const auto options = store_options("s", 3, 2, 0);
  Aggregator agg{AggregatorOptions(options)};
  agg.load_existing();
  for (std::size_t p = 0; p < 3; ++p) {
    agg.record(p, 100 + p, {std::to_string(p)}, synth_metrics(p, 2));
  }
  agg.discard_points({1});
  EXPECT_EQ(agg.done_points(), (std::vector<std::size_t>{0, 2}));
  agg.compact();
  const auto lines = read_lines(options.csv_path);
  ASSERT_EQ(lines.size(), 3U);
  EXPECT_EQ(lines[1].substr(0, 2), "0,");
  EXPECT_EQ(lines[2].substr(0, 2), "2,");
  // The point is recordable again, and finalize completes normally.
  agg.record(1, 101, {"1"}, synth_metrics(1, 2));
  agg.finalize();
  EXPECT_EQ(read_lines(options.csv_path).size(), 4U);
  EXPECT_FALSE(fs::exists(RowStore::path_for(options.csv_path)));
}

TEST_F(StoreAggregateTest, SeedsFreshStoreFromFinalizedCsv) {
  const auto options = store_options("s", 2, 2, 0);
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
  auto options = store_options("s", 3, 2, 0);
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
  const auto options = store_options("s", 2, 2, 0);
  Aggregator agg{AggregatorOptions(options)};
  agg.load_existing();
  agg.record(0, 100, {"0"}, synth_metrics(0, 2));
  EXPECT_THROW(agg.finalize(), std::logic_error);
  // The failed finalize touched nothing: no CSV yet, store intact.
  EXPECT_FALSE(fs::exists(options.csv_path));
  EXPECT_TRUE(fs::exists(RowStore::path_for(options.csv_path)));
}

TEST_F(AggregateTest, SketchQuantilesEngageBeyondExactThreshold) {
  // Above the exact-quantile retention bound (256 reps) record() reads the
  // delay percentiles from the streaming digest fed by reduce_runs; with
  // the digest absent (hand-built metrics, as here) it must fall back to
  // the exact sort so partial fixtures keep working.
  constexpr std::size_t kReps = 300;
  Aggregator agg(csv_, "", {"policy"}, 1);
  agg.load_existing();
  world::ReplicatedMetrics m = fake_metrics(1.0);
  m.runs.resize(kReps);
  std::vector<double> delays;
  for (std::size_t r = 0; r < kReps; ++r) {
    m.runs[r] = metrics::RunMetrics{};
    m.runs[r].avg_delay_s = static_cast<double>((r * 37) % kReps);
    delays.push_back(m.runs[r].avg_delay_s);
    m.delay_digest.add(m.runs[r].avg_delay_s);
  }
  agg.record(0, 100, {"PAS"}, m);
  agg.finalize();
  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 2U);
  const std::string want = "," + io::format_double(m.delay_digest.quantile(0.50)) +
                           "," + io::format_double(m.delay_digest.quantile(0.95)) +
                           "," + io::format_double(m.delay_digest.quantile(0.99)) + ",";
  EXPECT_NE(lines[1].find(want), std::string::npos);
  // And the sketch sits within rank tolerance of the exact quantiles.
  const auto exact = metrics::Percentiles::of(delays);
  EXPECT_NEAR(m.delay_digest.quantile(0.95), exact.p95,
              0.02 * static_cast<double>(kReps));
}

}  // namespace
}  // namespace pas::exp
