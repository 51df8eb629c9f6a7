// Campaign telemetry: the row schema, the rows' life in the Aggregator's
// row store (record, resume, import, export), shard-file merging through
// that store, and the hard invariant that --metrics never changes the CSV.
#include "exp/telemetry.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
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
  m.name = "telemetry-test";
  m.base = world::paper_scenario();
  m.base.duration_s = 60.0;
  m.replications = 2;
  m.seed_base = 3;
  m.axes = {
      Axis{.kind = AxisKind::kPolicy, .labels = {"NS", "SAS", "PAS"}},
      Axis{.kind = AxisKind::kMaxSleep, .numbers = {5.0, 15.0}},
  };
  return m;
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pas_telemetry_" + std::to_string(::getpid()) + "_" +
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

  static std::vector<io::Json> parse_lines(const fs::path& path) {
    std::ifstream in(path);
    std::vector<io::Json> rows;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) rows.push_back(io::Json::parse(line));
    }
    return rows;
  }

  /// The raw "kind":"point" lines of a telemetry file (trailers dropped).
  static std::vector<std::string> point_lines(const fs::path& path) {
    std::ifstream in(path);
    std::vector<std::string> rows;
    std::string line;
    while (std::getline(in, line)) {
      if (parse_point_row(line, 0, nullptr) != SIZE_MAX) rows.push_back(line);
    }
    return rows;
  }

  /// Aggregator options writing out.csv and metrics.jsonl for `m`'s grid.
  AggregatorOptions metrics_options(const Manifest& m) const {
    const auto points = expand_grid(m);
    AggregatorOptions options;
    options.csv_path = (dir_ / "out.csv").string();
    options.metrics_path = (dir_ / "metrics.jsonl").string();
    options.axis_names = axis_columns(m);
    options.total_points = points.size();
    options.replications = m.replications;
    options.expected_identity = grid_identity(points);
    return options;
  }

  /// Runs shard `index` of `count` into `<stem>.csv`, its JSON mirror
  /// `<stem>.jsonl` and `<stem>_m.jsonl`.
  static void run_shard(const Manifest& m, std::size_t index,
                        std::size_t count, const std::string& stem) {
    CampaignOptions options;
    options.jobs = 1;
    options.shard_index = index;
    options.shard_count = count;
    options.out_csv = stem + ".csv";
    options.out_json = stem + ".jsonl";
    options.metrics_path = stem + "_m.jsonl";
    run_campaign(m, options);
  }

  /// A fabricated two-run ReplicatedMetrics with recognizable counters.
  static world::ReplicatedMetrics fake_metrics(std::uint64_t base) {
    world::ReplicatedMetrics m;
    m.runs.resize(2);
    for (auto& run : m.runs) {
      run.kernel.events_dispatched = base;
      run.kernel.max_pending = base + 1;
      run.protocol.wakeups = base * 2;
      run.protocol.sleep_s.record(2.0);
    }
    return m;
  }

  fs::path dir_;
};

TEST_F(TelemetryTest, PointRowSchema) {
  const Manifest m = small_manifest();
  const auto points = expand_grid(m);
  const auto row = telemetry_point_row(points[4], axis_columns(m),
                                       fake_metrics(10));
  EXPECT_EQ(row.at("kind").as_string(), "point");
  EXPECT_DOUBLE_EQ(row.at("point").as_double(), 4.0);
  EXPECT_EQ(row.at("seed").as_string(), std::to_string(points[4].seed));
  EXPECT_DOUBLE_EQ(row.at("replications").as_double(), 2.0);
  EXPECT_EQ(row.at("policy").as_string(), "PAS");

  // Axes echo the grid coordinates under the CSV column names.
  const auto& axes = row.at("axes").as_object();
  EXPECT_EQ(axes.size(), 2U);

  // Kernel and protocol sections sum the replications.
  EXPECT_DOUBLE_EQ(row.at("kernel").at("events_dispatched").as_double(), 20.0);
  EXPECT_DOUBLE_EQ(row.at("kernel").at("max_pending").as_double(), 11.0);
  EXPECT_DOUBLE_EQ(row.at("protocol").at("wakeups").as_double(), 40.0);
  EXPECT_DOUBLE_EQ(row.at("protocol").at("sleep_s").at("total").as_double(),
                   2.0);
}

TEST_F(TelemetryTest, StoreKeepsFirstRowsAcrossResumeAndFinalizesSorted) {
  const Manifest m = small_manifest();
  const auto points = expand_grid(m);
  const auto options = metrics_options(m);
  {
    Aggregator agg{AggregatorOptions(options)};
    EXPECT_EQ(agg.load_existing(), 0U);
    agg.record(points[3], fake_metrics(5));
    agg.record(points[1], fake_metrics(7));
    agg.record(points[1], fake_metrics(9));  // duplicate: first wins
    EXPECT_EQ(agg.done_count(), 2U);
    // The index-based overload cannot render a telemetry row.
    EXPECT_THROW(agg.record(0, points[0].seed, points[0].values,
                            fake_metrics(1)),
                 std::logic_error);
    // No finalize: the row store is the crash artifact.
  }
  EXPECT_FALSE(fs::exists(options.metrics_path));
  {
    // Resume keeps existing rows and only adds the new ones.
    Aggregator agg{AggregatorOptions(options)};
    EXPECT_EQ(agg.load_existing(), 2U);
    for (const std::size_t p : {5U, 0U, 4U, 2U}) {
      agg.record(points[p], fake_metrics(p + 1));
    }
    EXPECT_FALSE(fs::exists(options.metrics_path));
    io::JsonObject trailer;
    trailer["kind"] = "registry";
    agg.finalize({io::Json(std::move(trailer))});
  }

  const auto rows = parse_lines(options.metrics_path);
  ASSERT_EQ(rows.size(), 7U);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(rows[i].at("point").as_double(), static_cast<double>(i));
  }
  EXPECT_EQ(rows[6].at("kind").as_string(), "registry");
  // Point 1 kept the first-recorded payload, point 3 its resumed one.
  EXPECT_DOUBLE_EQ(rows[1].at("protocol").at("wakeups").as_double(), 28.0);
  EXPECT_DOUBLE_EQ(rows[3].at("protocol").at("wakeups").as_double(), 20.0);
  EXPECT_FALSE(fs::exists(RowStore::path_for(options.csv_path)));
}

TEST_F(TelemetryTest, ImportDropsGarbageTrailersAndOutsideGridRows) {
  const Manifest m = small_manifest();
  const auto points = expand_grid(m);
  const auto options = metrics_options(m);
  {
    // A finished artifact holding point 2 only: the exported files without
    // the store.
    Aggregator agg{AggregatorOptions(options)};
    agg.load_existing();
    agg.record(points[2], fake_metrics(3));
    agg.compact();
  }
  fs::remove(RowStore::path_for(options.csv_path));
  const auto good = point_lines(options.metrics_path);
  ASSERT_EQ(good.size(), 1U);
  {
    std::ofstream out(options.metrics_path, std::ios::trunc);
    out << "not json at all\n";
    out << "{\"kind\":\"registry\",\"scope\":\"campaign\"}\n";  // stale trailer
    out << "{\"kind\":\"point\",\"point\":999}\n";  // outside the grid
    out << "\n";
    out << good.front() << '\n';                 // the one good row
    out << "{\"kind\":\"point\",\"point\":4,\"se";  // torn by a kill
  }
  Aggregator agg{AggregatorOptions(options)};
  EXPECT_EQ(agg.load_existing(), 1U);
  EXPECT_EQ(agg.pending(), (std::vector<std::size_t>{0, 1, 3, 4, 5}));
  for (const std::size_t p : {0U, 1U, 3U, 4U, 5U}) {
    agg.record(points[p], fake_metrics(p + 1));
  }
  agg.finalize();
  const auto rows = point_lines(options.metrics_path);
  ASSERT_EQ(rows.size(), 6U);
  EXPECT_EQ(parse_lines(options.metrics_path).size(), 6U);  // no trailer
  EXPECT_EQ(rows[2], good.front());
}

TEST_F(TelemetryTest, ImportRejectsTelemetryOfAnotherShard) {
  const Manifest m = small_manifest();
  const auto points = expand_grid(m);
  auto options = metrics_options(m);
  options.owned_points = {0, 2, 4};
  std::ofstream(options.metrics_path)
      << telemetry_point_row(points[1], axis_columns(m), fake_metrics(1))
             .dump()
      << '\n';
  Aggregator agg{std::move(options)};
  EXPECT_THROW(agg.load_existing(), std::runtime_error);
}

// A --metrics file left by another manifest (here: another seed_base) is
// an error, like a foreign CSV, instead of rows silently kept.
TEST_F(TelemetryTest, ResumeRejectsTelemetryOfAnotherManifest) {
  Manifest m = small_manifest();
  const std::string metrics = (dir_ / "metrics.jsonl").string();
  CampaignOptions first;
  first.jobs = 1;
  first.out_csv = (dir_ / "first.csv").string();
  first.metrics_path = metrics;
  run_campaign(m, first);

  m.seed_base = 99;
  CampaignOptions second;
  second.jobs = 1;
  second.resume = true;
  second.out_csv = (dir_ / "second.csv").string();
  second.metrics_path = metrics;
  try {
    run_campaign(m, second);
    FAIL() << "resume over a foreign --metrics file must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(metrics), std::string::npos) << what;
    EXPECT_NE(what.find("--metrics"), std::string::npos) << what;
  }
  EXPECT_FALSE(fs::exists(RowStore::path_for(second.out_csv)));
  EXPECT_FALSE(fs::exists(second.out_csv));
}

// A finished campaign whose --metrics file lacks a point row recomputes
// that point on resume instead of finalizing without it.
TEST_F(TelemetryTest, ResumeRecomputesAPointWhoseTelemetryRowIsMissing) {
  const Manifest m = small_manifest();
  CampaignOptions options;
  options.jobs = 1;
  options.out_csv = (dir_ / "out.csv").string();
  options.metrics_path = (dir_ / "metrics.jsonl").string();
  run_campaign(m, options);
  const std::string complete_csv = slurp(options.out_csv);
  const auto complete_rows = point_lines(options.metrics_path);
  ASSERT_EQ(complete_rows.size(), 6U);
  {
    std::ofstream out(options.metrics_path, std::ios::trunc);
    for (std::size_t p = 0; p < complete_rows.size(); ++p) {
      if (p != 3) out << complete_rows[p] << '\n';
    }
  }

  options.resume = true;
  const auto report = run_campaign(m, options);
  EXPECT_EQ(report.computed, 1U);
  EXPECT_EQ(report.skipped, 5U);
  EXPECT_EQ(slurp(options.out_csv), complete_csv);
  EXPECT_EQ(point_lines(options.metrics_path), complete_rows);
}

// Points a campaign recorded without --metrics have no telemetry rows, so a
// resume with --metrics neither counts nor exports them until recomputed.
TEST_F(TelemetryTest, PointsRecordedWithoutMetricsAreNotDoneWithIt) {
  const Manifest m = small_manifest();
  const auto points = expand_grid(m);
  const auto options = metrics_options(m);
  {
    auto without = options;
    without.metrics_path.clear();
    Aggregator agg{std::move(without)};
    agg.load_existing();
    agg.record(points[0], fake_metrics(1));
    agg.record(points[1], fake_metrics(2));
  }
  Aggregator agg{AggregatorOptions(options)};
  EXPECT_EQ(agg.load_existing(), 0U);
  agg.compact();
  EXPECT_EQ(slurp(options.csv_path).find('\n') + 1,
            slurp(options.csv_path).size());  // header only
  EXPECT_TRUE(point_lines(options.metrics_path).empty());
  for (std::size_t p = 0; p < points.size(); ++p) {
    agg.record(points[p], fake_metrics(p + 1));
  }
  agg.finalize();
  EXPECT_EQ(point_lines(options.metrics_path).size(), 6U);
}

// A kill inside a point's batch can leave its telemetry record on disk
// without the summary that commits it; the point is recomputed and the
// finalized file holds exactly one row for it.
TEST_F(TelemetryTest, TornBatchAfterTelemetryRecomputesThePointOnce) {
  const Manifest m = small_manifest();
  const auto points = expand_grid(m);
  const auto options = metrics_options(m);
  const std::string store = RowStore::path_for(options.csv_path);
  std::uint64_t summary_offset = 0;
  {
    Aggregator agg{AggregatorOptions(options)};
    agg.load_existing();
    for (const auto& point : points) agg.record(point, fake_metrics(4));
    std::vector<RowStore::Record> records;
    RowStore(store, RowStore::hash_identity(agg.columns(), points.size(),
                                            m.replications,
                                            options.expected_identity))
        .scan([&](const RowStore::Record& r) { records.push_back(r); });
    // The store ends with point 5's batch: its telemetry row, then the
    // summary that commits it.
    ASSERT_GE(records.size(), 2U);
    EXPECT_EQ(records[records.size() - 2].kind, RowStore::Kind::kTelemetry);
    EXPECT_EQ(records.back().kind, RowStore::Kind::kSummary);
    EXPECT_EQ(records.back().point, 5U);
    summary_offset = records.back().seq;
  }
  fs::resize_file(store, summary_offset);

  Aggregator resumed{AggregatorOptions(options)};
  EXPECT_EQ(resumed.load_existing(), 5U);
  EXPECT_EQ(resumed.pending(), std::vector<std::size_t>{5});
  resumed.record(points[5], fake_metrics(4));
  resumed.finalize();
  const auto rows = parse_lines(options.metrics_path);
  ASSERT_EQ(rows.size(), 6U);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rows[i].at("point").as_double(), static_cast<double>(i));
  }
}

// --metrics shard files merge like the CSVs, in one call: the point rows
// equal the unsharded ones, and a shard past the end of the grid leaves a
// trailer-only file that the merge still accepts.
TEST_F(TelemetryTest, MetricsShardsMergeToUnshardedPointRows) {
  const Manifest m = small_manifest();  // 6 points
  CampaignOptions full;
  full.jobs = 1;
  full.out_csv = (dir_ / "full.csv").string();
  full.metrics_path = (dir_ / "full_m.jsonl").string();
  run_campaign(m, full);

  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::string stem = (dir_ / "s").string() + std::to_string(i);
    run_shard(m, i, 8, stem);
    inputs.push_back(stem + "_m.jsonl");  // metrics first: order is free
    inputs.push_back(stem + ".csv");
  }
  const auto trailer_only = parse_lines(dir_ / "s7_m.jsonl");
  ASSERT_EQ(trailer_only.size(), 1U);
  EXPECT_EQ(trailer_only.front().at("kind").as_string(), "registry");

  AggregatorOptions out;
  out.csv_path = (dir_ / "merged.csv").string();
  out.metrics_path = (dir_ / "merged_m.jsonl").string();
  EXPECT_EQ(merge_outputs(m, inputs, out), 6U);
  EXPECT_EQ(slurp(out.csv_path), slurp(full.out_csv));
  const auto merged = point_lines(out.metrics_path);
  EXPECT_EQ(merged.size(), 6U);
  EXPECT_EQ(merged, point_lines(full.metrics_path));
  EXPECT_EQ(parse_lines(out.metrics_path).size(), 6U);  // no trailer
}

// A missing, foreign or repeated --metrics shard fails the merge, however
// complete the CSVs are, and so does a JSON mirror among the inputs; no
// failure leaves anything behind.
TEST_F(TelemetryTest, MetricsMergeRejectsMissingForeignAndRepeatedShards) {
  const Manifest m = small_manifest();
  const std::string s0 = (dir_ / "s0").string();
  const std::string s1 = (dir_ / "s1").string();
  const std::string f1 = (dir_ / "f1").string();
  run_shard(m, 0, 2, s0);
  run_shard(m, 1, 2, s1);
  Manifest reseeded = m;
  reseeded.seed_base += 1000;
  run_shard(reseeded, 1, 2, f1);

  AggregatorOptions out;
  out.csv_path = (dir_ / "out.csv").string();
  out.metrics_path = (dir_ / "out_m.jsonl").string();
  const std::vector<std::string> csvs = {s0 + ".csv", s1 + ".csv"};
  const auto with = [&csvs](std::vector<std::string> metrics) {
    metrics.insert(metrics.begin(), csvs.begin(), csvs.end());
    return metrics;
  };
  const auto expect_rejected = [&](const std::vector<std::string>& inputs,
                                   const AggregatorOptions& outputs,
                                   const std::string& needle) {
    try {
      (void)merge_outputs(m, inputs, outputs);
      ADD_FAILURE() << "the merge must fail (" << needle << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
    for (const auto& p :
         {outputs.csv_path, outputs.metrics_path,
          RowStore::path_for(outputs.csv_path)}) {
      if (p.empty()) continue;
      EXPECT_FALSE(fs::exists(p)) << p;
      EXPECT_FALSE(fs::exists(p + ".tmp")) << p;
    }
  };

  // Shard 1's telemetry missing: its points are incomplete.
  expect_rejected(with({s0 + "_m.jsonl"}), out, "first point 1");
  // Shard 1's telemetry from another manifest (CSVs from the right one).
  expect_rejected(with({s0 + "_m.jsonl", f1 + "_m.jsonl"}), out,
                  f1 + "_m.jsonl");
  // Shard 1's telemetry given twice.
  expect_rejected(with({s0 + "_m.jsonl", s1 + "_m.jsonl", s1 + "_m.jsonl"}),
                  out, "overlapping shards");
  // A JSON mirror row is no telemetry row, even where one could go.
  expect_rejected(with({s0 + "_m.jsonl", s1 + "_m.jsonl", s0 + ".jsonl"}),
                  out, s0 + ".jsonl");
  // Telemetry rows need a --metrics output to go to.
  AggregatorOptions csv_only;
  csv_only.csv_path = out.csv_path;
  expect_rejected(with({s0 + "_m.jsonl"}), csv_only, s0 + "_m.jsonl");

  // The right set merges.
  EXPECT_EQ(merge_outputs(m, with({s1 + "_m.jsonl", s0 + "_m.jsonl"}), out),
            6U);
}

TEST_F(TelemetryTest, MetricsOnAndOffProduceIdenticalCsv) {
  const Manifest m = small_manifest();

  CampaignOptions off;
  off.jobs = 1;
  off.out_csv = (dir_ / "off.csv").string();
  run_campaign(m, off);

  CampaignOptions on;
  on.jobs = 1;
  on.out_csv = (dir_ / "on.csv").string();
  on.metrics_path = (dir_ / "on.jsonl").string();
  run_campaign(m, on);

  const std::string a = slurp(dir_ / "off.csv");
  const std::string b = slurp(dir_ / "on.csv");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST_F(TelemetryTest, CampaignTelemetryIsScheduleIndependent) {
  const Manifest m = small_manifest();

  CampaignOptions serial;
  serial.jobs = 1;
  serial.out_csv = (dir_ / "serial.csv").string();
  serial.metrics_path = (dir_ / "serial.jsonl").string();
  run_campaign(m, serial);

  CampaignOptions parallel;
  parallel.jobs = 4;
  parallel.out_csv = (dir_ / "parallel.csv").string();
  parallel.metrics_path = (dir_ / "parallel.jsonl").string();
  run_campaign(m, parallel);

  EXPECT_EQ(slurp(dir_ / "serial.csv"), slurp(dir_ / "parallel.csv"));
  // Point rows and the campaign registry trailer are pure functions of the
  // grid, so the whole telemetry file is byte-identical across schedules.
  const std::string a = slurp(dir_ / "serial.jsonl");
  const std::string b = slurp(dir_ / "parallel.jsonl");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  // Every point row carries all three layers' sections.
  const auto rows = parse_lines(dir_ / "serial.jsonl");
  ASSERT_EQ(rows.size(), 7U);  // 6 points + registry trailer
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& row = rows[i];
    EXPECT_EQ(row.at("kind").as_string(), "point");
    EXPECT_GT(row.at("kernel").at("events_dispatched").as_double(), 0.0);
    if (row.at("policy").as_string() != "NS") {
      // A never-sleeping node never wakes; sleeping policies must.
      EXPECT_GT(row.at("protocol").at("wakeups").as_double(), 0.0);
    }
  }
  const auto& trailer = rows[6];
  EXPECT_EQ(trailer.at("kind").as_string(), "registry");
  EXPECT_EQ(trailer.at("scope").as_string(), "campaign");
  const auto& instruments = trailer.at("instruments");
  EXPECT_DOUBLE_EQ(instruments.at("campaign.points_completed").as_double(),
                   6.0);
  EXPECT_GT(instruments.at("kernel.events_dispatched").as_double(), 0.0);
  EXPECT_GT(instruments.at("policy.PAS.wakeups").as_double(), 0.0);
}

TEST_F(TelemetryTest, ResumeCompletesTheTelemetryFile) {
  const Manifest m = small_manifest();
  const std::string out = (dir_ / "campaign.csv").string();
  const std::string metrics = (dir_ / "metrics.jsonl").string();

  CampaignOptions options;
  options.jobs = 1;
  options.out_csv = out;
  options.metrics_path = metrics;
  run_campaign(m, options);
  const std::string complete_csv = slurp(out);
  const std::string complete_metrics = slurp(metrics);

  // Drop the even points from both files, as if the campaign had been
  // killed mid-flight with both outputs in the same partial state. CSV data
  // line i and telemetry line i both hold point i (the trailer drops too,
  // which is exactly what a kill before finalize leaves behind).
  const auto keep_odd_points = [](const std::string& text,
                                  const std::string& path, int header_lines) {
    std::istringstream in(text);
    std::ofstream truncated(path, std::ios::trunc);
    std::string line;
    int n = 0;
    while (std::getline(in, line)) {
      if (n < header_lines || (n - header_lines) % 2 == 1) {
        truncated << line << '\n';
      }
      ++n;
    }
  };
  keep_odd_points(complete_csv, out, 1);
  keep_odd_points(complete_metrics, metrics, 0);

  options.resume = true;
  run_campaign(m, options);
  EXPECT_EQ(slurp(out), complete_csv);
  // The finalized telemetry file has every point row again. The registry
  // trailer only covers the points computed by the *resuming* invocation,
  // so compare point rows, not trailer bytes.
  const auto rows = parse_lines(metrics);
  std::size_t point_rows = 0;
  for (const auto& row : rows) {
    if (row.at("kind").as_string() == "point") ++point_rows;
  }
  EXPECT_EQ(point_rows, 6U);
}

}  // namespace
}  // namespace pas::exp
