#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace pas::obs {
namespace {

TEST(HistogramJson, CarriesSpecBinsAndTotal) {
  HistogramData h{LogBuckets{1.0, 4}, {}, 0};
  h.record(1.5);
  h.record(3.0);
  h.record(3.5);

  const io::Json j = histogram_json(h);
  EXPECT_DOUBLE_EQ(j.at("lo").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(j.at("count").as_double(), 4.0);
  EXPECT_DOUBLE_EQ(j.at("total").as_double(), 3.0);
  const auto& bins = j.at("bins").as_array();
  ASSERT_EQ(bins.size(), 6U);
  EXPECT_DOUBLE_EQ(bins[1].as_double(), 1.0);
  EXPECT_DOUBLE_EQ(bins[2].as_double(), 2.0);

  // Never-recorded histogram: empty bins, zero total.
  const io::Json empty = histogram_json(HistogramData{LogBuckets{1.0, 4}, {}, 0});
  EXPECT_TRUE(empty.at("bins").as_array().empty());
  EXPECT_DOUBLE_EQ(empty.at("total").as_double(), 0.0);
}

TEST(HistogramJson, QuantileKeysOnlyWhenRecorded) {
  HistogramData h{LogBuckets{1.0, 4}, {}, 0};
  for (int i = 0; i < 4; ++i) h.record(3.0);

  const io::Json j = histogram_json(h);
  ASSERT_TRUE(j.contains("p50"));
  ASSERT_TRUE(j.contains("p95"));
  ASSERT_TRUE(j.contains("p99"));
  EXPECT_DOUBLE_EQ(j.at("p50").as_double(), quantile(h, 0.50));
  EXPECT_DOUBLE_EQ(j.at("p95").as_double(), quantile(h, 0.95));
  EXPECT_DOUBLE_EQ(j.at("p99").as_double(), quantile(h, 0.99));
  EXPECT_LE(j.at("p50").as_double(), j.at("p95").as_double());
  EXPECT_LE(j.at("p95").as_double(), j.at("p99").as_double());

  // A histogram that never recorded carries no quantile keys at all —
  // absent, not null or zero, so consumers can't misread "no data" as 0.
  const io::Json empty =
      histogram_json(HistogramData{LogBuckets{1.0, 4}, {}, 0});
  EXPECT_FALSE(empty.contains("p50"));
  EXPECT_FALSE(empty.contains("p95"));
  EXPECT_FALSE(empty.contains("p99"));
}

TEST(WriteTraceJsonl, OneParsableLinePerEvent) {
  sim::TraceLog log;
  log.enable();
  {
    sim::TraceEvent e;
    e.time = 1.25;
    e.category = sim::TraceCategory::kSleep;
    e.kind = sim::TraceKind::kSleepFor;
    e.node = 3;
    e.x = 10.0;
    log.record(e);
  }
  {
    sim::TraceEvent e;
    e.time = 2.5;
    e.category = sim::TraceCategory::kState;
    e.kind = sim::TraceKind::kStateChange;
    e.node = 4;
    e.s1 = "safe";
    e.s2 = "alert";
    log.record(e);
  }
  log.record(3.0, sim::TraceCategory::kMessage, 5, sim::TraceKind::kRequest);

  std::ostringstream out;
  EXPECT_EQ(write_trace_jsonl(log, out), 3U);

  std::istringstream in(out.str());
  std::vector<io::Json> rows;
  std::string line;
  while (std::getline(in, line)) rows.push_back(io::Json::parse(line));
  ASSERT_EQ(rows.size(), 3U);

  EXPECT_DOUBLE_EQ(rows[0].at("t").as_double(), 1.25);
  EXPECT_EQ(rows[0].at("cat").as_string(), "sleep");
  EXPECT_EQ(rows[0].at("kind").as_string(), "sleep_for");
  EXPECT_DOUBLE_EQ(rows[0].at("node").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(rows[0].at("x").as_double(), 10.0);
  EXPECT_EQ(rows[0].at("text").as_string(), "sleeping for 10s");

  EXPECT_EQ(rows[1].at("kind").as_string(), "state_change");
  EXPECT_EQ(rows[1].at("from").as_string(), "safe");
  EXPECT_EQ(rows[1].at("to").as_string(), "alert");

  // Kinds without numeric args omit them.
  EXPECT_EQ(rows[2].at("kind").as_string(), "request");
  EXPECT_FALSE(rows[2].contains("x"));
}

}  // namespace
}  // namespace pas::obs
