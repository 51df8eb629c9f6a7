// serve::CampaignFeed semantics: counters, the bounded event ring,
// events_since's exactly-once guarantees, and the point-row log. The SSE
// soak test (test_server.cpp) leans on the ring properties proven here.
#include "serve/feed.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/json.hpp"

namespace pas::serve {
namespace {

CampaignFeed::Options quiet_options(bool store_points = true,
                                    std::size_t capacity = 1 << 16) {
  CampaignFeed::Options options;
  options.store_points = store_points;
  options.event_capacity = capacity;
  return options;
}

TEST(CampaignFeed, LifecycleCountersAndState) {
  CampaignFeed feed(quiet_options());
  EXPECT_EQ(feed.status().state, CampaignFeed::State::kIdle);

  feed.begin_campaign("demo", 10, 3, 2);
  auto status = feed.status();
  EXPECT_EQ(status.state, CampaignFeed::State::kRunning);
  EXPECT_EQ(status.campaign, "demo");
  EXPECT_EQ(status.total_points, 10U);
  EXPECT_EQ(status.done_points, 2U);  // resumed rows count as done
  EXPECT_EQ(status.computed, 0U);
  EXPECT_EQ(status.resumed, 2U);
  EXPECT_EQ(status.replications, 3U);

  feed.point_done("{\"point\":4}");
  status = feed.status();
  EXPECT_EQ(status.done_points, 3U);
  EXPECT_EQ(status.computed, 1U);

  feed.end_campaign(false);
  EXPECT_EQ(feed.status().state, CampaignFeed::State::kDone);

  feed.begin_campaign("next", 5, 2, 0);
  EXPECT_EQ(feed.status().state, CampaignFeed::State::kRunning);
  EXPECT_EQ(feed.status().campaign, "next");
  feed.end_campaign(true);
  EXPECT_EQ(feed.status().state, CampaignFeed::State::kInterrupted);
}

TEST(CampaignFeed, EventSequencesAreMonotonicAndGapFree) {
  CampaignFeed feed(quiet_options());
  feed.begin_campaign("demo", 4, 1, 0);
  for (int i = 0; i < 4; ++i) {
    feed.point_done("{\"point\":" + std::to_string(i) + "}");
  }
  feed.end_campaign(false);

  const auto events = feed.events_since(0);
  ASSERT_EQ(events.size(), 6U);  // campaign start + 4 points + campaign done
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);  // contiguous from 1, no gaps
  }
  EXPECT_EQ(events.front().type, "campaign");
  EXPECT_EQ(events[1].type, "point");
  EXPECT_EQ(events.back().type, "campaign");
  EXPECT_EQ(feed.status().last_seq, 6U);
}

TEST(CampaignFeed, EventsSinceResumesWithoutRepeatingOrSkipping) {
  CampaignFeed feed(quiet_options());
  feed.begin_campaign("demo", 6, 1, 0);
  for (int i = 0; i < 6; ++i) {
    feed.point_done("{\"point\":" + std::to_string(i) + "}");
  }

  // Drain in chunks the way an SSE connection does, remembering the last
  // seq; the union must be exactly-once in order.
  std::vector<std::uint64_t> seen;
  std::uint64_t cursor = 0;
  while (true) {
    const auto chunk = feed.events_since(cursor, 3);
    if (chunk.empty()) break;
    for (const auto& e : chunk) seen.push_back(e.seq);
    cursor = chunk.back().seq;
  }
  ASSERT_EQ(seen.size(), 7U);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);

  // A cursor beyond the newest event yields nothing.
  EXPECT_TRUE(feed.events_since(cursor).empty());
}

TEST(CampaignFeed, BoundedRingDropsOldestButKeepsSeqNumbers) {
  CampaignFeed feed(quiet_options(true, 4));
  feed.begin_campaign("demo", 10, 1, 0);  // seq 1
  for (int i = 0; i < 9; ++i) {
    feed.point_done("{\"point\":" + std::to_string(i) + "}");  // seq 2..10
  }

  const auto events = feed.events_since(0);
  ASSERT_EQ(events.size(), 4U);
  // The oldest entries fell out of the ring: a client replaying from 0
  // sees the gap in the ids (7 follows nothing) and can re-sync via
  // /api/points. Nothing is ever re-numbered.
  EXPECT_EQ(events.front().seq, 7U);
  EXPECT_EQ(events.back().seq, 10U);

  // points_since still has every row: the log is not a ring.
  EXPECT_EQ(feed.points_since(0).size(), 9U);
}

TEST(CampaignFeed, PointRowLogIsIncremental) {
  CampaignFeed feed(quiet_options());
  feed.begin_campaign("demo", 3, 1, 0);
  feed.point_done("{\"point\":0}");
  feed.point_done("{\"point\":1}");
  feed.point_done("{\"point\":2}");

  const auto all = feed.points_since(0);
  ASSERT_EQ(all.size(), 3U);
  EXPECT_EQ(all[0], "{\"point\":0}");
  const auto tail = feed.points_since(2);
  ASSERT_EQ(tail.size(), 1U);
  EXPECT_EQ(tail[0], "{\"point\":2}");
  EXPECT_TRUE(feed.points_since(3).empty());
  EXPECT_EQ(feed.status().points_logged, 3U);
}

TEST(CampaignFeed, StorePointsOffKeepsEventsButNoRowLog) {
  CampaignFeed feed(quiet_options(/*store_points=*/false));
  feed.begin_campaign("demo", 2, 1, 0);
  feed.point_done("{\"point\":0}");
  EXPECT_TRUE(feed.points_since(0).empty());
  // The SSE "point" event still fires; only retention is disabled.
  const auto events = feed.events_since(1);
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].type, "point");
}

TEST(CampaignFeed, ProgressTickIsThrottledUnlessForced) {
  CampaignFeed feed(quiet_options());
  feed.begin_campaign("demo", 4, 1, 0);
  const auto before = feed.status().last_seq;
  feed.progress_tick(false);  // inside the echo interval: suppressed
  EXPECT_EQ(feed.status().last_seq, before);
  feed.progress_tick(true);  // forced: always emits
  const auto events = feed.events_since(before);
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].type, "progress");
  const io::Json data = io::Json::parse(events[0].data);
  EXPECT_DOUBLE_EQ(data.at("done").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(data.at("total").as_double(), 4.0);
}

TEST(CampaignFeed, WorkerTableAndEvents) {
  CampaignFeed feed(quiet_options());
  feed.begin_campaign("demo", 4, 1, 0);
  std::vector<CampaignFeed::WorkerRow> rows(2);
  rows[0].id = 0;
  rows[0].has_lease = true;
  rows[0].lease_points_left = 3;
  rows[1].id = 1;
  feed.update_workers(rows);
  EXPECT_EQ(feed.status().workers.size(), 2U);
  EXPECT_TRUE(feed.status().workers[0].has_lease);

  feed.worker_event("crash", 1, "exit 9");
  const auto events = feed.events_since(feed.status().last_seq - 1);
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].type, "worker");
  const io::Json data = io::Json::parse(events[0].data);
  EXPECT_EQ(data.at("event").as_string(), "crash");
  EXPECT_DOUBLE_EQ(data.at("worker").as_double(), 1.0);
  EXPECT_EQ(data.at("detail").as_string(), "exit 9");
}

TEST(CampaignFeed, MetricsHoldTheLastPushedSnapshot) {
  CampaignFeed feed(quiet_options());
  EXPECT_TRUE(feed.metrics().as_object().empty());  // {} before any push
  for (const char* scope : {"campaign", "orchestrator"}) {
    io::JsonObject o;
    o["scope"] = scope;
    feed.set_metrics(io::Json(std::move(o)));
  }
  EXPECT_EQ(feed.metrics().at("scope").as_string(), "orchestrator");
  // The campaign's end does not clear it.
  feed.begin_campaign("c", 2, 1, 0);
  feed.end_campaign(false);
  EXPECT_EQ(feed.metrics().at("scope").as_string(), "orchestrator");
}

}  // namespace
}  // namespace pas::serve
