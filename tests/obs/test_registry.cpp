#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

namespace pas::obs {
namespace {

TEST(Registry, CountersAccumulateAcrossSnapshots) {
  Registry registry;
  const Counter c = registry.counter("events");
  c.add();
  c.add(41);

  auto snap = registry.snapshot();
  ASSERT_EQ(snap.scalars.size(), 1U);
  EXPECT_EQ(snap.scalars[0].name, "events");
  EXPECT_EQ(snap.scalars[0].kind, InstrumentKind::kCounter);
  EXPECT_EQ(snap.scalars[0].value, 42U);

  // The handle stays valid and keeps accumulating after a snapshot.
  c.add(8);
  snap = registry.snapshot();
  EXPECT_EQ(snap.scalars[0].value, 50U);
}

TEST(Registry, SameNameReturnsSameSlot) {
  Registry registry;
  const Counter a = registry.counter("dup");
  const Counter b = registry.counter("dup");
  a.add(1);
  b.add(2);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.scalars.size(), 1U);
  EXPECT_EQ(snap.scalars[0].value, 3U);
}

TEST(Registry, KindMismatchThrows) {
  Registry registry;
  (void)registry.counter("x");
  EXPECT_THROW((void)registry.gauge("x"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("x"), std::logic_error);

  (void)registry.histogram("h", LogBuckets{1.0, 4});
  // Same name, different bucket spec: also a programming error.
  EXPECT_THROW((void)registry.histogram("h", LogBuckets{2.0, 4}),
               std::logic_error);
  // Same spec re-registers fine.
  EXPECT_NO_THROW((void)registry.histogram("h", LogBuckets{1.0, 4}));
}

TEST(Registry, FirstWriteFreezesRegistration) {
  Registry registry;
  const Counter c = registry.counter("early");
  c.add();  // freezes
  EXPECT_THROW((void)registry.counter("late"), std::logic_error);
  // Existing names still resolve after the freeze.
  EXPECT_NO_THROW((void)registry.counter("early"));
}

TEST(Registry, GaugeReportsHighWaterMark) {
  Registry registry;
  const Gauge g = registry.gauge("peak");
  g.record_max(7);
  g.record_max(3);
  g.record_max(11);
  g.record_max(5);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.scalars.size(), 1U);
  EXPECT_EQ(snap.scalars[0].kind, InstrumentKind::kGauge);
  EXPECT_EQ(snap.scalars[0].value, 11U);
}

TEST(Registry, HistogramRecordsAndMerges) {
  Registry registry;
  const LogBuckets spec{1.0, 4};
  const Histogram h = registry.histogram("lat", spec);
  h.record(1.5);
  h.record(3.0);

  HistogramData pre{spec, {}, 0};
  pre.record(3.5);
  pre.record(100.0);
  h.merge(pre);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.hists.size(), 1U);
  EXPECT_EQ(snap.hists[0].name, "lat");
  EXPECT_EQ(snap.hists[0].data.count, 4U);
  EXPECT_EQ(snap.hists[0].data.bin_counts[1], 1U);
  EXPECT_EQ(snap.hists[0].data.bin_counts[2], 2U);
  EXPECT_EQ(snap.hists[0].data.bin_counts[5], 1U);
}

TEST(Registry, ThreadShardsMergeInSnapshot) {
  Registry registry;
  const Counter c = registry.counter("hits");
  const Gauge g = registry.gauge("peak");
  const Histogram h = registry.histogram("vals", LogBuckets{1.0, 8});

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        g.record_max(static_cast<std::uint64_t>(t * kPerThread + i));
        h.record(1.5);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.scalars[0].value,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.scalars[1].value,
            static_cast<std::uint64_t>(kThreads) * kPerThread - 1);
  EXPECT_EQ(snap.hists[0].data.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.hists[0].data.bin_counts[1],
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, TwoRegistriesDoNotAliasShards) {
  // The thread_local shard cache keys on the registry id: writes to a new
  // registry from the same thread must not land in the old one's cells.
  Registry first;
  const Counter a = first.counter("n");
  a.add(5);
  {
    Registry second;
    const Counter b = second.counter("n");
    b.add(7);
    EXPECT_EQ(second.snapshot().scalars[0].value, 7U);
  }
  EXPECT_EQ(first.snapshot().scalars[0].value, 5U);
}

TEST(Registry, DisabledHandsOutInertHandles) {
  Registry registry(false);
  EXPECT_FALSE(registry.enabled());
  const Counter c = registry.counter("a");
  const Gauge g = registry.gauge("b");
  const Histogram h = registry.histogram("c");
  c.add(3);
  g.record_max(9);
  h.record(1.0);
  const auto snap = registry.snapshot();
  EXPECT_TRUE(snap.scalars.empty());
  EXPECT_TRUE(snap.hists.empty());
}

TEST(Registry, DefaultConstructedHandlesAreSafeNoOps) {
  const Counter c;
  const Gauge g;
  const Histogram h;
  c.add();
  g.record_max(1);
  h.record(1.0);
  h.merge(HistogramData{});
}

}  // namespace
}  // namespace pas::obs
