// Stress and oracle tests for the ladder/calendar pending-set index.
//
// The dispatch-order contract is strict (time, seq) with seq assigned in
// push order. The randomized test below checks the exact (time, token)
// dispatch sequence against a brute-force model of that contract, so the
// model is the oracle any change to the index is held to. The shape-counter
// tests at the end pin how the ladder lays a schedule out.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace pas::sim {
namespace {

// --- Randomized oracle: every op checked against a brute-force model ------

TEST(EventQueueLadder, RandomizedOpsMatchReferenceModel) {
  // Mixed push / cancel / pop / run_next / clear traffic with timestamps
  // spanning every region of the ladder (sub-second, mid-horizon,
  // far-future, and exact duplicates of earlier times). The queue must
  // agree with the brute-force model on every accept/reject decision,
  // every next_time(), and the complete dispatch order.
  struct Ref {
    double time;
    std::size_t order;  // push order = expected FIFO tiebreak
    int token;
    bool live;
    EventId id;
  };
  EventQueue q;
  std::vector<Ref> ref;
  std::vector<int> executed;
  std::vector<int> expected;
  Pcg32 rng(7777, 99);
  int next_token = 0;
  std::size_t live_count = 0;

  const auto model_pop = [&]() -> int {
    auto best = ref.end();
    for (auto it = ref.begin(); it != ref.end(); ++it) {
      if (!it->live) continue;
      if (best == ref.end() || it->time < best->time ||
          (it->time == best->time && it->order < best->order)) {
        best = it;
      }
    }
    best->live = false;
    --live_count;
    return best->token;
  };
  const auto model_next_time = [&]() -> double {
    double t = kNever;
    for (const Ref& e : ref) {
      if (e.live && e.time < t) t = e.time;
    }
    return t;
  };
  const auto draw_time = [&]() -> double {
    const double u = rng.uniform01();
    if (u < 0.40) return rng.uniform(0.0, 1.0);        // ladder bottom
    if (u < 0.70) return rng.uniform(0.0, 1.0e3);      // calendar rungs
    if (u < 0.85) return rng.uniform(1.0e6, 1.0e9);    // far-future overflow
    if (!ref.empty()) {                                // exact duplicate
      return ref[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(ref.size()) - 1))]
          .time;
    }
    return rng.uniform(0.0, 1.0e3);
  };

  for (int op = 0; op < 6000; ++op) {
    const double u = rng.uniform01();
    if (u < 0.45 || live_count == 0) {
      const double t = draw_time();
      const int token = next_token++;
      const EventId id =
          q.push(t, [token, &executed] { executed.push_back(token); });
      ref.push_back(Ref{t, ref.size(), token, true, id});
      ++live_count;
    } else if (u < 0.70) {
      auto& e = ref[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(ref.size()) - 1))];
      const bool accepted = q.cancel(e.id);
      EXPECT_EQ(accepted, e.live);
      if (e.live) {
        e.live = false;
        --live_count;
      }
    } else if (u < 0.85) {
      q.pop().callback();
      ASSERT_FALSE(executed.empty());
      expected.push_back(model_pop());
      ASSERT_EQ(executed.back(), expected.back());
    } else if (u < 0.99) {
      q.run_next();
      ASSERT_FALSE(executed.empty());
      expected.push_back(model_pop());
      ASSERT_EQ(executed.back(), expected.back());
    } else {
      q.clear();
      for (Ref& e : ref) e.live = false;
      live_count = 0;
    }
    ASSERT_EQ(q.size(), live_count);
    ASSERT_DOUBLE_EQ(q.next_time(), model_next_time());
  }
  while (!q.empty()) {
    q.run_next();
    expected.push_back(model_pop());
  }
  EXPECT_EQ(executed, expected);
  EXPECT_EQ(live_count, 0U);
}

// --- Targeted region / boundary scenarios ---------------------------------

TEST(EventQueueLadder, SameTimestampFloodDispatchesFifo) {
  // 20k events at one timestamp exceed every batch threshold, but the batch
  // has zero time span, so it must be sorted (by seq) rather than split —
  // and the dispatch order must be exactly push order.
  EventQueue q;
  std::vector<int> order;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    q.push(5.0, [i, &order] { order.push_back(i); });
  }
  q.push(4.0, [&order] { order.push_back(-1); });
  q.push(6.0, [&order, kN] { order.push_back(kN); });
  while (!q.empty()) q.run_next();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN) + 2);
  EXPECT_EQ(order.front(), -1);
  EXPECT_EQ(order.back(), kN);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i) + 1], i);
  }
}

TEST(EventQueueLadder, BucketBoundaryIntegerTimesStaySorted) {
  // Integer timestamps land exactly on calendar bucket boundaries (the
  // rounding-sensitive spot for time -> bucket-index mapping). Push a
  // permutation with many duplicates; dispatch must be the stable sort.
  EventQueue q;
  std::vector<std::pair<double, int>> dispatched;
  std::vector<std::pair<double, int>> expect;
  for (int i = 0; i < 4096; ++i) {
    const double t = static_cast<double>((i * 37) % 1024);
    q.push(t, [t, i, &dispatched] { dispatched.emplace_back(t, i); });
    expect.emplace_back(t, i);
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(dispatched, expect);
}

TEST(EventQueueLadder, FarFutureOverflowReseedsInOrder) {
  // Two widely separated clusters reseed into one very wide calendar; the
  // dense near cluster collapses into its first bucket and must split into
  // a finer sub-rung. Pops interleaved with fresh pushes below and above
  // the dispatch frontier must still come out in global order.
  EventQueue q;
  std::vector<double> popped;
  Pcg32 rng(42, 7);
  std::vector<double> times;
  for (int i = 0; i < 1000; ++i) times.push_back(rng.uniform(0.0, 1.0));
  for (int i = 0; i < 1000; ++i) times.push_back(rng.uniform(1.0e8, 1.0e9));
  for (const double t : times) {
    q.push(t, [t, &popped] { popped.push_back(t); });
  }
  // Drain half the near cluster, then inject new events both below and
  // above the current dispatch frontier.
  for (int i = 0; i < 500; ++i) q.run_next();
  const double frontier = popped.back();
  q.push(frontier, [&popped, frontier] { popped.push_back(frontier); });
  q.push(2.0e9, [&popped] { popped.push_back(2.0e9); });
  while (!q.empty()) q.run_next();
  ASSERT_EQ(popped.size(), times.size() + 2);
  for (std::size_t i = 1; i < popped.size(); ++i) {
    ASSERT_LE(popped[i - 1], popped[i]) << "at index " << i;
  }
  EXPECT_DOUBLE_EQ(popped.back(), 2.0e9);
  // The initial reseed built a calendar over both clusters, and the dense
  // near cluster (collapsed into one coarse bucket by the 1e9-wide span)
  // had to spawn a finer sub-rung.
  EXPECT_GE(q.stats().bucket_resizes, 1U);
  EXPECT_GE(q.stats().rung_spawns, 1U);
}

TEST(EventQueueLadder, ReentrantPushFromCallbackKeepsSeqOrder) {
  // Events pushed from inside run_next() carry later seq numbers than
  // everything already pending, so a same-timestamp reentrant push fires
  // after the pre-existing ties but before any later timestamp.
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] {                 // A: first at t=1
    order.push_back(0);
    q.push(1.0, [&] {               // D: same time, pushed during A
      order.push_back(3);
      q.push(1.0, [&] { order.push_back(4); });  // E: chained reentrant
    });
  });
  q.push(1.0, [&] { order.push_back(1); });  // B: second at t=1
  q.push(2.0, [&] { order.push_back(5); });  // C: later time
  q.push(1.0, [&] { order.push_back(2); });  // F: third at t=1
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueueLadder, ReentrantPushStormFromCallbacks) {
  // Timer-style self-rearm at scale: each callback re-pushes itself a few
  // steps ahead, so the structure is continuously refilled while it
  // drains. The global dispatch sequence must stay nondecreasing in time
  // and complete exactly the expected number of events.
  EventQueue q;
  Pcg32 rng(11, 3);
  std::size_t fired = 0;
  double last = 0.0;
  constexpr std::size_t kTotal = 50000;
  struct Rearm {
    EventQueue* q;
    Pcg32* rng;
    std::size_t* fired;
    double* last;
    double time;
    void operator()() const {
      ASSERT_GE(time, *last);
      *last = time;
      if (++*fired + q->size() < kTotal) {
        const double next = time + rng->uniform(0.0, 2.0);
        q->push(next, Rearm{q, rng, fired, last, next});
      }
    }
  };
  for (int i = 0; i < 64; ++i) {
    const double t = rng.uniform(0.0, 2.0);
    q.push(t, Rearm{&q, &rng, &fired, &last, t});
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, kTotal);
}

// --- Warm-reuse determinism -----------------------------------------------

TEST(EventQueueLadder, StatsAndOrderIdenticalAcrossWarmReuse) {
  // world::Workspace reuses one queue across runs via clear(), which keeps
  // bucket arrays and slab capacity warm. The Stats counters (and of
  // course the dispatch order) must be a pure function of the schedule —
  // identical between a fresh queue and an arbitrarily reused one.
  const auto run_schedule = [](EventQueue& q, std::vector<double>* popped) {
    Pcg32 rng(99, 5);
    std::vector<EventId> ids;
    for (int i = 0; i < 5000; ++i) {
      const double u = rng.uniform01();
      const double t = u < 0.5   ? rng.uniform(0.0, 1.0)
                       : u < 0.9 ? rng.uniform(0.0, 1.0e3)
                                 : rng.uniform(1.0e6, 1.0e9);
      ids.push_back(q.push(t, [t, popped] { popped->push_back(t); }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
    for (int i = 0; i < 1000; ++i) q.run_next();
    for (std::size_t i = 1; i < ids.size(); i += 7) q.cancel(ids[i]);
    while (!q.empty()) q.run_next();
  };
  const auto stats_eq = [](const EventQueue::Stats& a,
                           const EventQueue::Stats& b) {
    EXPECT_EQ(a.pushed, b.pushed);
    EXPECT_EQ(a.cancelled, b.cancelled);
    EXPECT_EQ(a.max_live, b.max_live);
    EXPECT_EQ(a.rung_spawns, b.rung_spawns);
    EXPECT_EQ(a.bucket_resizes, b.bucket_resizes);
    EXPECT_EQ(a.max_bucket, b.max_bucket);
    EXPECT_EQ(a.dead_skips, b.dead_skips);
  };

  EventQueue fresh;
  std::vector<double> fresh_popped;
  run_schedule(fresh, &fresh_popped);
  const EventQueue::Stats fresh_stats = fresh.stats();

  EventQueue reused;
  std::vector<double> scratch;
  run_schedule(reused, &scratch);  // dirty the internal layout
  reused.clear();
  std::vector<double> reused_popped;
  run_schedule(reused, &reused_popped);

  EXPECT_EQ(fresh_popped, reused_popped);
  stats_eq(fresh_stats, reused.stats());
}

// --- Shape counters -------------------------------------------------------

TEST(EventQueueLadder, OverfullBucketSpawnsSubRung) {
  // A dense cluster inside a wide horizon: the reseed spreads 10k events
  // over the full span, so the cluster collapses into one bucket, which
  // must spawn a finer sub-rung instead of being sorted wholesale.
  EventQueue q;
  Pcg32 rng(3, 1);
  std::vector<double> popped;
  for (int i = 0; i < 10000; ++i) {
    const double t = rng.uniform(0.0, 1.0e-6);
    q.push(t, [t, &popped] { popped.push_back(t); });
  }
  for (int i = 0; i < 100; ++i) {
    const double t = rng.uniform(1.0, 1.0e3);
    q.push(t, [t, &popped] { popped.push_back(t); });
  }
  while (!q.empty()) q.run_next();
  for (std::size_t i = 1; i < popped.size(); ++i) {
    ASSERT_LE(popped[i - 1], popped[i]);
  }
  EXPECT_GE(q.stats().rung_spawns, 1U);
  EXPECT_GE(q.stats().bucket_resizes, 1U);
  EXPECT_GT(q.stats().max_bucket, 0U);
}

TEST(EventQueueLadder, DeadSkipsCountCancelledEntriesAtDrain) {
  // Cancel after the calendar has been seeded: the cancelled entries stay
  // in their buckets (lazy deletion) and must be counted as dead skips
  // when the drain reaches them.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.push(1.0 + i, [] {}));
  }
  q.run_next();  // forces the reseed that distributes the rest
  // Keep the last event live: a dead entry after the final dispatch would
  // (correctly) never be drained, and every counted skip is counted once —
  // so the counter must land exactly on the number of cancellations.
  std::uint64_t cancelled = 0;
  for (std::size_t i = 1; i + 1 < ids.size(); i += 2) {
    if (q.cancel(ids[i])) ++cancelled;
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(q.stats().dead_skips, cancelled);
}

}  // namespace
}  // namespace pas::sim
