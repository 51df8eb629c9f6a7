#include "core/observation.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/rng.hpp"

namespace pas::core {
namespace {

PeerObservation obs(std::uint32_t id, sim::Time received) {
  PeerObservation o;
  o.id = id;
  o.received_at = received;
  return o;
}

TEST(PeerTable, UpdateInsertsAndReplaces) {
  PeerTable t;
  t.update(obs(1, 1.0));
  EXPECT_EQ(t.size(), 1U);
  t.update(obs(1, 2.0));
  EXPECT_EQ(t.size(), 1U);
  ASSERT_TRUE(t.find(1).has_value());
  EXPECT_DOUBLE_EQ(t.find(1)->received_at, 2.0);
}

TEST(PeerTable, FindMissingReturnsNullopt) {
  PeerTable t;
  EXPECT_FALSE(t.find(7).has_value());
}

TEST(PeerTable, SnapshotOrderedById) {
  PeerTable t;
  t.update(obs(9, 1.0));
  t.update(obs(2, 1.0));
  t.update(obs(5, 1.0));
  const auto snap = t.entries();
  ASSERT_EQ(snap.size(), 3U);
  EXPECT_EQ(snap[0].id, 2U);
  EXPECT_EQ(snap[1].id, 5U);
  EXPECT_EQ(snap[2].id, 9U);
}

TEST(PeerTable, MatchesOrderedMapOracle) {
  // Random update / replace / expire / find against std::map; after every
  // step entries() must equal the map's contents, strictly ascending by id.
  constexpr std::uint32_t kIds = 24;
  sim::Pcg32 rng(21, 4);
  PeerTable table;
  std::map<std::uint32_t, PeerObservation> oracle;
  sim::Time now = 0.0;
  for (int step = 0; step < 4000; ++step) {
    now += 0.1;
    const std::uint32_t id = rng.next() % kIds;
    switch (rng.next() % 8) {
      case 0: {
        const sim::Time cutoff = now - rng.uniform(0.0, 3.0);
        table.expire_older_than(cutoff);
        std::erase_if(oracle, [cutoff](const auto& kv) {
          return kv.second.received_at < cutoff;
        });
        break;
      }
      case 1:
      case 2: {
        const auto got = table.find(id);
        const auto want = oracle.find(id);
        ASSERT_EQ(got.has_value(), want != oracle.end()) << "step " << step;
        if (got) {
          EXPECT_EQ(got->received_at, want->second.received_at);
        }
        break;
      }
      default: {
        PeerObservation o = obs(id, now);
        o.velocity = {now, -now};
        table.update(o);
        oracle[id] = o;
        break;
      }
    }
    const auto entries = table.entries();
    ASSERT_EQ(entries.size(), oracle.size()) << "step " << step;
    auto want = oracle.begin();
    for (std::size_t k = 0; k < entries.size(); ++k, ++want) {
      if (k > 0) {
        ASSERT_LT(entries[k - 1].id, entries[k].id);
      }
      ASSERT_EQ(entries[k].id, want->first);
      ASSERT_EQ(entries[k].received_at, want->second.received_at);
      ASSERT_EQ(entries[k].velocity.x, want->second.velocity.x);
    }
  }
}

TEST(PeerTable, ExpireDropsOldEntries) {
  PeerTable t;
  t.update(obs(1, 1.0));
  t.update(obs(2, 5.0));
  t.update(obs(3, 9.0));
  t.expire_older_than(5.0);
  EXPECT_EQ(t.size(), 2U);
  EXPECT_FALSE(t.find(1).has_value());
  EXPECT_TRUE(t.find(2).has_value());  // exactly-at-cutoff survives
  EXPECT_TRUE(t.find(3).has_value());
}

TEST(PeerTable, ClearEmpties) {
  PeerTable t;
  t.update(obs(1, 1.0));
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(StateCodec, RoundTrips) {
  EXPECT_EQ(decode_state(encode(NodeState::kSafe)), NodeState::kSafe);
  EXPECT_EQ(decode_state(encode(NodeState::kAlert)), NodeState::kAlert);
  EXPECT_EQ(decode_state(encode(NodeState::kCovered)), NodeState::kCovered);
}

TEST(StateCodec, GarbageDecodesToSafe) {
  EXPECT_EQ(decode_state(200), NodeState::kSafe);
}

TEST(StateNames, Distinct) {
  EXPECT_STREQ(to_string(NodeState::kSafe), "safe");
  EXPECT_STREQ(to_string(NodeState::kAlert), "alert");
  EXPECT_STREQ(to_string(NodeState::kCovered), "covered");
}

}  // namespace
}  // namespace pas::core
