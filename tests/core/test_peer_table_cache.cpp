// Oracle test for PeerTable's cached formulas 2 and 3: after every table
// operation, predict_arrival() and expected_velocity() from the cache must
// equal, bit for bit, the free functions over entries() and formula 3 as a
// single loop over the rows (the form the per-peer cache replaced).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/estimation.hpp"
#include "core/observation.hpp"
#include "sim/rng.hpp"

namespace pas::core {
namespace {

/// Formula 3 as one loop over the rows, returning at the first eligible
/// co-located peer — written out here, independent of arrival_term() and
/// fold_arrival().
sim::Time loop_predict_arrival(geom::Vec2 x_position, sim::Time now,
                               std::span<const PeerObservation> peers,
                               const PredictionPolicy& policy) {
  sim::Time best = sim::kNever;
  for (const PeerObservation& peer : peers) {
    const bool covered = peer.state == NodeState::kCovered;
    const bool alert = peer.state == NodeState::kAlert;
    if (!covered && !(alert && policy.use_alert_peers)) continue;
    if (!peer.velocity_valid) continue;
    const double speed = peer.velocity.norm();
    if (speed <= 0.0) continue;
    const geom::Vec2 ix = x_position - peer.position;
    const double dist = ix.norm();
    if (dist == 0.0) return now;
    double travel;
    if (policy.cosine_projection) {
      const double cos_phi = geom::cos_included_angle(peer.velocity, ix);
      if (cos_phi <= 0.0) continue;
      travel = dist * cos_phi / speed;
    } else {
      travel = dist / speed;
    }
    sim::Time ref;
    if (covered) {
      ref = peer.detected_at != sim::kNever ? peer.detected_at
                                            : peer.received_at;
    } else {
      ref = peer.predicted_arrival != sim::kNever ? peer.predicted_arrival
                                                  : peer.received_at;
    }
    const sim::Time estimate = ref + travel;
    if (estimate < now - policy.overdue_tolerance_s) continue;
    best = std::min(best, estimate);
  }
  return best;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Checks the table's cached answers against both references.
void expect_cache_exact(PeerTable& table, geom::Vec2 x, sim::Time now,
                        const PredictionPolicy& policy, int step) {
  const sim::Time want = predict_arrival(x, now, table.entries(), policy);
  ASSERT_EQ(bits(want),
            bits(loop_predict_arrival(x, now, table.entries(), policy)))
      << "step " << step;
  ASSERT_EQ(bits(table.predict_arrival(x, now, policy)), bits(want))
      << "step " << step;

  const auto want_v = expected_velocity(table.entries());
  const auto got_v = table.expected_velocity();
  ASSERT_EQ(got_v.has_value(), want_v.has_value()) << "step " << step;
  if (want_v) {
    ASSERT_EQ(bits(got_v->x), bits(want_v->x)) << "step " << step;
    ASSERT_EQ(bits(got_v->y), bits(want_v->y)) << "step " << step;
  }
}

/// A random row for neighbor `id`: any state, velocities valid or not and
/// sometimes zero, detections and predictions known or not, and now and
/// then a position equal to `x` (a co-located peer).
PeerObservation random_row(std::uint32_t id, geom::Vec2 x, sim::Time now,
                           sim::Pcg32& rng) {
  PeerObservation o;
  o.id = id;
  o.position = rng.next() % 6 == 0
                   ? x
                   : geom::Vec2{rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0)};
  o.state = static_cast<NodeState>(rng.next() % 3);
  o.velocity_valid = rng.next() % 5 != 0;
  o.velocity = rng.next() % 7 == 0
                   ? geom::Vec2{}
                   : geom::Vec2{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  o.detected_at = rng.next() % 3 == 0 ? sim::kNever : now - rng.uniform(0.0, 30.0);
  o.predicted_arrival =
      rng.next() % 3 == 0 ? sim::kNever : now + rng.uniform(-25.0, 40.0);
  o.received_at = now;
  return o;
}

TEST(PeerTableCache, EqualsReferencesAfterEveryOperation) {
  constexpr std::uint32_t kIds = 20;
  constexpr sim::Duration kTtl = 12.0;
  sim::Pcg32 rng(18, 3);
  PeerTable table;
  table.reserve(kIds);
  geom::Vec2 x{0.5, -0.25};
  PredictionPolicy policy{};
  sim::Time now = 0.0;
  for (int step = 0; step < 20000; ++step) {
    now += rng.uniform(0.0, 0.4);
    // Neighbors heard in scrambled id order.
    const std::uint32_t id = (rng.next() % kIds) * 7 % kIds;
    switch (rng.next() % 12) {
      case 0:
        // TTL expiry, as refresh_estimates runs it.
        table.expire_older_than(now - kTtl);
        break;
      case 1:
        // A state flip of a row the table holds (or an insert).
        if (const auto row = table.find(id)) {
          PeerObservation o = *row;
          o.state = static_cast<NodeState>((static_cast<int>(o.state) + 1) % 3);
          o.received_at = now;
          table.update(o);
        } else {
          table.update(random_row(id, x, now, rng));
        }
        break;
      case 2:
        // The policy's flags change (another policy's prediction rule).
        policy.use_alert_peers = rng.next() % 2 == 0;
        policy.cosine_projection = rng.next() % 2 == 0;
        break;
      case 3:
        // The owner's state changes its overdue tolerance.
        policy.overdue_tolerance_s = rng.next() % 2 == 0 ? 10.0 : 20.0;
        break;
      case 4:
        // The owner moves, sometimes onto a peer's position.
        if (!table.empty() && rng.next() % 2 == 0) {
          x = table.entries()[rng.next() % table.size()].position;
        } else {
          x = {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
        }
        break;
      case 5:
        if (rng.next() % 50 == 0) table.clear();
        break;
      default:
        table.update(random_row(id, x, now, rng));
        break;
    }
    // Not every step asks: the cache must also be right after several
    // operations in a row.
    if (rng.next() % 3 != 0) {
      expect_cache_exact(table, x, now, policy, step);
    }
  }
}

TEST(PeerTableCache, ColocatedPeerAtEveryTablePositionMeansNow) {
  // One eligible co-located row among ordinary ones, at each table index in
  // turn: formula 3 is `now` wherever that row sits.
  constexpr std::uint32_t kRows = 9;
  const geom::Vec2 x{2.0, 1.0};
  const sim::Time now = 40.0;
  sim::Pcg32 rng(9, 9);
  for (const bool alert_peers : {false, true}) {
    for (const bool cosine : {false, true}) {
      const PredictionPolicy policy{.use_alert_peers = alert_peers,
                                    .cosine_projection = cosine,
                                    .overdue_tolerance_s = 10.0};
      for (std::uint32_t at = 0; at < kRows; ++at) {
        PeerTable table;
        for (std::uint32_t id = 0; id < kRows; ++id) {
          PeerObservation o;
          o.id = id;
          o.state = NodeState::kCovered;
          o.velocity = {0.3, 0.4};
          o.velocity_valid = true;
          o.detected_at = now - rng.uniform(0.0, 5.0);
          o.received_at = now;
          o.position = id == at ? x
                                : geom::Vec2{x.x - rng.uniform(1.0, 8.0),
                                             x.y - rng.uniform(1.0, 8.0)};
          table.update(o);
        }
        EXPECT_EQ(predict_arrival(x, now, table.entries(), policy), now)
            << "co-located row at " << at;
        EXPECT_EQ(table.predict_arrival(x, now, policy), now)
            << "co-located row at " << at;
        expect_cache_exact(table, x, now, policy, static_cast<int>(at));
      }
    }
  }
}

TEST(PeerTableCache, TermIsNeverForPeersThatCannotContribute) {
  const geom::Vec2 x{5.0, 0.0};
  const PredictionPolicy sas{.use_alert_peers = false,
                             .cosine_projection = false};
  const PredictionPolicy pas{.use_alert_peers = true,
                             .cosine_projection = true};
  PeerObservation o;
  o.state = NodeState::kCovered;
  o.velocity = {1.0, 0.0};
  o.velocity_valid = true;
  o.detected_at = 2.0;
  EXPECT_EQ(arrival_term(x, o, pas), 2.0 + 5.0);
  o.state = NodeState::kSafe;
  EXPECT_EQ(arrival_term(x, o, pas), sim::kNever);  // wrong state
  o.state = NodeState::kAlert;
  EXPECT_EQ(arrival_term(x, o, sas), sim::kNever);  // alert, SAS
  o.velocity_valid = false;
  EXPECT_EQ(arrival_term(x, o, pas), sim::kNever);  // no velocity
  o.velocity_valid = true;
  o.velocity = {};
  EXPECT_EQ(arrival_term(x, o, pas), sim::kNever);  // speed 0
  o.velocity = {-1.0, 0.0};
  EXPECT_EQ(arrival_term(x, o, pas), sim::kNever);  // cos φ < 0
  o.position = x;
  EXPECT_EQ(arrival_term(x, o, pas), kFrontHere);  // co-located
}

}  // namespace
}  // namespace pas::core
