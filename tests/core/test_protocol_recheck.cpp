// Lazy alert rechecks are exact: an alert node's recheck timer fires only
// where a recheck can change something, and every grid instant in between
// is booked as the recheck would have booked it. Each expectation here is
// computed from the grid itself (t += alert_recheck_s from the alert
// entry), so a timer armed one instant late, or a booking one instant
// long or short, fails.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "core/config.hpp"
#include "core/estimation.hpp"
#include "core/protocol.hpp"
#include "stimulus/radial_front.hpp"

namespace pas::core {
namespace {

constexpr std::uint32_t kX = 2;

// A line from the source: the front reaches A(2,0) and B(8,0) at t = 9 and
// 21, and X(14,0), which hears only B, at 33. From B's detection and
// formula-1 velocity X predicts an arrival near 33 (B may sense a little
// late). With max_radius 10 the front stops short of X, so X's table stops
// changing once it is alert: nothing but its own rechecks acts on it.
// Short sleeps put X's alert entry just after t = 21.
struct LineWorld {
  LineWorld(ProtocolConfig config, double max_radius,
            const node::FailurePlan* failures = nullptr) {
    config.sleep.max_s = 2.0;
    stimulus::RadialFrontConfig scfg;
    scfg.source = {0.0, 0.0};
    scfg.base_speed = 0.5;
    scfg.start_time = 5.0;
    scfg.max_radius = max_radius;
    model = std::make_unique<stimulus::RadialFrontModel>(scfg);
    positions = {{2.0, 0.0}, {8.0, 0.0}, {14.0, 0.0}};
    arrivals = stimulus::ArrivalMap(*model, positions, 200.0);
    network = std::make_unique<net::Network>(
        simulator, positions, net::RadioConfig{},
        std::make_shared<net::PerfectChannel>(), seeds);
    nodes.resize(positions.size());
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      nodes[i].id = i;
      nodes[i].position = positions[i];
      nodes[i].meter = energy::EnergyMeter(energy::PowerProfile::telos(), 0.0,
                                           energy::PowerMode::kActive);
      nodes[i].arrival = arrivals.at(i);
    }
    trace.enable();
    protocol = std::make_unique<Protocol>(simulator, *network, nodes, *model,
                                          arrivals, config, seeds, failures,
                                          &trace);
    protocol->start();
  }

  /// Time of X's first trace event of `kind` (state changes: into `to`)
  /// at or after `after`; kNever when there is none.
  [[nodiscard]] sim::Time first(sim::TraceKind kind, sim::Time after = 0.0,
                                const char* to = nullptr) const {
    for (const sim::TraceEvent& e : trace.events()) {
      if (e.node != kX || e.kind != kind || e.time < after) continue;
      if (to != nullptr && std::strcmp(e.s2, to) != 0) continue;
      return e.time;
    }
    return sim::kNever;
  }

  /// Steps to X's alert entry and returns its time.
  sim::Time run_to_alert() {
    while (protocol->state_of(kX) != NodeState::kAlert && simulator.step()) {
    }
    EXPECT_EQ(protocol->state_of(kX), NodeState::kAlert);
    EXPECT_EQ(first(sim::TraceKind::kStateChange, 0.0, "alert"),
              simulator.now());
    return simulator.now();
  }

  sim::Simulator simulator;
  sim::SeedSequence seeds{11};
  std::unique_ptr<stimulus::StimulusModel> model;
  std::vector<geom::Vec2> positions;
  stimulus::ArrivalMap arrivals;
  std::unique_ptr<net::Network> network;
  std::vector<node::SensorNode> nodes;
  sim::TraceLog trace;
  std::unique_ptr<Protocol> protocol;
};

/// Grid instants after `entry` (entry excluded) up to and including `end`.
std::uint64_t instants_through(sim::Time entry, sim::Duration step,
                               sim::Time end) {
  std::uint64_t n = 0;
  for (sim::Time t = entry + step; t <= end; t += step) ++n;
  return n;
}

TEST(ProtocolRecheck, StableTableDemotesAtFirstOverdueInstant) {
  // A 10 ms grid puts the overdue instant thousands of instants away, past
  // what one plan walks: the early rechecks in between must change nothing.
  for (const ProtocolConfig& base :
       {ProtocolConfig::pas(), ProtocolConfig::sas()}) {
    for (const sim::Duration period : {1.0, 0.01}) {
      ProtocolConfig cfg = base;
      cfg.alert_recheck_s = period;
      cfg.observation_ttl_s = 0.0;  // no row ever expires
      LineWorld w(cfg, 10.0);
      const sim::Time entry = w.run_to_alert();
      const sim::Time p = w.protocol->predicted_arrival_of(kX);
      ASSERT_NEAR(p, 33.0, 2.0);
      w.simulator.run_until(120.0);

      sim::Time expected = entry + period;
      while (!(p < expected - cfg.alert_overdue_hold_s)) expected += period;
      EXPECT_EQ(w.first(sim::TraceKind::kArrivalReceded), expected)
          << w.protocol->sleeping_policy().name() << " period " << period;
    }
  }
}

TEST(ProtocolRecheck, RowExpiryDemotesAtFirstExpiringInstant) {
  // With a 25 s TTL, B's row expires before P is overdue; the fold then has
  // no term left, and the node demotes at the first instant whose refresh
  // drops the row.
  ProtocolConfig cfg = ProtocolConfig::pas();
  cfg.observation_ttl_s = 25.0;
  LineWorld w(cfg, 10.0);
  const sim::Time entry = w.run_to_alert();
  w.simulator.run_until(120.0);

  // B answered X's REQUEST just before the entry; that row is X's only one.
  sim::Time sent = sim::kNever;
  for (const sim::TraceEvent& e : w.trace.events()) {
    if (e.node == 1 && e.kind == sim::TraceKind::kResponse && e.time < entry) {
      sent = e.time;
    }
  }
  ASSERT_LT(sent, entry);
  // The row was received within the radio's jitter and airtime of the send,
  // and no grid instant falls in that window at this seed.
  const auto first_expiring = [&](sim::Time received) {
    sim::Time t = entry + cfg.alert_recheck_s;
    while (!(received < t - cfg.observation_ttl_s)) t += cfg.alert_recheck_s;
    return t;
  };
  const sim::Time expected = first_expiring(sent);
  ASSERT_EQ(first_expiring(sent + 0.01), expected);
  ASSERT_LT(expected, 33.0 + cfg.alert_overdue_hold_s - 2.0);  // not overdue
  EXPECT_EQ(w.first(sim::TraceKind::kArrivalReceded), expected);
}

TEST(ProtocolRecheck, SettleBooksOneSuppressionPerInstantUnderPas) {
  // Stop while X is still alert, once between two instants and once on an
  // instant exactly: run_until runs the events at its deadline, so settle()
  // books that instant too.
  for (const bool on_instant : {false, true}) {
    ProtocolConfig cfg = ProtocolConfig::pas();
    LineWorld w(cfg, 10.0);
    const sim::Time entry = w.run_to_alert();
    sim::Time horizon = entry;
    for (int k = 0; k < 15; ++k) horizon += cfg.alert_recheck_s;
    if (!on_instant) horizon += 0.5 * cfg.alert_recheck_s;
    w.simulator.run_until(horizon);
    ASSERT_EQ(w.protocol->state_of(kX), NodeState::kAlert);
    w.protocol->settle();
    // The entry pushed; the table never changed after it, so each instant
    // found nothing to push.
    EXPECT_EQ(w.protocol->stats().responses_pushed, 1U);
    EXPECT_EQ(w.protocol->stats().pushes_suppressed,
              instants_through(entry, cfg.alert_recheck_s, horizon))
        << "on_instant " << on_instant;
    w.protocol->settle();  // idempotent
    EXPECT_EQ(w.protocol->stats().pushes_suppressed,
              instants_through(entry, cfg.alert_recheck_s, horizon));
  }
}

TEST(ProtocolRecheck, SettleBooksNothingUnderSas) {
  LineWorld w(ProtocolConfig::sas(), 10.0);
  w.run_to_alert();
  w.simulator.run_until(45.0);
  ASSERT_EQ(w.protocol->state_of(kX), NodeState::kAlert);
  w.protocol->settle();
  EXPECT_EQ(w.protocol->stats().pushes_suppressed, 0U);
}

TEST(ProtocolRecheck, DemotionBooksTheInstantsBeforeIt) {
  // Also on a 10 ms grid, where the early rechecks count their own
  // suppressions and the booked instants must not count them again.
  for (const sim::Duration period : {1.0, 0.01}) {
    ProtocolConfig cfg = ProtocolConfig::pas();
    cfg.alert_recheck_s = period;
    cfg.observation_ttl_s = 0.0;
    LineWorld w(cfg, 10.0);
    const sim::Time entry = w.run_to_alert();
    w.simulator.run_until(120.0);
    w.protocol->settle();
    const sim::Time demoted = w.first(sim::TraceKind::kArrivalReceded);
    ASSERT_LT(demoted, sim::kNever);
    // Back to safe X hears B's detection again, but with the safe
    // tolerance the prediction is overdue: X never re-enters alert.
    EXPECT_EQ(w.protocol->stats().alert_entries, 1U);
    EXPECT_EQ(w.protocol->stats().pushes_suppressed,
              instants_through(entry, period, demoted) - 1)
        << "period " << period;
  }
}

TEST(ProtocolRecheck, DetectionBooksOnlyTheInstantsBeforeIt) {
  // No max radius: the front reaches X at 33, mid-way through its alert
  // phase, and the arrival cancels the rest.
  ProtocolConfig cfg = ProtocolConfig::pas();
  LineWorld w(cfg, 1e9);
  const sim::Time entry = w.run_to_alert();
  w.simulator.run_until(120.0);
  w.protocol->settle();
  ASSERT_EQ(w.nodes[kX].detected, 33.0);
  EXPECT_EQ(w.protocol->stats().pushes_suppressed,
            instants_through(entry, cfg.alert_recheck_s,
                             std::nextafter(33.0, 0.0)));
}

TEST(ProtocolRecheck, FailureBooksOnlyTheInstantsBeforeIt) {
  node::FailureConfig kill;
  kill.fraction = 1.0;  // everyone, after X is alert and before it demotes
  kill.window_start_s = 35.0;
  kill.window_end_s = 45.0;
  const node::FailurePlan plan(3, kill, sim::Pcg32(5, 5));
  ProtocolConfig cfg = ProtocolConfig::pas();
  LineWorld w(cfg, 10.0, &plan);
  const sim::Time entry = w.run_to_alert();
  w.simulator.run_until(120.0);
  w.protocol->settle();
  ASSERT_TRUE(w.nodes[kX].failed);
  const sim::Time death = plan.death_time(kX);
  EXPECT_EQ(w.protocol->stats().pushes_suppressed,
            instants_through(entry, cfg.alert_recheck_s,
                             std::nextafter(death, 0.0)));
}

TEST(ProtocolRecheck, RateLimitedPushGoesOutAtTheNextDueInstant) {
  // X pushes on entry. B then reports a faster front, which moves X's
  // prediction from about 33 to 27 — significant, but inside the 5 s push
  // gap. The push must go out at the first grid instant past the gap.
  ProtocolConfig cfg = ProtocolConfig::pas();
  cfg.min_push_gap_s = 5.0;
  LineWorld w(cfg, 10.0);
  const sim::Time entry = w.run_to_alert();
  const sim::Time pushed_at = w.first(sim::TraceKind::kResponse, entry);
  ASSERT_EQ(pushed_at, entry);
  const sim::Time pushed = w.protocol->predicted_arrival_of(kX);

  const sim::Time inject = w.simulator.now() + 0.37;
  ASSERT_LT(inject, entry + cfg.min_push_gap_s);
  w.simulator.schedule_at(inject, [&w] {
    net::Message msg;
    net::ResponsePayload& r = msg.payload.emplace<net::ResponsePayload>();
    r.position = w.positions[1];
    r.state = encode(NodeState::kCovered);
    r.velocity = {1.0, 0.0};
    r.velocity_valid = true;
    r.predicted_arrival = 21.0;
    r.detected_at = 21.0;
    w.network->broadcast(1, msg);
  });
  w.simulator.run_until(inject + 0.5);
  ASSERT_EQ(w.protocol->predicted_arrival_of(kX), 27.0);
  w.simulator.run_until(120.0);

  sim::Time expected = entry + cfg.alert_recheck_s;
  while (expected < inject ||
         !(expected - pushed_at >= cfg.min_push_gap_s &&
           significant_change(pushed, 27.0, expected,
                              cfg.rebroadcast_rel_change,
                              cfg.rebroadcast_abs_floor_s))) {
    expected += cfg.alert_recheck_s;
  }
  EXPECT_EQ(w.first(sim::TraceKind::kResponse, inject), expected);
}

TEST(ProtocolRecheck, RadialFrontArmsNoCoverageChecks) {
  // Coverage under a radial front never recedes, so covered nodes hold no
  // coverage-check event: once every node is covered or quiet, the only
  // pending events left are sleeping X's wake-ups.
  LineWorld w(ProtocolConfig::pas(), 10.0);
  w.simulator.run_until(120.0);
  EXPECT_EQ(w.protocol->state_of(0), NodeState::kCovered);
  EXPECT_EQ(w.protocol->state_of(1), NodeState::kCovered);
  EXPECT_EQ(w.protocol->state_of(kX), NodeState::kSafe);
  EXPECT_EQ(w.simulator.pending_events(), 1U);
}

}  // namespace
}  // namespace pas::core
