#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/config.hpp"
#include "stimulus/radial_front.hpp"

namespace pas::core {
namespace {

// A hand-built five-node line with an isotropic front moving along it:
//
//   source(0,0)   n0(2,0)  n1(8,0)  n2(14,0)  n3(20,0)  n4(26,0)
//
// front speed 0.5 m/s, released at t=5 → arrivals at 9, 21, 33, 45, 57 s.
// Spacing 6 m < 10 m radio range, so the line is a connected chain.
struct ProtocolWorld {
  explicit ProtocolWorld(ProtocolConfig config, sim::Duration horizon = 120.0) {
    stimulus::RadialFrontConfig scfg;
    scfg.source = {0.0, 0.0};
    scfg.base_speed = 0.5;
    scfg.start_time = 5.0;
    model = std::make_unique<stimulus::RadialFrontModel>(scfg);

    positions = {{2.0, 0.0}, {8.0, 0.0}, {14.0, 0.0}, {20.0, 0.0}, {26.0, 0.0}};
    arrivals = stimulus::ArrivalMap(*model, positions, horizon);

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
    network->set_tx_hook([this](std::uint32_t id, std::size_t bits) {
      nodes[id].meter.add_tx(bits);
    });

    protocol = std::make_unique<Protocol>(simulator, *network, nodes, *model,
                                          arrivals, config, seeds, nullptr,
                                          &trace);
  }

  sim::Simulator simulator;
  sim::SeedSequence seeds{7};
  std::unique_ptr<stimulus::RadialFrontModel> model;
  std::vector<geom::Vec2> positions;
  stimulus::ArrivalMap arrivals;
  std::unique_ptr<net::Network> network;
  std::vector<node::SensorNode> nodes;
  sim::TraceLog trace;
  std::unique_ptr<Protocol> protocol;
};

TEST(Protocol, ValidatesSizes) {
  ProtocolWorld w(ProtocolConfig::pas());
  std::vector<node::SensorNode> wrong(3);
  EXPECT_THROW(Protocol(w.simulator, *w.network, wrong, *w.model, w.arrivals,
                        ProtocolConfig::pas(), w.seeds),
               std::invalid_argument);
}

TEST(Protocol, RejectsArrivalMapOfAnotherModel) {
  // Nodes sense through the map's sites, which only the model that built
  // them can read: an equal but distinct model is refused too.
  ProtocolWorld w(ProtocolConfig::pas());
  const stimulus::RadialFrontModel twin(w.model->config());
  EXPECT_THROW(Protocol(w.simulator, *w.network, w.nodes, twin, w.arrivals,
                        ProtocolConfig::pas(), w.seeds),
               std::invalid_argument);
  // Nor may the map's positions differ from the nodes'.
  std::vector<geom::Vec2> moved = w.positions;
  moved[2].x += 0.5;
  const stimulus::ArrivalMap elsewhere(*w.model, moved, 120.0);
  EXPECT_THROW(Protocol(w.simulator, *w.network, w.nodes, *w.model, elsewhere,
                        ProtocolConfig::pas(), w.seeds),
               std::invalid_argument);
}

TEST(Protocol, StartTwiceThrows) {
  ProtocolWorld w(ProtocolConfig::pas());
  w.protocol->start();
  EXPECT_THROW(w.protocol->start(), std::logic_error);
}

TEST(Protocol, AllNodesStartSafe) {
  ProtocolWorld w(ProtocolConfig::pas());
  w.protocol->start();
  EXPECT_EQ(w.protocol->count_in_state(NodeState::kSafe), 5U);
}

TEST(Protocol, NeverSleepDetectsInstantly) {
  ProtocolWorld w(ProtocolConfig::never_sleep());
  w.protocol->start();
  w.simulator.run_until(120.0);
  for (const auto& n : w.nodes) {
    ASSERT_TRUE(n.has_detected());
    EXPECT_NEAR(n.detection_delay(), 0.0, 1e-9);
  }
  EXPECT_EQ(w.protocol->count_in_state(NodeState::kCovered), 5U);
  // NS sends no messages at all.
  EXPECT_EQ(w.network->stats().broadcasts, 0U);
}

TEST(Protocol, PasEventuallyDetectsEverywhere) {
  ProtocolWorld w(ProtocolConfig::pas());
  w.protocol->start();
  w.simulator.run_until(120.0);
  for (const auto& n : w.nodes) {
    ASSERT_TRUE(n.has_detected());
    EXPECT_GE(n.detection_delay(), 0.0);
    EXPECT_LE(n.detection_delay(),
              w.protocol->config().sleep.max_s + 1e-9);
  }
}

TEST(Protocol, CoveredNodesStayCoveredUnderGrowingFront) {
  ProtocolWorld w(ProtocolConfig::pas());
  w.protocol->start();
  w.simulator.run_until(120.0);
  EXPECT_EQ(w.protocol->count_in_state(NodeState::kCovered), 5U);
  EXPECT_EQ(w.protocol->stats().covered_timeouts, 0U);
}

TEST(Protocol, SleepingNodesMissArrivalActiveNodesDont) {
  // Huge max sleep and no alerting (threshold 0 disables the alert belt at
  // distance): distant nodes must show positive delay.
  ProtocolConfig cfg = ProtocolConfig::pas();
  cfg.alert_threshold_s = 0.0;
  cfg.sleep.max_s = 30.0;
  ProtocolWorld w(cfg);
  w.protocol->start();
  w.simulator.run_until(120.0);
  double total_delay = 0.0;
  for (const auto& n : w.nodes) {
    ASSERT_TRUE(n.has_detected());
    total_delay += n.detection_delay();
  }
  EXPECT_GT(total_delay, 0.5);
}

TEST(Protocol, AlertBeltFormsAheadOfFront) {
  ProtocolConfig cfg = ProtocolConfig::pas();
  cfg.alert_threshold_s = 25.0;
  ProtocolWorld w(cfg);
  w.protocol->start();
  // At t=25 the front is at r=10: n0 covered (arrival 9), n1 close
  // (arrival 33 − 25 = 8s away < 25 threshold) should be alert or covered.
  w.simulator.run_until(30.0);
  EXPECT_EQ(w.protocol->state_of(0), NodeState::kCovered);
  EXPECT_NE(w.protocol->state_of(1), NodeState::kSafe);
  EXPECT_GT(w.protocol->stats().alert_entries, 0U);
}

TEST(Protocol, PasAlertReducesDelayVersusNoAlert) {
  ProtocolConfig with_alert = ProtocolConfig::pas();
  with_alert.alert_threshold_s = 25.0;
  with_alert.sleep.max_s = 20.0;
  ProtocolConfig no_alert = with_alert;
  no_alert.alert_threshold_s = 0.0;

  double delay_with = 0.0, delay_without = 0.0;
  {
    ProtocolWorld w(with_alert);
    w.protocol->start();
    w.simulator.run_until(120.0);
    for (const auto& n : w.nodes) delay_with += n.detection_delay();
  }
  {
    ProtocolWorld w(no_alert);
    w.protocol->start();
    w.simulator.run_until(120.0);
    for (const auto& n : w.nodes) delay_without += n.detection_delay();
  }
  EXPECT_LT(delay_with, delay_without);
}

TEST(Protocol, VelocityEstimatePropagates) {
  ProtocolConfig cfg = ProtocolConfig::pas();
  cfg.alert_threshold_s = 30.0;
  ProtocolWorld w(cfg);
  w.protocol->start();
  w.simulator.run_until(60.0);  // front passed n1 (33) and n2 (45)
  // Nodes covered after the first have had covered peers to estimate from.
  EXPECT_TRUE(w.protocol->velocity_valid_of(2));
  const geom::Vec2 v = w.protocol->velocity_of(2);
  // True front speed is 0.5 m/s along +x; the estimate is protocol-level so
  // allow generous tolerance, but direction must be right.
  EXPECT_GT(v.x, 0.1);
  EXPECT_LT(v.norm(), 2.0);
}

TEST(Protocol, MessagesFlowOnlyWhenSleepingPolicy) {
  ProtocolWorld w(ProtocolConfig::pas());
  w.protocol->start();
  w.simulator.run_until(120.0);
  EXPECT_GT(w.network->stats().broadcasts, 0U);
  EXPECT_GT(w.protocol->stats().requests_sent, 0U);
  EXPECT_GT(w.protocol->stats().responses_sent, 0U);
}

TEST(Protocol, SasAlertNodesDontPush) {
  ProtocolWorld w(ProtocolConfig::sas());
  w.protocol->start();
  w.simulator.run_until(120.0);
  EXPECT_EQ(w.protocol->stats().responses_pushed, 0U);
}

TEST(Protocol, FailedNodeNeverDetects) {
  // A failure window early in the run kills exactly one of the five nodes.
  node::FailureConfig kill;
  kill.fraction = 0.2;  // exactly 1 of 5
  kill.window_start_s = 1.0;
  kill.window_end_s = 2.0;
  const node::FailurePlan fplan(5, kill, sim::Pcg32(3, 3));
  ASSERT_EQ(fplan.failing_count(), 1U);

  sim::Simulator simulator;
  const sim::SeedSequence seeds(7);
  stimulus::RadialFrontConfig scfg;
  scfg.source = {0.0, 0.0};
  scfg.base_speed = 0.5;
  scfg.start_time = 5.0;
  const stimulus::RadialFrontModel model(scfg);
  const std::vector<geom::Vec2> positions{
      {2.0, 0.0}, {8.0, 0.0}, {14.0, 0.0}, {20.0, 0.0}, {26.0, 0.0}};
  const stimulus::ArrivalMap arrivals(model, positions, 120.0);
  net::Network network(simulator, positions, net::RadioConfig{},
                       std::make_shared<net::PerfectChannel>(), seeds);
  std::vector<node::SensorNode> nodes(5);
  for (std::uint32_t i = 0; i < 5; ++i) {
    nodes[i].id = i;
    nodes[i].position = positions[i];
    nodes[i].meter = energy::EnergyMeter(energy::PowerProfile::telos(), 0.0,
                                         energy::PowerMode::kActive);
    nodes[i].arrival = arrivals.at(i);
  }
  Protocol protocol(simulator, network, nodes, model, arrivals,
                    ProtocolConfig::pas(), seeds, &fplan);
  protocol.start();
  simulator.run_until(120.0);

  std::size_t failed = 0, failed_detections = 0;
  for (const auto& n : nodes) {
    if (n.failed) {
      ++failed;
      if (n.has_detected()) ++failed_detections;
    } else {
      EXPECT_TRUE(n.has_detected());
    }
  }
  EXPECT_EQ(failed, 1U);
  EXPECT_EQ(failed_detections, 0U);
  EXPECT_EQ(protocol.stats().failures, 1U);
}

TEST(Protocol, TraceRecordsLifecycle) {
  ProtocolConfig cfg = ProtocolConfig::pas();
  ProtocolWorld w(cfg);
  w.trace.enable();
  w.protocol->start();
  w.simulator.run_until(120.0);
  EXPECT_GT(w.trace.filter(sim::TraceCategory::kSleep).size(), 0U);
  EXPECT_GT(w.trace.filter(sim::TraceCategory::kDetection).size(), 0U);
  EXPECT_GT(w.trace.filter(sim::TraceCategory::kState).size(), 0U);
}

TEST(Protocol, EnergyAccountingSeparatesPolicies) {
  double ns_energy = 0.0, pas_energy = 0.0;
  {
    ProtocolWorld w(ProtocolConfig::never_sleep());
    w.protocol->start();
    w.simulator.run_until(120.0);
    for (auto& n : w.nodes) {
      n.meter.finalize(120.0);
      ns_energy += n.meter.total_j(120.0);
    }
  }
  {
    ProtocolWorld w(ProtocolConfig::pas());
    w.protocol->start();
    w.simulator.run_until(120.0);
    for (auto& n : w.nodes) {
      n.meter.finalize(120.0);
      pas_energy += n.meter.total_j(120.0);
    }
  }
  EXPECT_LT(pas_energy, ns_energy);
}

TEST(Protocol, SleepIntervalClampedByMaxSleep) {
  ProtocolConfig cfg = ProtocolConfig::pas();
  cfg.alert_threshold_s = 0.0;  // nobody alerts
  cfg.sleep.initial_s = 1.0;
  cfg.sleep.increment_s = 1.0;
  cfg.sleep.max_s = 4.0;
  ProtocolWorld w(cfg);
  w.trace.enable();
  w.protocol->start();
  w.simulator.run_until(60.0);
  // Sleep trace events carry the chosen interval; none may exceed max.
  std::size_t sleeps = 0;
  for (const auto& e : w.trace.filter(sim::TraceCategory::kSleep)) {
    if (e.kind == sim::TraceKind::kSleepFor) {
      ++sleeps;
      EXPECT_LE(e.x, 4.0 + 1e-9);
    }
  }
  EXPECT_GT(sleeps, 0u);
}

}  // namespace
}  // namespace pas::core
