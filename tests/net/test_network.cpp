#include "net/network.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "geom/disk_graph.hpp"
#include "sim/rng.hpp"

namespace pas::net {
namespace {

/// A node's neighbor ids as a vector, for comparisons.
std::vector<std::uint32_t> neighbors(const Network& network, std::uint32_t id) {
  const auto ids = network.neighbors_of(id);
  return {ids.begin(), ids.end()};
}

struct NetworkFixture : ::testing::Test {
  // Chain topology: 0 -- 1 -- 2, spacing 8 m, range 10 m (0 and 2 are 16 m
  // apart, out of range).
  sim::Simulator simulator;
  sim::SeedSequence seeds{42};
  std::vector<geom::Vec2> positions{{0.0, 0.0}, {8.0, 0.0}, {16.0, 0.0}};
  RadioConfig config{};
  Network network{simulator, positions, config,
                  std::make_shared<PerfectChannel>(), seeds};
};

TEST_F(NetworkFixture, NeighborListsFromRange) {
  EXPECT_EQ(neighbors(network, 0), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(neighbors(network, 1), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(neighbors(network, 2), (std::vector<std::uint32_t>{1}));
  EXPECT_NEAR(network.mean_degree(), 4.0 / 3.0, 1e-12);
}

TEST_F(NetworkFixture, BroadcastReachesOnlyInRangeNeighbors) {
  std::vector<std::uint32_t> received;
  for (std::uint32_t i = 0; i < 3; ++i) {
    network.set_rx_handler(i, [&received, i](const Message&) {
      received.push_back(i);
    });
  }
  network.broadcast(0, Message{});
  simulator.run();
  EXPECT_EQ(received, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(network.stats().deliveries, 1U);
}

TEST_F(NetworkFixture, DeliveryIsDelayedByOnAirTime) {
  sim::Time delivered_at = -1.0;
  network.set_rx_handler(1, [&](const Message&) {
    delivered_at = simulator.now();
  });
  Message m;
  m.payload = ResponsePayload{};
  network.broadcast(0, m);
  simulator.run();
  const double on_air = static_cast<double>(m.size_bits()) / 250e3;
  EXPECT_GE(delivered_at, on_air);
  EXPECT_LE(delivered_at, on_air + config.max_jitter_s + 1e-3);
}

TEST_F(NetworkFixture, MessageStampedWithSenderAndTime) {
  Message got;
  network.set_rx_handler(1, [&](const Message& m) { got = m; });
  simulator.schedule_at(5.0, [&] { network.broadcast(0, Message{}); });
  simulator.run();
  EXPECT_EQ(got.sender, 0U);
  EXPECT_DOUBLE_EQ(got.sent_at, 5.0);
}

TEST_F(NetworkFixture, SleepingReceiverMissesPacket) {
  int received = 0;
  network.set_rx_handler(1, [&](const Message&) { ++received; });
  network.set_listening(1, false);
  Message m;
  network.broadcast(0, m);
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().dropped_not_listening, 1U);
}

TEST_F(NetworkFixture, ListeningCheckedAtDeliveryTime) {
  // Receiver wakes between send and delivery: packet arrives.
  int received = 0;
  network.set_rx_handler(1, [&](const Message&) { ++received; });
  network.set_listening(1, false);
  Message m;
  network.broadcast(0, m);
  simulator.schedule_at(1e-7, [&] { network.set_listening(1, true); });
  simulator.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkFixture, FailedNodesNeitherSendNorReceive) {
  int received = 0;
  network.set_rx_handler(1, [&](const Message&) { ++received; });
  network.set_failed(0);
  Message m;
  network.broadcast(0, m);
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().blocked_sender_failed, 1U);

  network.set_failed(1);
  network.broadcast(2, m);
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().dropped_failed, 1U);
}

TEST_F(NetworkFixture, TxEnergyHookFiresOncePerBroadcast) {
  std::vector<std::pair<std::uint32_t, std::size_t>> tx;
  network.set_tx_hook([&](std::uint32_t n, std::size_t b) { tx.push_back({n, b}); });
  Message m;
  m.payload = ResponsePayload{};
  network.broadcast(1, m);
  simulator.run();
  ASSERT_EQ(tx.size(), 1U);
  EXPECT_EQ(tx[0].first, 1U);
  EXPECT_EQ(tx[0].second, m.size_bits());
}

/// Node 0 at the center of a 6 m ring of nodes 1..4: 0 reaches all four.
struct StarFixture : ::testing::Test {
  sim::Simulator simulator;
  sim::SeedSequence seeds{5};
  Network network{simulator,
                  {{0.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}, {-6.0, 0.0}, {0.0, -6.0}},
                  RadioConfig{},
                  std::make_shared<PerfectChannel>(),
                  seeds};
};

TEST_F(StarFixture, HandlerFailingALaterReceiverDropsItsDelivery) {
  ASSERT_EQ(neighbors(network, 0), (std::vector<std::uint32_t>{1, 2, 3, 4}));
  std::vector<std::uint32_t> received;
  for (std::uint32_t i = 1; i <= 4; ++i) {
    network.set_rx_handler(i, [&, i](const Message&) {
      received.push_back(i);
      if (i == 1) network.set_failed(3);
    });
  }
  network.broadcast(0, Message{});
  simulator.run();
  EXPECT_EQ(received, (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(network.stats().deliveries, 3U);
  EXPECT_EQ(network.stats().dropped_failed, 1U);
}

TEST_F(StarFixture, NestedDeliveriesDispatchAfterTheWholeFanOut) {
  // Receiver 1 answers at once and also schedules a zero-delay event; both
  // must wait until receivers 2..4 have heard the outer broadcast.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> log;  // (to, from)
  for (std::uint32_t i = 0; i <= 4; ++i) {
    network.set_rx_handler(i, [&, i](const Message& m) {
      log.emplace_back(i, m.sender);
      if (i == 1 && m.sender == 0) {
        network.broadcast(1, Message{});
        simulator.schedule_in(0.0, [&] { log.emplace_back(99, 99); });
      }
    });
  }
  network.broadcast(0, Message{});
  simulator.run();
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want{
      {1, 0}, {2, 0}, {3, 0}, {4, 0}, {99, 99}, {0, 1}, {2, 1}, {4, 1}};
  EXPECT_EQ(log, want);
}

TEST(Network, EveryNeighborIsCountedOncePerBroadcast) {
  // Lossy links, sleeping and failed receivers: each broadcast still
  // accounts for every neighbor exactly once.
  sim::Simulator simulator;
  const sim::SeedSequence seeds(17);
  std::vector<geom::Vec2> positions;
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 6; ++c) positions.push_back({6.0 * c, 6.0 * r});
  }
  Network network(simulator, positions, RadioConfig{},
                  std::make_shared<BernoulliLossChannel>(0.3), seeds);
  for (std::uint32_t i = 0; i < network.size(); ++i) {
    if (i % 4 == 1) network.set_listening(i, false);
    if (i % 7 == 3) network.set_failed(i);
  }
  const auto accounted = [&network] {
    const Network::Stats& s = network.stats();
    return s.deliveries + s.dropped_channel + s.dropped_not_listening +
           s.dropped_failed;
  };
  for (std::uint32_t from = 0; from < network.size(); ++from) {
    if (network.failed(from)) continue;
    const std::uint64_t before = accounted();
    network.broadcast(from, Message{});
    simulator.run();
    EXPECT_EQ(accounted() - before, network.neighbors_of(from).size())
        << "sender " << from;
  }
  EXPECT_GT(network.stats().deliveries, 0U);
  EXPECT_GT(network.stats().dropped_channel, 0U);
  EXPECT_GT(network.stats().dropped_not_listening, 0U);
  EXPECT_GT(network.stats().dropped_failed, 0U);
}

TEST(Network, LossyChannelDropsStatistically) {
  sim::Simulator simulator;
  const sim::SeedSequence seeds(9);
  const std::vector<geom::Vec2> positions{{0.0, 0.0}, {5.0, 0.0}};
  Network network(simulator, positions, RadioConfig{},
                  std::make_shared<BernoulliLossChannel>(0.5), seeds);
  int received = 0;
  network.set_rx_handler(1, [&](const Message&) { ++received; });
  for (int i = 0; i < 1000; ++i) {
    Message m;
    network.broadcast(0, m);
  }
  simulator.run();
  EXPECT_GT(received, 400);
  EXPECT_LT(received, 600);
  EXPECT_EQ(network.stats().dropped_channel,
            1000U - static_cast<unsigned>(received));
}

TEST(Network, ValidationErrors) {
  sim::Simulator simulator;
  const sim::SeedSequence seeds(1);
  EXPECT_THROW(Network(simulator, {}, RadioConfig{},
                       std::make_shared<PerfectChannel>(), seeds),
               std::invalid_argument);
  RadioConfig bad;
  bad.range_m = 0.0;
  EXPECT_THROW(Network(simulator, {{0.0, 0.0}}, bad,
                       std::make_shared<PerfectChannel>(), seeds),
               std::invalid_argument);
  EXPECT_THROW(Network(simulator, {{0.0, 0.0}}, RadioConfig{}, nullptr, seeds),
               std::invalid_argument);
}

TEST(Network, HandedDiskGraphEqualsItsOwnBuild) {
  // The world::Workspace path: a disk graph built (unsorted) for the
  // connectivity check is swapped into reset(). The network must end up with
  // the neighbor lists a fresh Network builds, and hand back its previous
  // graph.
  sim::Pcg32 rng(8, 1);
  sim::Simulator simulator;
  const sim::SeedSequence seeds(5);
  Network handed(simulator);
  geom::DiskGraph graph;
  std::size_t previous = 0;
  for (int round = 0; round < 300; ++round) {
    const auto n = static_cast<std::size_t>(1 + rng.next() % 50);
    RadioConfig config;
    config.range_m = rng.uniform(1.0, 15.0);
    std::vector<geom::Vec2> positions;
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back({rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)});
    }
    graph.build(positions, config.range_m);
    handed.reset(positions, config, std::make_shared<PerfectChannel>(), seeds,
                 graph);
    EXPECT_EQ(graph.size(), previous);
    previous = n;
    const Network fresh(simulator, positions, config,
                        std::make_shared<PerfectChannel>(), seeds);
    ASSERT_EQ(handed.size(), fresh.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(neighbors(handed, i), neighbors(fresh, i)) << "round " << round;
    }
  }
}

TEST(Network, HandedDiskGraphMustMatchPositions) {
  sim::Simulator simulator;
  const sim::SeedSequence seeds(1);
  Network network(simulator);
  geom::DiskGraph graph;
  const std::vector<geom::Vec2> two{{0.0, 0.0}, {5.0, 0.0}};
  graph.build(two, 10.0);
  EXPECT_THROW(network.reset({{0.0, 0.0}}, RadioConfig{},
                             std::make_shared<PerfectChannel>(), seeds, graph),
               std::invalid_argument);
  EXPECT_THROW((void)network.neighbors_of(0), std::out_of_range);
}

TEST(Network, BroadcastFromUnknownSenderThrows) {
  sim::Simulator simulator;
  const sim::SeedSequence seeds(1);
  Network network(simulator, {{0.0, 0.0}}, RadioConfig{},
                  std::make_shared<PerfectChannel>(), seeds);
  Message m;
  EXPECT_THROW(network.broadcast(5, m), std::out_of_range);
}

}  // namespace
}  // namespace pas::net
