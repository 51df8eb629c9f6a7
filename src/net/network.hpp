// Broadcast radio fabric.
//
// Nodes communicate by local broadcast within a fixed disk range (the
// paper's experiments use 10 m). A transmission reaches every in-range,
// listening, non-failed neighbor after MAC jitter + time-on-air; each
// (link, packet) pair independently consults the channel model. Energy is
// reported through hooks so the net layer stays independent of the energy
// layer's bookkeeping.
//
// Without a MAC, a broadcast is one simulator event that walks the sender's
// neighbor list in ascending id order and runs each receiver's checks and
// handler in turn. The order is the one a separate event per receiver would
// give: those events would be consecutive (time, seq) entries that nothing
// cancels, and anything a handler schedules gets a later seq.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "geom/disk_graph.hpp"
#include "geom/vec2.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace pas::net {

class SlottedLplMac;

struct RadioConfig {
  /// Transmission/reception disk radius (m).
  double range_m = 10.0;
  /// On-air bit rate (bits/s) — paper Table 1: 250 kbps.
  double data_rate_bps = 250e3;
  /// Random CSMA-style backoff drawn uniformly from [0, max_jitter_s].
  sim::Duration max_jitter_s = 5e-3;
  /// Fixed propagation delay (effectively 0 at WSN scales).
  sim::Duration propagation_s = 1e-6;
};

class Network {
 public:
  using RxHandler = std::function<void(const Message&)>;
  using EnergyHook = std::function<void(std::uint32_t node, std::size_t bits)>;

  Network(sim::Simulator& simulator, std::vector<geom::Vec2> positions,
          RadioConfig config, std::shared_ptr<Channel> channel,
          const sim::SeedSequence& seeds);

  /// A fabric with no nodes yet; reset() gives it a world.
  explicit Network(sim::Simulator& simulator) : simulator_(simulator) {}

  /// Rebuilds the fabric for a new world (positions/config/channel/seeds)
  /// while reusing neighbor-list, handler and RNG storage. Equivalent to
  /// constructing a fresh Network with the same arguments (the bound
  /// simulator stays).
  void reset(std::vector<geom::Vec2> positions, RadioConfig config,
             std::shared_ptr<Channel> channel, const sim::SeedSequence& seeds);

  /// reset() with the disk graph already built: `graph` must be
  /// geom::DiskGraph::build(positions, config.range_m)'s result, sorted or
  /// not. It is swapped in and sorted, and `graph` gets the previous world's
  /// graph back, so both sides keep their capacity — the world::Workspace
  /// path, which built the graph to check connectivity.
  void reset(std::vector<geom::Vec2> positions, RadioConfig config,
             std::shared_ptr<Channel> channel, const sim::SeedSequence& seeds,
             geom::DiskGraph& graph);

  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }
  [[nodiscard]] const RadioConfig& radio_config() const noexcept {
    return config_;
  }
  [[nodiscard]] geom::Vec2 position(std::uint32_t id) const {
    return positions_.at(id);
  }

  /// Neighbor ids within radio range (excluding `id` itself), ascending.
  [[nodiscard]] std::span<const std::uint32_t> neighbors_of(
      std::uint32_t id) const {
    if (id >= size()) {
      throw std::out_of_range("Network::neighbors_of: unknown node");
    }
    return graph_.neighbors(id);
  }

  /// Handler invoked on successful packet reception.
  void set_rx_handler(std::uint32_t id, RxHandler handler);

  /// A node only receives while listening (asleep nodes have the radio off).
  void set_listening(std::uint32_t id, bool listening);
  [[nodiscard]] bool listening(std::uint32_t id) const {
    return listening_.at(id);
  }

  /// A failed node neither sends nor receives, permanently.
  void set_failed(std::uint32_t id);
  [[nodiscard]] bool failed(std::uint32_t id) const { return failed_.at(id); }

  /// Queues a local broadcast. Stamps msg.sender/sent_at. No-op (counted)
  /// when the sender has failed. Receivers are visited in ascending id
  /// order within one event, so a handler's set_failed/set_listening on a
  /// later receiver applies to this same broadcast, and Simulator::stop()
  /// called from a handler takes effect only after the rest of the fan-out.
  void broadcast(std::uint32_t from, Message msg);

  /// Energy hooks: tx fires once per broadcast, rx once per delivery.
  /// (With a MAC attached, tx energy is charged by the MAC instead.)
  void set_tx_hook(EnergyHook hook) { tx_hook_ = std::move(hook); }
  void set_rx_hook(EnergyHook hook) { rx_hook_ = std::move(hook); }

  /// Attaches (or detaches, with nullptr) a slotted LPL MAC. While attached,
  /// broadcast() routes through the MAC's CCA/backoff/preamble machinery and
  /// listening/failed transitions are forwarded to it; the MAC hands
  /// successful receptions back through deliver_from_mac(). reset() detaches.
  void attach_mac(SlottedLplMac* mac);
  [[nodiscard]] SlottedLplMac* mac() const noexcept { return mac_; }

  /// ALERT messages (multihop collection) bypass per-node rx handlers and go
  /// to this handler with the receiving node's id.
  using AlertHandler = std::function<void(const Message&, std::uint32_t to)>;
  void set_alert_handler(AlertHandler handler) {
    alert_handler_ = std::move(handler);
  }

  /// One independent channel-model draw for the (from, to) link, consuming
  /// the receiver's kChannel stream. Counts dropped_channel on loss. The
  /// attached MAC consults this after collision resolution.
  [[nodiscard]] bool channel_roll(std::uint32_t from, std::uint32_t to);

  /// MAC-successful reception: runs stats/rx-hook/handler dispatch for `to`.
  void deliver_from_mac(const Message& msg, std::uint32_t to);

  struct Stats {
    std::uint64_t broadcasts = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t dropped_channel = 0;
    std::uint64_t dropped_not_listening = 0;
    std::uint64_t dropped_failed = 0;
    std::uint64_t blocked_sender_failed = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Mean neighbor count — deployment density diagnostic.
  [[nodiscard]] double mean_degree() const noexcept;

 private:
  /// Everything reset() does but the neighbor lists.
  void assign(std::vector<geom::Vec2> positions, RadioConfig config,
              std::shared_ptr<Channel> channel, const sim::SeedSequence& seeds);

  /// The body of a mac-off broadcast's delivery event.
  void fan_out(const Message& msg);

  sim::Simulator& simulator_;
  std::vector<geom::Vec2> positions_;
  RadioConfig config_;
  std::shared_ptr<Channel> channel_;
  geom::DiskGraph graph_;  // every node's neighbors ascending
  std::vector<RxHandler> handlers_;
  AlertHandler alert_handler_;
  SlottedLplMac* mac_ = nullptr;
  std::vector<char> listening_;
  std::vector<char> failed_;
  std::vector<sim::Pcg32> link_rng_;  // per receiver
  sim::Pcg32 jitter_rng_;
  EnergyHook tx_hook_;
  EnergyHook rx_hook_;
  Stats stats_;
};

}  // namespace pas::net
