// Slotted low-power-listening MAC.
//
// The default Network path models delivery as jitter + time-on-air + a
// channel coin flip — fine for the paper's single-hop exchanges, wrong for
// multihop energy accounting, where what duty-cycled radios actually pay is
// rendezvous, contention, and collisions. SlottedLplMac models that cost:
//
//   * every node owns a wake-slot phase in [0, slot_period): while
//     protocol-asleep it wakes each slot for one clear-channel assessment
//     (CCA) sample and goes back down unless it detects a preamble;
//   * a sender performs CCA before transmitting and retreats into binary
//     exponential backoff while the medium is busy;
//   * a unicast to a sleeping receiver pays the rendezvous cost: the
//     preamble stretches until the receiver's next wake slot (LPL), so
//     sleeping nodes stay reachable without synchronized schedules;
//   * concurrent transmissions overlapping at a receiver collide; the
//     earlier one survives (capture) only when it led by at least
//     capture_margin_s — hidden terminals collide despite CCA;
//   * unicasts are acknowledged and retried; broadcasts are best-effort
//     short-preamble sends that reach only radios already listening.
//
// Sampling is lazy. A slot sample that finds the medium idle only counts
// and pays one CCA, so a sleeping node keeps a cursor at its next sample
// and the kernel sees a sample event only when a neighbour's carrier
// covers it. The idle samples in between are booked in closed form from
// the slot index (lpl_samples plus one bulk CCA charge, which
// energy::EnergyMeter keeps as a count and sums in closed form, bit for bit
// the charges added one at a time) when the node wakes or fails, when a
// neighbour starts a carrier, and at settle(), which the owner calls once
// the run has reached its horizon. Counters and energy are identical to
// sampling every slot.
//
// Every energy consequence (CCA samples, preamble, idle-listen extension,
// data TX) is reported through hooks charged to energy::EnergyMeter line
// items; the MAC itself holds no meters. Determinism: slot phases and
// backoff draws come from dedicated SeedSequence domains (kMacSlot,
// kMacBackoff) consumed only when the MAC is enabled, so a mac-off run
// never observes a different RNG stream — the golden-seed byte-identity
// contract (docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/message.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "sim/trace.hpp"

namespace pas::net {

class Network;

struct MacConfig {
  /// Master switch. Off: Network keeps its single-hop jitter model and no
  /// MAC state (or RNG stream) exists — byte-identical to pre-MAC builds.
  bool enabled = false;
  /// LPL wake-slot period: a sleeping node samples the channel once per
  /// period. Bounds the rendezvous preamble (and so the worst-case unicast
  /// latency and preamble energy per hop).
  sim::Duration slot_period_s = 0.1;
  /// One clear-channel assessment sample (also the short-preamble length).
  sim::Duration cca_s = 2e-3;
  /// Binary exponential backoff unit: attempt k waits
  /// backoff_unit_s × uniform{1 … 2^min(k, max_backoff_exponent)}.
  sim::Duration backoff_unit_s = 1e-3;
  int max_backoff_exponent = 5;
  /// CCA-busy rounds or unacknowledged data attempts before a frame is
  /// dropped (unicasts report failure to the caller).
  int max_attempts = 5;
  /// ACK turnaround waited out before a retry's CCA.
  sim::Duration ack_wait_s = 2e-3;
  /// A reception survives an interferer only when its data portion started
  /// at least this much earlier (capture effect without a power model).
  sim::Duration capture_margin_s = 1e-3;

  /// Throws std::invalid_argument on non-positive durations or attempts.
  void validate() const;

  bool operator==(const MacConfig&) const noexcept = default;
};

struct MacStats {
  std::uint64_t unicasts = 0;       // unicast frames submitted
  std::uint64_t broadcasts = 0;     // broadcast frames submitted
  std::uint64_t data_tx = 0;        // data frames put on air
  std::uint64_t rendezvous_tx = 0;  // of which used a long (LPL) preamble
  std::uint64_t cca_busy = 0;       // sender CCA rounds that found traffic
  std::uint64_t backoffs = 0;       // backoff waits (CCA-busy or retry)
  std::uint64_t retries = 0;        // unacknowledged data attempts retried
  std::uint64_t collisions = 0;     // receptions corrupted by interference
  std::uint64_t captures = 0;       // receptions that survived interference
  std::uint64_t delivered = 0;      // frames handed up to the Network layer
  std::uint64_t acks = 0;           // unicast acknowledgements
  std::uint64_t drops_cca = 0;      // frames abandoned: channel never clear
  std::uint64_t drops_retry = 0;    // unicasts abandoned after max_attempts
  std::uint64_t lpl_samples = 0;    // sleeping-node channel samples
  std::uint64_t lpl_wakeups = 0;    // samples that locked onto a preamble
  std::uint64_t overhears = 0;      // samples that found undecodable traffic

  /// Accumulates `other` into this (campaign/replication roll-ups).
  void add(const MacStats& other);

  bool operator==(const MacStats&) const noexcept = default;
};

/// The slotted LPL MAC for one Network. Owned by world::Workspace and
/// attached to the Network (Network::attach_mac) only when enabled; the
/// Network then routes broadcast() through it and forwards listening/failed
/// transitions. All referenced objects must outlive the Mac.
class SlottedLplMac {
 public:
  /// Successful reception: hand `msg` up for receiver `to`. The Network
  /// installs this to run its channel/stats/handler path.
  using DeliverFn = std::function<void(const Message& msg, std::uint32_t to)>;
  /// Unicast outcome: true when the frame was delivered and acknowledged.
  using SendCallback = std::function<void(bool delivered)>;
  /// Time-priced energy hooks (seconds of preamble / idle listen).
  using EnergyTimeHook =
      std::function<void(std::uint32_t node, sim::Duration seconds)>;
  /// `count` clear-channel assessments of `seconds` each (idle slot samples
  /// arrive in bulk).
  using CcaHook = std::function<void(std::uint32_t node, sim::Duration seconds,
                                     std::uint64_t count)>;
  /// Data transmission hook (bits on air).
  using EnergyBitsHook =
      std::function<void(std::uint32_t node, std::size_t bits)>;

  SlottedLplMac(sim::Simulator& simulator, Network& network);

  /// Rebuilds MAC state for a new run: draws per-node slot phases and
  /// backoff streams, clears queues and medium state. Call after
  /// Network::reset (the node count and neighbor lists come from there).
  void reset(const MacConfig& config, const sim::SeedSequence& seeds);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_cca_hook(CcaHook h) { cca_hook_ = std::move(h); }
  void set_preamble_hook(EnergyTimeHook h) { preamble_hook_ = std::move(h); }
  void set_listen_hook(EnergyTimeHook h) { listen_hook_ = std::move(h); }
  void set_tx_hook(EnergyBitsHook h) { tx_hook_ = std::move(h); }
  void set_trace(sim::TraceLog* trace) { trace_ = trace; }

  /// Network notifications (radio on/off follows the protocol sleep state).
  void on_listening_changed(std::uint32_t id, bool listening);
  void on_failed(std::uint32_t id);

  /// Queues a best-effort broadcast (short preamble: reaches listening
  /// radios, plus any sleeping neighbor whose slot sample caught it).
  void broadcast(std::uint32_t from, const Message& msg);

  /// Queues an acknowledged unicast. `cb` (may be empty) fires exactly once
  /// with the outcome after delivery or after the frame is dropped.
  void unicast(std::uint32_t from, std::uint32_t to, const Message& msg,
               SendCallback cb);

  /// Books every sleeping node's idle samples up to and including now().
  /// Call once the simulator has run to its horizon and before reading
  /// stats() or the CCA energy; samples past now() stay unbooked.
  void settle();

  /// Outbound frames queued or in flight at `id` (collection backpressure).
  [[nodiscard]] std::size_t queue_depth(std::uint32_t id) const;

  /// The node's first slot-sample time strictly after `after` — also the
  /// rendezvous point a sender's preamble must cover.
  [[nodiscard]] sim::Time next_sample_time(std::uint32_t id,
                                           sim::Time after) const;
  /// The node's first slot sample neither taken nor booked yet.
  [[nodiscard]] sim::Time sample_cursor(std::uint32_t id) const {
    const NodeState& n = nodes_.at(id);
    return slot_time(n, n.next_slot);
  }
  [[nodiscard]] sim::Duration slot_phase(std::uint32_t id) const {
    return nodes_.at(id).phase;
  }

  [[nodiscard]] const MacStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const MacConfig& config() const noexcept { return config_; }

 private:
  struct Frame {
    Message msg;
    std::uint32_t to = 0;
    bool is_unicast = false;
    int attempts = 0;
    SendCallback cb;
  };
  /// An in-progress reception lock: set when the receiver's radio catches a
  /// preamble (awake at data start, or a slot sample during the preamble).
  struct Rx {
    bool active = false;
    std::uint32_t sender = 0;
    sim::Time data_start = 0.0;
    sim::Time data_end = 0.0;
    bool corrupted = false;
  };
  struct NodeState {
    sim::Duration phase = 0.0;
    sim::Pcg32 backoff_rng;
    bool sampling = false;  // protocol asleep: slot samples are due
    bool failed = false;
    // Cursor: slot index of the first sample neither taken nor booked.
    std::int64_t next_slot = 0;
    // Current transmission (valid while tx_active).
    bool tx_active = false;
    sim::Time tx_start = 0.0;
    sim::Time tx_data_start = 0.0;
    sim::Time tx_data_end = 0.0;
    Rx rx;
    std::deque<Frame> queue;
    // Armed at the cursor, and only while a neighbour's carrier covers it.
    sim::Timer sample_timer;
    sim::Timer retry_timer;
  };

  void submit(std::uint32_t from, Frame frame);
  void try_send(std::uint32_t i);
  void start_tx(std::uint32_t i);
  void on_data_start(std::uint32_t i);
  void on_data_end(std::uint32_t i);
  void on_sample(std::uint32_t i);
  void stop_sampling(std::uint32_t i);
  void book_idle(std::uint32_t i, sim::Time through);
  void arm_if_covered(NodeState& n, sim::Time covered_until);
  [[nodiscard]] sim::Time carrier_end(std::uint32_t i) const;
  [[nodiscard]] std::int64_t first_slot_after(const NodeState& n,
                                              sim::Time t) const;
  [[nodiscard]] sim::Time slot_time(const NodeState& n,
                                    std::int64_t k) const noexcept {
    return n.phase + static_cast<double>(k) * config_.slot_period_s;
  }
  void finish_frame(std::uint32_t i, bool delivered);
  void backoff(std::uint32_t i, sim::Duration extra);
  [[nodiscard]] bool medium_busy_for(std::uint32_t i) const;
  [[nodiscard]] bool transmitting(const NodeState& n,
                                  sim::Time now) const noexcept {
    return n.tx_active && now < n.tx_data_end;
  }
  void trace(sim::TraceKind kind, std::uint32_t node, double x = 0.0);

  sim::Simulator& simulator_;
  Network& network_;
  MacConfig config_{};
  std::vector<NodeState> nodes_;
  DeliverFn deliver_;
  CcaHook cca_hook_;
  EnergyTimeHook preamble_hook_;
  EnergyTimeHook listen_hook_;
  EnergyBitsHook tx_hook_;
  sim::TraceLog* trace_ = nullptr;
  MacStats stats_;
};

/// The largest time strictly before `t` (std::nextafter toward −∞, one
/// bit pattern down for a positive finite `t`): booking "through
/// just_before(t)" books the samples strictly before t.
[[nodiscard]] sim::Time just_before(sim::Time t);

}  // namespace pas::net
