#include "net/mac.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "net/network.hpp"

namespace pas::net {

void MacConfig::validate() const {
  if (slot_period_s <= 0.0) {
    throw std::invalid_argument("MacConfig: slot_period_s must be > 0");
  }
  if (cca_s <= 0.0 || cca_s >= slot_period_s) {
    throw std::invalid_argument(
        "MacConfig: cca_s must be in (0, slot_period_s)");
  }
  if (backoff_unit_s <= 0.0) {
    throw std::invalid_argument("MacConfig: backoff_unit_s must be > 0");
  }
  if (max_backoff_exponent < 0 || max_backoff_exponent > 16) {
    throw std::invalid_argument(
        "MacConfig: max_backoff_exponent must be in [0, 16]");
  }
  if (max_attempts < 1) {
    throw std::invalid_argument("MacConfig: max_attempts must be >= 1");
  }
  if (ack_wait_s < 0.0 || capture_margin_s < 0.0) {
    throw std::invalid_argument(
        "MacConfig: ack_wait_s and capture_margin_s must be >= 0");
  }
}

void MacStats::add(const MacStats& other) {
  unicasts += other.unicasts;
  broadcasts += other.broadcasts;
  data_tx += other.data_tx;
  rendezvous_tx += other.rendezvous_tx;
  cca_busy += other.cca_busy;
  backoffs += other.backoffs;
  retries += other.retries;
  collisions += other.collisions;
  captures += other.captures;
  delivered += other.delivered;
  acks += other.acks;
  drops_cca += other.drops_cca;
  drops_retry += other.drops_retry;
  lpl_samples += other.lpl_samples;
  lpl_wakeups += other.lpl_wakeups;
  overhears += other.overhears;
}

SlottedLplMac::SlottedLplMac(sim::Simulator& simulator, Network& network)
    : simulator_(simulator), network_(network) {}

void SlottedLplMac::reset(const MacConfig& config,
                          const sim::SeedSequence& seeds) {
  config.validate();
  config_ = config;
  stats_ = MacStats{};
  trace_ = nullptr;
  // Hooks capture the previous world's state; a fresh MAC has none.
  deliver_ = DeliverFn{};
  cca_hook_ = CcaHook{};
  preamble_hook_ = EnergyTimeHook{};
  listen_hook_ = EnergyTimeHook{};
  tx_hook_ = EnergyBitsHook{};

  // clear() before resize(): stale timers must be destroyed in place, never
  // moved (their pending trampolines from a previous run are dead anyway —
  // the simulator was reset — but Timer's move contract is strict).
  nodes_.clear();
  nodes_.resize(network_.size());
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    NodeState& n = nodes_[i];
    // Dedicated streams: drawn only here, so a mac-off run consumes nothing
    // from them and stays byte-identical (SeedSequence domain contract).
    n.phase = seeds.stream(sim::SeedSequence::kMacSlot, i)
                  .uniform(0.0, config_.slot_period_s);
    n.backoff_rng = seeds.stream(sim::SeedSequence::kMacBackoff, i);
    n.sample_timer.bind(simulator_, [this, i] { on_sample(i); });
    n.retry_timer.bind(simulator_, [this, i] { try_send(i); });
  }
}

sim::Time just_before(sim::Time t) {
  // Positive finite doubles have consecutive bit patterns, so the one
  // below is the predecessor (+0 below denorm_min). libm handles the rest.
  if (t > 0.0 && t <= std::numeric_limits<double>::max()) {
    return std::bit_cast<sim::Time>(std::bit_cast<std::uint64_t>(t) - 1);
  }
  return std::nextafter(t, -std::numeric_limits<double>::infinity());
}

std::int64_t SlottedLplMac::first_slot_after(const NodeState& n,
                                             sim::Time t) const {
  // The slot times phase + k*per are non-decreasing in k (each rounding is
  // monotone), so the division's estimate, which can be off by one either
  // way, is settled by comparing the sample times themselves. No epsilon:
  // at long horizons one would be below the clock's ulp.
  const double estimate =
      std::floor((t - n.phase) / config_.slot_period_s) + 1.0;
  std::int64_t k = estimate > 0.0 ? static_cast<std::int64_t>(estimate) : 0;
  while (k > 0 && slot_time(n, k - 1) > t) --k;
  while (slot_time(n, k) <= t) ++k;
  return k;
}

sim::Time SlottedLplMac::next_sample_time(std::uint32_t id,
                                          sim::Time after) const {
  const NodeState& n = nodes_.at(id);
  return slot_time(n, first_slot_after(n, after));
}

void SlottedLplMac::book_idle(std::uint32_t i, sim::Time through) {
  NodeState& n = nodes_[i];
  assert(!n.sample_timer.pending() && "the armed sample is the cursor");
  const std::int64_t end = first_slot_after(n, through);
  if (end <= n.next_slot) return;
  const auto count = static_cast<std::uint64_t>(end - n.next_slot);
  n.next_slot = end;
  stats_.lpl_samples += count;
  if (cca_hook_) cca_hook_(i, config_.cca_s, count);
}

sim::Time SlottedLplMac::carrier_end(std::uint32_t i) const {
  sim::Time end = simulator_.now();
  for (const std::uint32_t j : network_.neighbors_of(i)) {
    const NodeState& t = nodes_[j];
    if (t.tx_active) end = std::max(end, t.tx_data_end);
  }
  return end;
}

void SlottedLplMac::arm_if_covered(NodeState& n, sim::Time covered_until) {
  const sim::Time t = slot_time(n, n.next_slot);
  if (t < covered_until) n.sample_timer.arm_at(t);
}

void SlottedLplMac::settle() {
  const sim::Time now = simulator_.now();
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const NodeState& n = nodes_[i];
    // run_until ran the events at its deadline, so samples at now count.
    if (n.sampling && !n.sample_timer.pending()) book_idle(i, now);
  }
}

void SlottedLplMac::stop_sampling(std::uint32_t i) {
  NodeState& n = nodes_[i];
  // A live sample at the cursor is cancelled, even one due at now; else the
  // samples slept through are booked strictly before now.
  if (!n.sample_timer.cancel()) book_idle(i, just_before(simulator_.now()));
  n.sampling = false;
}

void SlottedLplMac::on_listening_changed(std::uint32_t id, bool listening) {
  NodeState& n = nodes_.at(id);
  if (n.failed) return;
  if (listening) {
    if (n.sampling) stop_sampling(id);
  } else if (!n.sampling) {
    n.sampling = true;
    n.next_slot = first_slot_after(n, simulator_.now());
    arm_if_covered(n, carrier_end(id));
  }
}

void SlottedLplMac::on_failed(std::uint32_t id) {
  NodeState& n = nodes_.at(id);
  if (n.sampling) stop_sampling(id);
  n.failed = true;
  n.retry_timer.cancel();
  n.rx = Rx{};
  // A transmission already on air is cleaned up by its own data-end event
  // (which sees `failed` and drops the queue); otherwise drop queued frames
  // now. Either way no callbacks fire — a dead node reports nothing.
  if (!n.tx_active) n.queue.clear();
}

void SlottedLplMac::broadcast(std::uint32_t from, const Message& msg) {
  ++stats_.broadcasts;
  Frame frame;
  frame.msg = msg;
  frame.is_unicast = false;
  submit(from, std::move(frame));
}

void SlottedLplMac::unicast(std::uint32_t from, std::uint32_t to,
                            const Message& msg, SendCallback cb) {
  if (to >= nodes_.size() || from == to) {
    throw std::invalid_argument("SlottedLplMac::unicast: bad receiver");
  }
  ++stats_.unicasts;
  Frame frame;
  frame.msg = msg;
  frame.msg.sender = from;
  frame.msg.sent_at = simulator_.now();
  frame.to = to;
  frame.is_unicast = true;
  frame.cb = std::move(cb);
  submit(from, std::move(frame));
}

std::size_t SlottedLplMac::queue_depth(std::uint32_t id) const {
  return nodes_.at(id).queue.size();
}

void SlottedLplMac::submit(std::uint32_t from, Frame frame) {
  NodeState& n = nodes_.at(from);
  if (n.failed) {
    if (frame.is_unicast && frame.cb) frame.cb(false);
    return;
  }
  n.queue.push_back(std::move(frame));
  // Only kick the queue when idle: an active transmission or a pending
  // backoff/retry continues the chain from its own completion.
  if (n.queue.size() == 1 && !n.tx_active && !n.retry_timer.pending()) {
    try_send(from);
  }
}

bool SlottedLplMac::medium_busy_for(std::uint32_t i) const {
  const sim::Time now = simulator_.now();
  for (const std::uint32_t j : network_.neighbors_of(i)) {
    if (transmitting(nodes_[j], now)) return true;
  }
  return false;
}

void SlottedLplMac::backoff(std::uint32_t i, sim::Duration extra) {
  NodeState& n = nodes_[i];
  const int exponent =
      std::min(n.queue.front().attempts, config_.max_backoff_exponent);
  const auto window = static_cast<std::int64_t>(1) << exponent;
  const std::int64_t units = 1 + n.backoff_rng.uniform_int(0, window - 1);
  ++stats_.backoffs;
  n.retry_timer.arm_in(extra +
                       config_.backoff_unit_s * static_cast<double>(units));
}

void SlottedLplMac::try_send(std::uint32_t i) {
  NodeState& n = nodes_[i];
  if (n.failed || n.queue.empty()) return;
  Frame& f = n.queue.front();
  // A sleeping node pays for the CCA sample; an awake radio's listen power
  // already covers it (the EnergyMeter active-mode contract).
  if (!network_.listening(i) && cca_hook_) cca_hook_(i, config_.cca_s, 1);
  // Half-duplex: a radio locked onto a reception defers like a busy medium.
  if (n.rx.active || medium_busy_for(i)) {
    ++stats_.cca_busy;
    ++f.attempts;
    if (f.attempts >= config_.max_attempts) {
      ++stats_.drops_cca;
      finish_frame(i, false);
      return;
    }
    backoff(i, 0.0);
    return;
  }
  start_tx(i);
}

void SlottedLplMac::start_tx(std::uint32_t i) {
  NodeState& n = nodes_[i];
  Frame& f = n.queue.front();
  const sim::Time now = simulator_.now();

  // Preamble: short (one CCA) when the receiver's radio is already on;
  // stretched past the receiver's next wake slot when it sleeps — the LPL
  // rendezvous. Broadcasts always use the short preamble (they rendezvous
  // with nobody; sleeping neighbors catch them only by slot luck).
  sim::Time data_start = now + config_.cca_s;
  if (f.is_unicast) {
    const NodeState& r = nodes_[f.to];
    if (!r.failed && !network_.listening(f.to)) {
      data_start = next_sample_time(f.to, now) + config_.cca_s;
      ++stats_.rendezvous_tx;
    }
  }
  const sim::Duration on_air = static_cast<double>(f.msg.size_bits()) /
                               network_.radio_config().data_rate_bps;
  const sim::Time data_end = data_start + on_air;

  n.tx_active = true;
  n.tx_start = now;
  n.tx_data_start = data_start;
  n.tx_data_end = data_end;
  ++stats_.data_tx;
  if (preamble_hook_) preamble_hook_(i, data_start - now);
  if (tx_hook_) tx_hook_(i, f.msg.size_bits());
  trace(sim::TraceKind::kMacDataTx, i, data_end - now);

  for (const std::uint32_t to : network_.neighbors_of(i)) {
    NodeState& r = nodes_[to];
    // A sleeping neighbour's samples before now found the medium idle; the
    // one at its cursor goes live if this carrier covers it.
    if (r.sampling && !r.sample_timer.pending()) {
      book_idle(to, just_before(now));
      arm_if_covered(r, data_end);
    }
    // Carrier starting now corrupts receptions already in progress at
    // shared receivers (hidden terminals got past their sender's CCA).
    if (!r.rx.active || r.rx.sender == i) continue;
    if (now - r.rx.data_start >= config_.capture_margin_s) {
      ++stats_.captures;  // established reception survives (capture effect)
    } else if (!r.rx.corrupted) {
      r.rx.corrupted = true;
      ++stats_.collisions;
      trace(sim::TraceKind::kMacCollision, to);
    }
  }

  simulator_.schedule_at(data_start, [this, i] { on_data_start(i); });
  simulator_.schedule_at(data_end, [this, i] { on_data_end(i); });
}

void SlottedLplMac::on_data_start(std::uint32_t i) {
  NodeState& n = nodes_[i];
  if (!n.tx_active || n.failed || n.queue.empty()) return;
  const Frame& f = n.queue.front();
  const sim::Time now = simulator_.now();

  for (const std::uint32_t to : network_.neighbors_of(i)) {
    NodeState& r = nodes_[to];
    if (r.failed || transmitting(r, now)) continue;  // dead or half-duplex
    if (r.rx.active) {
      if (r.rx.sender == i) continue;  // slot sample locked onto us already
      // Our data portion interferes with their established reception; a
      // busy radio cannot additionally lock onto us.
      if (now - r.rx.data_start >= config_.capture_margin_s) {
        ++stats_.captures;
      } else if (!r.rx.corrupted) {
        r.rx.corrupted = true;
        ++stats_.collisions;
        trace(sim::TraceKind::kMacCollision, to);
      }
      continue;
    }
    if (!network_.listening(to)) continue;  // asleep: slot samples only
    Rx lock;
    lock.active = true;
    lock.sender = i;
    lock.data_start = now;
    lock.data_end = n.tx_data_end;
    // Contended at birth: another in-range carrier is already up.
    for (const std::uint32_t j : network_.neighbors_of(to)) {
      if (j != i && transmitting(nodes_[j], now)) {
        lock.corrupted = true;
        ++stats_.collisions;
        trace(sim::TraceKind::kMacCollision, to);
        break;
      }
    }
    r.rx = lock;
    (void)f;
  }
}

void SlottedLplMac::on_data_end(std::uint32_t i) {
  NodeState& n = nodes_[i];
  if (!n.tx_active) return;
  n.tx_active = false;
  if (n.queue.empty()) return;
  Frame& f = n.queue.front();

  if (n.failed) {
    // Died mid-air: strand nothing — clear every lock held on this carrier.
    for (const std::uint32_t to : network_.neighbors_of(i)) {
      NodeState& r = nodes_[to];
      if (r.rx.active && r.rx.sender == i) r.rx = Rx{};
    }
    n.queue.clear();
    return;
  }

  if (f.is_unicast) {
    NodeState& r = nodes_[f.to];
    const bool locked = r.rx.active && r.rx.sender == i;
    const bool mac_ok = locked && !r.rx.corrupted && !r.failed;
    // The carrier is down: release every lock it held — overhearing
    // neighbors included, or they would stay "busy receiving" forever.
    for (const std::uint32_t to : network_.neighbors_of(i)) {
      NodeState& nb = nodes_[to];
      if (nb.rx.active && nb.rx.sender == i) nb.rx = Rx{};
    }
    // Collision resolution first, then the link's fading/loss model — two
    // independent ways to lose the frame, both ending in a missing ACK.
    const bool ok = mac_ok && network_.channel_roll(i, f.to);
    if (ok) {
      ++stats_.delivered;
      ++stats_.acks;
      deliver_(f.msg, f.to);
      finish_frame(i, true);
      return;
    }
    ++f.attempts;
    if (f.attempts >= config_.max_attempts) {
      ++stats_.drops_retry;
      finish_frame(i, false);
      return;
    }
    ++stats_.retries;
    backoff(i, config_.ack_wait_s);
    return;
  }

  for (const std::uint32_t to : network_.neighbors_of(i)) {
    NodeState& r = nodes_[to];
    if (!r.rx.active || r.rx.sender != i) continue;
    const bool ok = !r.rx.corrupted && !r.failed;
    r.rx = Rx{};
    if (ok && network_.channel_roll(i, to)) {
      ++stats_.delivered;
      deliver_(f.msg, to);
    }
  }
  finish_frame(i, true);
}

void SlottedLplMac::finish_frame(std::uint32_t i, bool delivered) {
  NodeState& n = nodes_[i];
  Frame done = std::move(n.queue.front());
  n.queue.pop_front();
  if (done.is_unicast && done.cb) done.cb(delivered);
  // The callback may have submitted (and started) a new frame; only kick
  // the queue when it is still idle.
  if (!n.queue.empty() && !n.failed && !n.tx_active &&
      !n.retry_timer.pending()) {
    try_send(i);
  }
}

void SlottedLplMac::on_sample(std::uint32_t i) {
  NodeState& n = nodes_[i];
  if (n.failed || !n.sampling) return;
  const sim::Time now = simulator_.now();
  assert(slot_time(n, n.next_slot) == now && "a live sample is the cursor");
  ++stats_.lpl_samples;
  if (cca_hook_) cca_hook_(i, config_.cca_s, 1);

  // Scan the neighborhood: a decodable preamble (unicast addressed here, or
  // a broadcast) locks the radio until its data ends; anything else busy is
  // overheard — energy spent holding the radio up with nothing to show.
  sim::Time busy_until = now;
  std::uint32_t decodable = nodes_.size();  // sentinel: none
  for (const std::uint32_t j : network_.neighbors_of(i)) {
    const NodeState& t = nodes_[j];
    if (!transmitting(t, now)) continue;
    busy_until = std::max(busy_until, t.tx_data_end);
    if (now < t.tx_data_start && !t.queue.empty()) {
      const Frame& f = t.queue.front();
      if (!f.is_unicast || f.to == i) decodable = j;
    }
  }

  // The radio sleeps again until `resume`; the next sample after it goes
  // live only if a carrier still covers it (busy_until is the latest end).
  sim::Time resume = now;
  if (n.rx.active || n.tx_active) {
    // Busy with our own radio work (forwarding while asleep): no lock.
  } else if (decodable < nodes_.size()) {
    const NodeState& t = nodes_[decodable];
    ++stats_.lpl_wakeups;
    Rx lock;
    lock.active = true;
    lock.sender = decodable;
    lock.data_start = t.tx_data_start;
    lock.data_end = t.tx_data_end;
    for (const std::uint32_t j : network_.neighbors_of(i)) {
      if (j != decodable && transmitting(nodes_[j], now)) {
        lock.corrupted = true;
        ++stats_.collisions;
        trace(sim::TraceKind::kMacCollision, i);
        break;
      }
    }
    n.rx = lock;
    if (listen_hook_) listen_hook_(i, t.tx_data_end - now);
    resume = t.tx_data_end;
  } else if (busy_until > now) {
    ++stats_.overhears;
    if (listen_hook_) listen_hook_(i, busy_until - now);
    resume = busy_until;
  }
  n.next_slot = first_slot_after(n, resume);
  arm_if_covered(n, busy_until);
}

void SlottedLplMac::trace(sim::TraceKind kind, std::uint32_t node, double x) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  sim::TraceEvent e;
  e.time = simulator_.now();
  e.category = sim::TraceCategory::kNet;
  e.kind = kind;
  e.node = node;
  e.x = x;
  trace_->record(e);
}

}  // namespace pas::net
