#include "net/network.hpp"

#include <stdexcept>
#include <type_traits>

#include "net/mac.hpp"

namespace pas::net {

Network::Network(sim::Simulator& simulator, std::vector<geom::Vec2> positions,
                 RadioConfig config, std::shared_ptr<Channel> channel,
                 const sim::SeedSequence& seeds)
    : simulator_(simulator) {
  reset(std::move(positions), config, std::move(channel), seeds);
}

void Network::reset(std::vector<geom::Vec2> positions, RadioConfig config,
                    std::shared_ptr<Channel> channel,
                    const sim::SeedSequence& seeds) {
  assign(std::move(positions), config, std::move(channel), seeds);
  // Precompute the neighbor lists once; nodes are static for a run. The
  // graph keeps its storage across resets.
  graph_.build(positions_, config_.range_m);
  graph_.sort_neighbors();
}

void Network::reset(std::vector<geom::Vec2> positions, RadioConfig config,
                    std::shared_ptr<Channel> channel,
                    const sim::SeedSequence& seeds, geom::DiskGraph& graph) {
  if (graph.size() != positions.size()) {
    throw std::invalid_argument("Network: disk graph size must match");
  }
  assign(std::move(positions), config, std::move(channel), seeds);
  graph_.swap(graph);
  graph_.sort_neighbors();
}

void Network::assign(std::vector<geom::Vec2> positions, RadioConfig config,
                     std::shared_ptr<Channel> channel,
                     const sim::SeedSequence& seeds) {
  if (positions.empty()) {
    throw std::invalid_argument("Network: need at least one node");
  }
  if (config.range_m <= 0.0 || config.data_rate_bps <= 0.0) {
    throw std::invalid_argument("Network: range and data rate must be > 0");
  }
  if (!channel) {
    throw std::invalid_argument("Network: channel must not be null");
  }
  positions_ = std::move(positions);
  config_ = config;
  channel_ = std::move(channel);
  jitter_rng_ = seeds.stream(sim::SeedSequence::kMacJitter);
  stats_ = Stats{};
  // Hooks capture the previous world's state; a fresh Network has none.
  tx_hook_ = EnergyHook{};
  rx_hook_ = EnergyHook{};
  alert_handler_ = AlertHandler{};
  mac_ = nullptr;

  handlers_.clear();
  handlers_.resize(positions_.size());
  listening_.assign(positions_.size(), 1);
  failed_.assign(positions_.size(), 0);
  link_rng_.clear();
  link_rng_.reserve(positions_.size());
  for (std::uint32_t i = 0; i < positions_.size(); ++i) {
    link_rng_.push_back(seeds.stream(sim::SeedSequence::kChannel, i));
  }
}

void Network::set_rx_handler(std::uint32_t id, RxHandler handler) {
  handlers_.at(id) = std::move(handler);
}

void Network::set_listening(std::uint32_t id, bool listening) {
  listening_.at(id) = listening ? 1 : 0;
  if (mac_ != nullptr) mac_->on_listening_changed(id, listening);
}

void Network::set_failed(std::uint32_t id) {
  failed_.at(id) = 1;
  listening_.at(id) = 0;
  if (mac_ != nullptr) mac_->on_failed(id);
}

void Network::attach_mac(SlottedLplMac* mac) {
  mac_ = mac;
  if (mac_ != nullptr) {
    mac_->set_deliver([this](const Message& msg, std::uint32_t to) {
      deliver_from_mac(msg, to);
    });
  }
}

bool Network::channel_roll(std::uint32_t from, std::uint32_t to) {
  if (channel_->deliver(from, to, link_rng_.at(to))) return true;
  ++stats_.dropped_channel;
  return false;
}

void Network::deliver_from_mac(const Message& msg, std::uint32_t to) {
  ++stats_.deliveries;
  if (rx_hook_) rx_hook_(to, msg.size_bits());
  if (msg.type() == MessageType::kAlert) {
    if (alert_handler_) alert_handler_(msg, to);
    return;
  }
  if (handlers_.at(to)) handlers_[to](msg);
}

void Network::broadcast(std::uint32_t from, Message msg) {
  if (from >= positions_.size()) {
    throw std::out_of_range("Network::broadcast: unknown sender");
  }
  if (failed_[from] != 0) {
    ++stats_.blocked_sender_failed;
    return;
  }
  msg.sender = from;
  msg.sent_at = simulator_.now();
  ++stats_.broadcasts;
  if (mac_ != nullptr) {
    // The MAC owns the medium: CCA, backoff, preamble and collision
    // resolution replace the jitter model, and it charges tx energy through
    // its own hook (tx_hook_ here stays silent to avoid double billing).
    mac_->broadcast(from, msg);
    return;
  }
  if (tx_hook_) tx_hook_(from, msg.size_bits());

  const sim::Duration backoff = jitter_rng_.uniform(0.0, config_.max_jitter_s);
  const sim::Duration on_air =
      static_cast<double>(msg.size_bits()) / config_.data_rate_bps;
  const sim::Duration delay = backoff + on_air + config_.propagation_s;

  auto deliver = [this, msg] { fan_out(msg); };
  static_assert(sizeof(deliver) <= sim::SmallFn::kInlineBytes &&
                    std::is_trivially_copyable_v<decltype(deliver)>,
                "the delivery closure must stay inline in the event slab and "
                "relocate as raw bytes; shrink net::Message if this fails");
  simulator_.schedule_in(delay, std::move(deliver));
}

void Network::fan_out(const Message& msg) {
  for (const std::uint32_t to : graph_.neighbors(msg.sender)) {
    if (failed_[to] != 0) {
      ++stats_.dropped_failed;
      continue;
    }
    if (listening_[to] == 0) {
      ++stats_.dropped_not_listening;
      continue;
    }
    if (!channel_->deliver(msg.sender, to, link_rng_[to])) {
      ++stats_.dropped_channel;
      continue;
    }
    ++stats_.deliveries;
    if (rx_hook_) rx_hook_(to, msg.size_bits());
    if (handlers_[to]) handlers_[to](msg);
  }
}

double Network::mean_degree() const noexcept {
  if (graph_.size() == 0) return 0.0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    total += graph_.neighbors(i).size();
  }
  return static_cast<double>(total) / static_cast<double>(graph_.size());
}

}  // namespace pas::net
