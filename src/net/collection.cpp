#include "net/collection.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>

#include "net/network.hpp"

namespace pas::net {

SinkPlacement sink_placement_from_string(std::string_view s) {
  if (s == "center") return SinkPlacement::kCenter;
  if (s == "corner") return SinkPlacement::kCorner;
  if (s == "edge") return SinkPlacement::kEdge;
  throw std::invalid_argument("unknown sink_placement: " + std::string(s));
}

void CollectionConfig::validate() const {
  if (max_hops == 0) {
    throw std::invalid_argument("CollectionConfig: max_hops must be >= 1");
  }
  if (node_queue_limit == 0) {
    throw std::invalid_argument(
        "CollectionConfig: node_queue_limit must be >= 1");
  }
}

void CollectionStats::add(const CollectionStats& other) {
  originated += other.originated;
  forwarded += other.forwarded;
  delivered += other.delivered;
  delivered_predicted += other.delivered_predicted;
  dropped_ttl += other.dropped_ttl;
  dropped_queue += other.dropped_queue;
  sum_delay_s += other.sum_delay_s;
  sum_hops += other.sum_hops;
}

Collection::Collection(sim::Simulator& simulator, Network& network,
                       SlottedLplMac& mac)
    : simulator_(simulator), network_(network), mac_(mac) {}

void Collection::reset(const CollectionConfig& config,
                       bool relay_through_sleeping, const geom::Aabb& region,
                       sim::TraceLog* trace) {
  config.validate();
  config_ = config;
  relay_through_sleeping_ = relay_through_sleeping;
  trace_ = trace;
  stats_ = CollectionStats{};
  in_flight_.clear();
  records_.clear();
  next_id_ = 0;
  build_tree(region);
  network_.set_alert_handler(
      [this](const Message& msg, std::uint32_t to) { on_receive(msg, to); });
}

void Collection::build_tree(const geom::Aabb& region) {
  const std::size_t n = network_.size();
  geom::Vec2 target = region.center();
  switch (config_.sink_placement) {
    case SinkPlacement::kCenter: break;
    case SinkPlacement::kCorner: target = region.lo; break;
    case SinkPlacement::kEdge:
      target = {(region.lo.x + region.hi.x) * 0.5, region.lo.y};
      break;
  }
  sink_ = 0;
  double best = geom::distance2(network_.position(0), target);
  for (std::uint32_t i = 1; i < n; ++i) {
    const double d = geom::distance2(network_.position(i), target);
    if (d < best) {
      best = d;
      sink_ = i;
    }
  }

  depth_.assign(n, kNoDepth);
  parent_.assign(n, kNoDepth);
  backbone_.assign(n, 0);
  depth_[sink_] = 0;
  std::deque<std::uint32_t> frontier{sink_};
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop_front();
    for (const std::uint32_t v : network_.neighbors_of(u)) {
      if (depth_[v] != kNoDepth) continue;
      depth_[v] = depth_[u] + 1;
      parent_[v] = u;
      frontier.push_back(v);
    }
  }

  uphill_.assign(n, {});
  for (std::uint32_t i = 0; i < n; ++i) {
    if (depth_[i] == kNoDepth) continue;
    auto& up = uphill_[i];
    for (const std::uint32_t j : network_.neighbors_of(i)) {
      if (depth_[j] != kNoDepth && depth_[j] < depth_[i]) up.push_back(j);
    }
    // Neighbor lists are ascending by id, so a stable sort on depth yields
    // the deterministic (depth, id) order the routing contract promises.
    std::stable_sort(up.begin(), up.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return depth_[a] < depth_[b];
                     });
  }

  backbone_[sink_] = 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (parent_[i] != kNoDepth) backbone_[parent_[i]] = 1;
  }
}

std::size_t Collection::unreachable_count() const noexcept {
  std::size_t count = 0;
  for (const std::uint32_t d : depth_) {
    if (d == kNoDepth) ++count;
  }
  return count;
}

bool Collection::reachable(std::uint32_t id) const {
  if (network_.failed(id)) return false;
  if (network_.listening(id)) return true;
  return relay_through_sleeping_ && backbone_[id] != 0;
}

void Collection::originate(std::uint32_t node, sim::Time detected_at,
                           sim::Time predicted_arrival) {
  const std::uint32_t id = next_id_++;
  ++stats_.originated;
  trace(sim::TraceKind::kAlertOriginated, node);
  InFlight alert;
  alert.origin = node;
  alert.detected_at = detected_at;
  alert.predicted_arrival = predicted_arrival;
  alert.holder = node;
  alert.path.push_back(node);
  if (node == sink_) {
    complete(id, alert, /*delivered=*/true);
    return;
  }
  auto [it, inserted] = in_flight_.emplace(id, std::move(alert));
  (void)inserted;
  forward(it->first);
}

void Collection::forward(std::uint32_t alert_id) {
  auto it = in_flight_.find(alert_id);
  if (it == in_flight_.end()) return;
  InFlight& alert = it->second;
  const std::uint32_t holder = alert.holder;

  if (mac_.queue_depth(holder) >= config_.node_queue_limit) {
    ++stats_.dropped_queue;
    in_flight_.erase(it);
    return;
  }

  const auto& candidates = uphill_.at(holder);
  while (alert.next_candidate < candidates.size()) {
    const std::uint32_t next = candidates[alert.next_candidate++];
    if (!reachable(next)) continue;
    Message msg;
    AlertPayload& payload = msg.payload.emplace<AlertPayload>();
    payload.id = alert_id;
    payload.origin = alert.origin;
    payload.hops = alert.hops;
    payload.detected_at = alert.detected_at;
    payload.predicted_arrival = alert.predicted_arrival;
    mac_.unicast(holder, next, msg,
                 [this, alert_id, holder](bool delivered) {
                   on_send_result(alert_id, holder, delivered);
                 });
    return;
  }

  // Sleep-Route fallback: no uphill neighbor is awake or backbone, so the
  // backbone answers with the predicted arrival instead of the measurement.
  InFlight finished = std::move(alert);
  in_flight_.erase(it);
  complete(alert_id, finished, /*delivered=*/false);
}

void Collection::on_send_result(std::uint32_t alert_id, std::uint32_t from,
                                bool delivered) {
  if (delivered) return;  // receipt already advanced the alert via on_receive
  auto it = in_flight_.find(alert_id);
  if (it == in_flight_.end() || it->second.holder != from) return;
  forward(alert_id);  // MAC gave up on that hop: try the next candidate
}

void Collection::on_receive(const Message& msg, std::uint32_t at_node) {
  const AlertPayload& payload = msg.alert();
  auto it = in_flight_.find(payload.id);
  if (it == in_flight_.end()) return;
  InFlight& alert = it->second;
  ++stats_.forwarded;
  alert.hops = static_cast<std::uint32_t>(payload.hops) + 1;
  alert.holder = at_node;
  alert.next_candidate = 0;
  alert.path.push_back(at_node);
  trace(sim::TraceKind::kAlertForwarded, at_node,
        static_cast<double>(alert.hops));
  if (at_node == sink_) {
    InFlight finished = std::move(alert);
    in_flight_.erase(it);
    complete(payload.id, finished, /*delivered=*/true);
    return;
  }
  if (alert.hops >= config_.max_hops) {
    ++stats_.dropped_ttl;
    in_flight_.erase(it);
    return;
  }
  forward(payload.id);
}

void Collection::complete(std::uint32_t alert_id, InFlight& alert,
                          bool delivered) {
  const sim::Time now = simulator_.now();
  if (delivered) {
    ++stats_.delivered;
    stats_.sum_delay_s += now - alert.detected_at;
    stats_.sum_hops += alert.hops;
    trace(sim::TraceKind::kAlertDelivered, alert.holder,
          now - alert.detected_at);
  } else {
    ++stats_.delivered_predicted;
    trace(sim::TraceKind::kAlertPredicted, alert.holder,
          alert.predicted_arrival);
  }
  DeliveryRecord record;
  record.alert_id = alert_id;
  record.origin = alert.origin;
  record.delivered = delivered;
  record.hops = alert.hops;
  record.detected_at = alert.detected_at;
  record.completed_at = now;
  record.predicted_arrival = alert.predicted_arrival;
  record.path = std::move(alert.path);
  records_.push_back(std::move(record));
}

void Collection::trace(sim::TraceKind kind, std::uint32_t node, double x) {
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
