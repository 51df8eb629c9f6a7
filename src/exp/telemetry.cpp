#include "exp/telemetry.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"

namespace pas::exp {

namespace {

io::Json kernel_json(const metrics::KernelStats& k) {
  io::JsonObject out;
  out["events_scheduled"] = k.events_scheduled;
  out["events_dispatched"] = k.events_dispatched;
  out["events_cancelled"] = k.events_cancelled;
  out["max_pending"] = k.max_pending;
  out["timer_reschedules"] = k.timer_reschedules;
  out["rung_spawns"] = k.rung_spawns;
  out["bucket_resizes"] = k.bucket_resizes;
  out["max_bucket"] = k.max_bucket;
  out["dead_skips"] = k.dead_skips;
  return io::Json(std::move(out));
}

io::Json protocol_json(const core::ProtocolStats& p) {
  io::JsonObject out;
  out["wakeups"] = p.wakeups;
  out["requests_sent"] = p.requests_sent;
  out["responses_sent"] = p.responses_sent;
  out["responses_pushed"] = p.responses_pushed;
  out["pushes_suppressed"] = p.pushes_suppressed;
  out["messages_received"] = p.messages_received;
  out["alert_entries"] = p.alert_entries;
  out["alert_exits"] = p.alert_exits;
  out["covered_entries"] = p.covered_entries;
  out["covered_timeouts"] = p.covered_timeouts;
  out["failures"] = p.failures;
  out["prediction_hits"] = p.prediction_hits;
  out["prediction_misses"] = p.prediction_misses;
  out["sleep_s"] = obs::histogram_json(p.sleep_s);
  return io::Json(std::move(out));
}

io::Json net_json(const net::MacStats& mac, const net::CollectionStats& c) {
  io::JsonObject m;
  m["unicasts"] = mac.unicasts;
  m["broadcasts"] = mac.broadcasts;
  m["data_tx"] = mac.data_tx;
  m["rendezvous_tx"] = mac.rendezvous_tx;
  m["cca_busy"] = mac.cca_busy;
  m["backoffs"] = mac.backoffs;
  m["retries"] = mac.retries;
  m["collisions"] = mac.collisions;
  m["captures"] = mac.captures;
  m["delivered"] = mac.delivered;
  m["acks"] = mac.acks;
  m["drops_cca"] = mac.drops_cca;
  m["drops_retry"] = mac.drops_retry;
  m["lpl_samples"] = mac.lpl_samples;
  m["lpl_wakeups"] = mac.lpl_wakeups;
  m["overhears"] = mac.overhears;
  io::JsonObject coll;
  coll["originated"] = c.originated;
  coll["forwarded"] = c.forwarded;
  coll["delivered"] = c.delivered;
  coll["delivered_predicted"] = c.delivered_predicted;
  coll["dropped_ttl"] = c.dropped_ttl;
  coll["dropped_queue"] = c.dropped_queue;
  coll["sum_delay_s"] = c.sum_delay_s;
  coll["sum_hops"] = c.sum_hops;
  io::JsonObject out;
  out["mac"] = io::Json(std::move(m));
  out["collection"] = io::Json(std::move(coll));
  return io::Json(std::move(out));
}

}  // namespace

io::Json telemetry_point_row(const GridPoint& point,
                             const std::vector<std::string>& axis_names,
                             const world::ReplicatedMetrics& m) {
  world::RunTelemetry telemetry;
  for (const auto& run : m.runs) telemetry.add(run);

  io::JsonObject row;
  row["kind"] = "point";
  row["point"] = point.index;
  // Seeds use all 64 bits; io::Json numbers are doubles, so emit a string.
  row["seed"] = std::to_string(point.seed);
  row["replications"] = telemetry.runs;
  row["policy"] = std::string(core::to_string(point.config.protocol.policy));
  io::JsonObject axes;
  for (std::size_t a = 0;
       a < axis_names.size() && a < point.values.size(); ++a) {
    axes[axis_names[a]] = point.values[a];
  }
  row["axes"] = std::move(axes);
  row["kernel"] = kernel_json(telemetry.kernel);
  row["protocol"] = protocol_json(telemetry.protocol);
  // The "net" section exists only for MAC-enabled points: mac-off rows stay
  // byte-identical to pre-MAC builds (the JSONL schema marks it optional).
  if (point.config.mac.enabled) {
    row["net"] = net_json(telemetry.mac, telemetry.collection);
  }
  return io::Json(std::move(row));
}

CampaignTelemetry::CampaignTelemetry(const std::vector<GridPoint>& points) {
  for (const auto& point : points) {
    policies_.try_emplace(point.config.protocol.policy);
    mac_ = mac_ || point.config.mac.enabled;
  }
}

void CampaignTelemetry::add(const GridPoint& point,
                            const world::ReplicatedMetrics& m) {
  const std::lock_guard lock(mutex_);
  core::ProtocolStats& protocol = policies_.at(point.config.protocol.policy);
  for (const auto& run : m.runs) {
    total_.add(run);
    protocol.add(run.protocol);
  }
  ++points_;
}

io::Json CampaignTelemetry::snapshot() const {
  const std::lock_guard lock(mutex_);
  io::JsonObject in;
  in["campaign.points_completed"] = points_;
  const metrics::KernelStats& k = total_.kernel;
  in["kernel.events_scheduled"] = k.events_scheduled;
  in["kernel.events_dispatched"] = k.events_dispatched;
  in["kernel.events_cancelled"] = k.events_cancelled;
  in["kernel.max_pending"] = k.max_pending;
  in["kernel.timer_reschedules"] = k.timer_reschedules;
  in["kernel.rung_spawns"] = k.rung_spawns;
  in["kernel.bucket_resizes"] = k.bucket_resizes;
  in["kernel.max_bucket"] = k.max_bucket;
  in["kernel.dead_skips"] = k.dead_skips;
  for (const auto& [policy, p] : policies_) {
    const std::string prefix =
        "policy." + std::string(core::to_string(policy)) + ".";
    in[prefix + "wakeups"] = p.wakeups;
    in[prefix + "requests_sent"] = p.requests_sent;
    in[prefix + "responses_sent"] = p.responses_sent;
    in[prefix + "responses_pushed"] = p.responses_pushed;
    in[prefix + "pushes_suppressed"] = p.pushes_suppressed;
    in[prefix + "prediction_hits"] = p.prediction_hits;
    in[prefix + "prediction_misses"] = p.prediction_misses;
    in[prefix + "sleep_s"] = obs::histogram_json(p.sleep_s);
  }
  // Mac-off runs report zero MAC and collection stats, so the totals are
  // the MAC points' sums.
  if (mac_) {
    const net::MacStats& mac = total_.mac;
    in["net.mac.data_tx"] = mac.data_tx;
    in["net.mac.rendezvous_tx"] = mac.rendezvous_tx;
    in["net.mac.cca_busy"] = mac.cca_busy;
    in["net.mac.backoffs"] = mac.backoffs;
    in["net.mac.retries"] = mac.retries;
    in["net.mac.collisions"] = mac.collisions;
    in["net.mac.captures"] = mac.captures;
    in["net.mac.delivered"] = mac.delivered;
    in["net.mac.drops"] = mac.drops_cca + mac.drops_retry;
    in["net.mac.lpl_samples"] = mac.lpl_samples;
    in["net.mac.lpl_wakeups"] = mac.lpl_wakeups;
    const net::CollectionStats& c = total_.collection;
    in["net.collection.originated"] = c.originated;
    in["net.collection.forwarded"] = c.forwarded;
    in["net.collection.delivered"] = c.delivered;
    in["net.collection.delivered_predicted"] = c.delivered_predicted;
  }
  io::JsonObject out;
  out["scope"] = "campaign";
  out["instruments"] = std::move(in);
  return io::Json(std::move(out));
}

std::size_t parse_point_row(const std::string& line, std::size_t total_points,
                            io::Json* out) {
  if (line.empty()) return SIZE_MAX;
  try {
    io::Json row = io::Json::parse(line);
    if (!row.is_object()) return SIZE_MAX;
    if (row.string_or("kind", "") != "point") return SIZE_MAX;
    if (!row.contains("point") || !row.at("point").is_number()) {
      return SIZE_MAX;
    }
    const double idx = row.at("point").as_double();
    // Indices are whole numbers below 2^53 (doubles count exactly that
    // far); anything else is not a row this campaign wrote.
    if (!(idx >= 0.0 && idx < 9007199254740992.0 && idx == std::floor(idx)) ||
        (total_points > 0 && idx >= static_cast<double>(total_points))) {
      return SIZE_MAX;
    }
    if (out != nullptr) *out = std::move(row);
    return static_cast<std::size_t>(idx);
  } catch (const std::runtime_error&) {
    return SIZE_MAX;
  }
}

}  // namespace pas::exp
