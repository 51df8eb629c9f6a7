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
