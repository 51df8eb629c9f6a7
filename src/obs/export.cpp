#include "obs/export.hpp"

namespace pas::obs {

io::Json histogram_json(const HistogramData& data) {
  io::JsonObject hist;
  hist["lo"] = data.spec.lo;
  hist["count"] = data.spec.count;
  io::JsonArray bins;
  bins.reserve(data.bin_counts.size());
  for (const auto n : data.bin_counts) bins.emplace_back(n);
  hist["bins"] = std::move(bins);
  hist["total"] = data.count;
  if (data.count > 0) {
    hist["p50"] = quantile(data, 0.50);
    hist["p95"] = quantile(data, 0.95);
    hist["p99"] = quantile(data, 0.99);
  }
  return io::Json(std::move(hist));
}

std::size_t write_trace_jsonl(const sim::TraceLog& trace, std::ostream& out) {
  std::size_t lines = 0;
  for (const auto& e : trace.events()) {
    io::JsonObject row;
    row["t"] = e.time;
    row["cat"] = sim::to_string(e.category);
    row["kind"] = sim::to_string(e.kind);
    row["node"] = static_cast<std::size_t>(e.node);
    switch (e.kind) {
      case sim::TraceKind::kSleepFor:
        row["x"] = e.x;
        break;
      case sim::TraceKind::kActualVelocity:
        row["x"] = e.x;
        row["y"] = e.y;
        break;
      case sim::TraceKind::kEval:
        row["x"] = e.x;
        row["a"] = static_cast<std::size_t>(e.a);
        break;
      case sim::TraceKind::kStateChange:
        if (e.s1 != nullptr) row["from"] = e.s1;
        if (e.s2 != nullptr) row["to"] = e.s2;
        break;
      default:
        break;
    }
    row["text"] = sim::format_event(e);
    out << io::Json(std::move(row)).dump() << '\n';
    ++lines;
  }
  return lines;
}

}  // namespace pas::obs
