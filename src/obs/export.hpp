// Telemetry serialization: histograms and structured traces out to JSON /
// JSONL through io/json.
//
// Conventions shared with the campaign telemetry file (exp/telemetry.hpp):
//  * 64-bit counts are emitted as JSON numbers (telemetry counts stay far
//    below 2^53, the double-exact integer range io::Json preserves);
//  * seeds are emitted as strings (they use all 64 bits);
//  * histogram objects carry {lo, count, bins, total} so the fixed
//    log-bucket layout reconstructs without out-of-band schema.
#pragma once

#include <ostream>

#include "io/json.hpp"
#include "obs/histogram.hpp"
#include "sim/trace.hpp"

namespace pas::obs {

/// {"lo": ..., "count": N, "bins": [...], "total": M}; `bins` is empty for
/// a histogram that never recorded. Non-empty histograms additionally carry
/// "p50"/"p95"/"p99": quantile estimates interpolated within the log
/// buckets (obs::quantile) — a pure function of the bins, so the keys never
/// break byte-identity across schedules.
[[nodiscard]] io::Json histogram_json(const HistogramData& data);

/// Writes one JSONL line per trace event: structured fields plus the
/// rendered text, e.g.
///   {"t":12.5,"cat":"sleep","kind":"sleep_for","node":3,"x":10.0,
///    "text":"sleeping for 10s"}
/// Numeric args are included only when the kind uses them. Returns the
/// number of lines written.
std::size_t write_trace_jsonl(const sim::TraceLog& trace, std::ostream& out);

}  // namespace pas::obs
