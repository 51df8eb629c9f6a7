// Fixed log-bucket histogram data.
//
// Telemetry histograms (sleep intervals, lease latencies) span several
// orders of magnitude, so buckets double: bin 0 collects everything at or
// below `lo` (and non-finite garbage), bin i (1..count) covers
// (lo*2^(i-1), lo*2^i], and bin count+1 is the overflow. The bucket layout
// is a pure function of the spec — two histograms with the same spec merge
// bin-by-bin, which is what lets per-run records sum into per-point rows
// and per-point rows into the campaign rollup without losing anything but
// intra-bucket resolution.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace pas::obs {

struct LogBuckets {
  /// Upper edge of the underflow bucket (> 0).
  double lo = 0.001;
  /// Number of doubling buckets between underflow and overflow.
  std::size_t count = 24;

  [[nodiscard]] constexpr bool operator==(const LogBuckets&) const noexcept =
      default;

  /// Total bins including underflow (0) and overflow (count + 1).
  [[nodiscard]] constexpr std::size_t bins() const noexcept {
    return count + 2;
  }

  /// Bin index of `v`. NaN and anything <= lo land in the underflow bin;
  /// values beyond lo*2^count in the overflow bin. Upper edges are
  /// inclusive: lo*2^i belongs to bin i.
  [[nodiscard]] std::size_t index(double v) const noexcept {
    if (!(v > lo)) return 0;  // also catches NaN
    const int k = std::ilogb(v / lo);  // floor(log2(v / lo)), >= 0 here
    const std::size_t bin = std::ldexp(lo, k) >= v
                                ? static_cast<std::size_t>(k)
                                : static_cast<std::size_t>(k) + 1;
    return bin > count ? count + 1 : bin;
  }

  /// Upper edge of bin i (inclusive); bin 0's edge is lo, the overflow
  /// bin's edge is +infinity.
  [[nodiscard]] double upper_edge(std::size_t i) const noexcept {
    if (i > count) return std::numeric_limits<double>::infinity();
    return std::ldexp(lo, static_cast<int>(i));
  }
};

struct HistogramData {
  LogBuckets spec{};
  /// Bin counts; empty until the first record()/merge() (a run that never
  /// sleeps pays no allocation). When non-empty, size() == spec.bins().
  std::vector<std::uint64_t> bin_counts;
  /// Total recorded values (== sum of bin_counts; kept explicit so empty
  /// histograms stay allocation-free and summaries need no re-scan).
  std::uint64_t count = 0;

  void record(double v) {
    if (bin_counts.empty()) bin_counts.assign(spec.bins(), 0);
    ++bin_counts[spec.index(v)];
    ++count;
  }

  /// Adds `other`'s counts into this histogram; the specs must match (the
  /// caller controls both sides — mismatch is a programming error).
  void merge(const HistogramData& other) {
    if (other.count == 0) return;
    if (bin_counts.empty()) bin_counts.assign(spec.bins(), 0);
    for (std::size_t i = 0; i < bin_counts.size(); ++i) {
      bin_counts[i] += other.bin_counts[i];
    }
    count += other.count;
  }
};

/// Quantile estimate (q in [0, 1]) interpolated within log buckets: the
/// bucket holding the target rank contributes linearly by the fraction of
/// its count below the rank, so the error is bounded by one bucket's width
/// instead of a whole doubling step. The telemetry values recorded here
/// are non-negative durations, so the underflow bucket interpolates over
/// [0, lo]; the unbounded overflow bucket reports its lower edge
/// (lo * 2^count) — a deliberate under-estimate rather than a made-up
/// extrapolation. An empty histogram reports 0.
[[nodiscard]] inline double quantile(const HistogramData& data,
                                     double q) noexcept {
  if (data.count == 0 || data.bin_counts.empty()) return 0.0;
  if (!(q > 0.0)) q = 0.0;  // also catches NaN
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(data.count);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < data.bin_counts.size(); ++i) {
    const std::uint64_t in_bin = data.bin_counts[i];
    if (in_bin == 0) continue;
    if (static_cast<double>(below + in_bin) >= target) {
      const double lower = i == 0 ? 0.0 : data.spec.upper_edge(i - 1);
      if (i == data.spec.count + 1) return lower;  // overflow bucket
      const double upper = data.spec.upper_edge(i);
      double frac = (target - static_cast<double>(below)) /
                    static_cast<double>(in_bin);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      return lower + frac * (upper - lower);
    }
    below += in_bin;
  }
  // Unreachable while count == sum(bin_counts); degrade to the top edge.
  return data.spec.upper_edge(data.spec.count);
}

}  // namespace pas::obs
