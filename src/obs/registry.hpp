// Named-instrument telemetry registry.
//
// The observability substrate shared by the campaign engine and the
// orchestrator: Counter / Gauge / Histogram instruments are registered by
// name once at setup (like the sleeping-policy registry, resolution happens
// before the hot path) and handed out as stable slot handles — an 8-byte
// pointer plus a cell index that stays valid for the registry's lifetime,
// across any number of snapshots.
//
// Hot-path writes go to thread_local shards of relaxed atomics, so campaign
// pool workers never contend on a shared cache line; snapshot() merges the
// shards (counters and histogram bins sum, gauges take the max). A disabled
// registry hands out inert handles whose record calls are a null check.
// Handles are touched once per completed point or protocol line, never per
// simulated event.
//
// Registration is not thread-safe and must finish before the first write:
// the first shard acquisition freezes the instrument table (a frozen
// registry throws on new names), because shards size their cell arrays from
// it. Handles may outlive nothing: never use a handle after its Registry is
// destroyed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"

namespace pas::obs {

class Registry;

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* to_string(InstrumentKind k) noexcept {
  switch (k) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "?";
}

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  inline void add(std::uint64_t n = 1) const;

 private:
  friend class Registry;
  Counter(Registry* registry, std::uint32_t cell)
      : registry_(registry), cell_(cell) {}
  Registry* registry_ = nullptr;
  std::uint32_t cell_ = 0;
};

/// High-water mark: snapshot reports the maximum value ever recorded.
class Gauge {
 public:
  Gauge() = default;
  inline void record_max(std::uint64_t v) const;

 private:
  friend class Registry;
  Gauge(Registry* registry, std::uint32_t cell)
      : registry_(registry), cell_(cell) {}
  Registry* registry_ = nullptr;
  std::uint32_t cell_ = 0;
};

/// Fixed log-bucket histogram (see obs/histogram.hpp for the layout).
class Histogram {
 public:
  Histogram() = default;
  inline void record(double v) const;
  /// Folds an already-aggregated HistogramData in (per-run telemetry rolled
  /// into a campaign-level instrument). The specs must match.
  inline void merge(const HistogramData& data) const;

 private:
  friend class Registry;
  Histogram(Registry* registry, std::uint32_t index, LogBuckets spec)
      : registry_(registry), index_(index), spec_(spec) {}
  Registry* registry_ = nullptr;
  std::uint32_t index_ = 0;
  LogBuckets spec_{};
};

/// Merged view of every instrument at one point in time.
struct Snapshot {
  struct Scalar {
    std::string name;
    InstrumentKind kind = InstrumentKind::kCounter;
    std::uint64_t value = 0;
  };
  struct Hist {
    std::string name;
    HistogramData data;
  };
  std::vector<Scalar> scalars;  // registration order
  std::vector<Hist> hists;      // registration order
};

class Registry {
 public:
  /// A disabled registry hands out inert handles and snapshots empty.
  explicit Registry(bool enabled = true);
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Registration: the same name always returns the same handle; a name
  /// re-registered as a different kind (or a histogram with a different
  /// bucket spec) throws std::logic_error, as does any new name once the
  /// registry is frozen by its first recorded value.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name, LogBuckets spec = {});

  /// Merges all thread shards into one consistent view. Safe to call
  /// concurrently with writers (relaxed atomics: a snapshot taken mid-run
  /// may miss in-flight increments, never corrupt).
  [[nodiscard]] Snapshot snapshot() const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Instrument {
    std::string name;
    InstrumentKind kind = InstrumentKind::kCounter;
    std::uint32_t cell = 0;  // scalar cell, or histogram index
    LogBuckets spec{};       // kHistogram only
  };

  /// One thread's private cells. Atomics only because snapshot() reads
  /// while the owning thread writes; writers never share a shard.
  struct Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> scalars;
    std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> hist_bins;
  };

  [[nodiscard]] Shard& shard();
  Shard& acquire_shard();

  void bump(std::uint32_t cell, std::uint64_t n) {
    shard().scalars[cell].fetch_add(n, std::memory_order_relaxed);
  }
  void bump_max(std::uint32_t cell, std::uint64_t v) {
    auto& a = shard().scalars[cell];
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (cur < v && !a.compare_exchange_weak(cur, v,
                                               std::memory_order_relaxed)) {
    }
  }
  void bump_hist(std::uint32_t index, std::size_t bin, std::uint64_t n) {
    shard().hist_bins[index][bin].fetch_add(n, std::memory_order_relaxed);
  }

  const Instrument& register_instrument(std::string_view name,
                                        InstrumentKind kind, LogBuckets spec);

  const bool enabled_;
  /// Process-unique id; the thread_local shard cache keys on it so a cached
  /// pointer can never alias a destroyed-and-reallocated registry.
  const std::uint64_t id_;

  mutable std::mutex mutex_;
  std::vector<Instrument> instruments_;
  std::uint32_t scalar_cells_ = 0;
  std::uint32_t hist_count_ = 0;
  std::vector<LogBuckets> hist_specs_;
  bool frozen_ = false;
  std::vector<std::pair<std::thread::id, std::unique_ptr<Shard>>> shards_;
};

// --- Handle bodies ----------------------------------------------------------

inline void Counter::add(std::uint64_t n) const {
  if (registry_ != nullptr) registry_->bump(cell_, n);
}

inline void Gauge::record_max(std::uint64_t v) const {
  if (registry_ != nullptr) registry_->bump_max(cell_, v);
}

inline void Histogram::record(double v) const {
  if (registry_ != nullptr) registry_->bump_hist(index_, spec_.index(v), 1);
}

inline void Histogram::merge(const HistogramData& data) const {
  if (registry_ == nullptr || data.count == 0) return;
  for (std::size_t i = 0; i < data.bin_counts.size(); ++i) {
    if (data.bin_counts[i] != 0) {
      registry_->bump_hist(index_, i, data.bin_counts[i]);
    }
  }
}

}  // namespace pas::obs
