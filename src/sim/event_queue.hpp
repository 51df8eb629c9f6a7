// Pending-event set for the discrete-event kernel.
//
// The pending-set index is a ladder/calendar-queue hybrid ordered by
// (time, sequence): a sorted "bottom" rung dispatched back-to-front, nested
// calendar rungs of unsorted buckets over the mid horizon (an overfull
// bucket spawns a finer sub-rung instead of being sorted wholesale), and an
// unsorted far-future overflow list that reseeds the calendar when the
// rungs drain. push and pop are O(1) amortized — only the active bucket is
// ever sorted — and the structure touches one small contiguous bucket per
// dispatch instead of O(log n) scattered heap nodes, which is what makes
// deep periodic pending sets (one timer per node, each re-armed a period
// ahead) cheap; see docs/ARCHITECTURE.md "Kernel internals". The
// brute-force model in tests/sim/test_event_queue_ladder.cpp is the
// dispatch-order oracle.
//
// Determinism is contractual: dispatch order is strict (time, seq) with seq
// assigned in push order, so simultaneous events fire FIFO however the
// buckets split. Cancellation stays lazy — cancelled events linger in their
// bucket and are skipped when the dispatch path reaches them.
//
// Callbacks live in a free-list slab of generation-tagged slots (a slot
// map). An EventId is (slot index, generation): cancel() and pending() are
// one array access plus a generation compare — no hashing, no node
// allocations — and a reused slot invalidates stale ids by construction
// because release bumps the generation. Callbacks are sim::SmallFn,
// constructed directly in the slab (push never copies a capture), and the
// slab grows in address-stable chunks so run_next() can invoke a callback
// in place — the dispatch path of a simulation is one indirect call per
// event, with no allocation and no capture relocation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace pas::sim {

/// Opaque handle to a scheduled event. Value 0 is "invalid". Internally
/// packs (generation << 32) | slot; generations start at 1, so every live
/// id is non-zero.
class EventId {
 public:
  constexpr EventId() noexcept = default;
  explicit constexpr EventId(std::uint64_t v) noexcept : value_(v) {}

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return value_ != 0; }
  constexpr bool operator==(const EventId&) const noexcept = default;

  /// Slot index / generation accessors (used by the queue; stable layout so
  /// tests can assert on reuse behaviour).
  [[nodiscard]] constexpr std::uint32_t slot() const noexcept {
    return static_cast<std::uint32_t>(value_);
  }
  [[nodiscard]] constexpr std::uint32_t generation() const noexcept {
    return static_cast<std::uint32_t>(value_ >> 32);
  }
  [[nodiscard]] static constexpr EventId pack(std::uint32_t slot,
                                              std::uint32_t generation) noexcept {
    return EventId{(static_cast<std::uint64_t>(generation) << 32) | slot};
  }

 private:
  std::uint64_t value_ = 0;
};

/// Pending-event set ordered by (time, seq) with O(1) cancellation. Not
/// thread-safe by design: one simulation owns one queue; parallelism
/// happens across simulations.
class EventQueue {
 public:
  using Callback = SmallFn;

  /// Lifetime counters since construction / the last clear(). Plain
  /// increments on paths that already touch the same cache lines — the
  /// telemetry layer reads them after the run instead of hooking dispatch.
  /// Every field is a pure function of the push/cancel/dispatch schedule
  /// (never of retained capacity or reuse history), so all of them are safe
  /// to surface in byte-deterministic outputs.
  struct Stats {
    std::uint64_t pushed = 0;
    std::uint64_t cancelled = 0;
    /// High-water mark of simultaneously pending events.
    std::uint64_t max_live = 0;
    // Ladder-shape counters: they describe how the index laid the schedule
    // out, and are as deterministic as the schedule itself.
    /// Sub-rungs spawned from overfull buckets.
    std::uint64_t rung_spawns = 0;
    /// Calendar (re)seeds: bucket-array layouts built from the overflow list.
    std::uint64_t bucket_resizes = 0;
    /// Largest live batch sorted into the bottom rung at once.
    std::uint64_t max_bucket = 0;
    /// Cancelled entries skipped while draining buckets / the bottom rung.
    std::uint64_t dead_skips = 0;
  };

  EventQueue() = default;

  // The push/cancel/dispatch path is defined inline below: it is the
  // innermost loop of every simulation and the library is built without
  // LTO, so a .cpp definition would cost an opaque call per event.

  /// Inserts an event; `t` must satisfy is_valid_time(). The callable is
  /// constructed directly in the slab: a raw lambda/functor argument never
  /// passes through a SmallFn temporary (zero moves), a SmallFn argument is
  /// moved in (one relocation).
  template <typename F>
  EventId push(Time t, F&& f) {
    if (!is_valid_time(t)) {
      throw std::invalid_argument("EventQueue::push: invalid event time");
    }
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, Callback>) {
      if (!f) {
        throw std::invalid_argument("EventQueue::push: empty callback");
      }
    } else if constexpr (requires { static_cast<bool>(f); }) {
      // Null-testable callables (std::function, function pointers) must be
      // rejected here, at the call site, not at dispatch time.
      if (!static_cast<bool>(f)) {
        throw std::invalid_argument("EventQueue::push: empty callback");
      }
    }
    const std::uint32_t s = acquire_slot();
    Slot& slot = slot_at(s);
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, Callback>) {
      slot.fn = std::forward<F>(f);
    } else {
      slot.fn.emplace(std::forward<F>(f));
    }
    index_push(IndexEntry{t, next_seq_++, s, slot.generation});
    ++live_;
    ++stats_.pushed;
    if (live_ > stats_.max_live) stats_.max_live = live_;
    return EventId::pack(s, slot.generation);
  }

  /// Cancels a pending event. Returns false if unknown/already executed.
  bool cancel(EventId id) {
    if (!pending(id)) return false;
    release_slot(id.slot());
    --live_;
    ++stats_.cancelled;
    return true;
  }

  /// True if a pushed event has neither executed nor been cancelled.
  [[nodiscard]] bool pending(EventId id) const {
    const std::uint32_t s = id.slot();
    if (s >= slot_count_) return false;
    const Slot& slot = slot_at(s);
    // The generation compare alone rejects every id the queue ever issued
    // and released; the occupancy check additionally rejects fabricated ids
    // that happen to guess a free slot's current generation.
    return slot.generation == id.generation() && static_cast<bool>(slot.fn);
  }

  /// Number of live (non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Timestamp of the earliest live event; kNever when empty.
  [[nodiscard]] Time next_time() const {
    index_prepare();
    return index_has_top() ? index_top_time() : kNever;
  }

  /// Executes the earliest live event's callback in place in the slab —
  /// the kernel's dispatch path: no relocation, one indirect call. Pre:
  /// !empty(). `clock_out` is set to the event's timestamp *before* the
  /// callback runs (the simulator aliases its clock here so callbacks read
  /// the right now()). The event is retired before the callback runs (its
  /// id is no longer pending, exactly as with pop()), its slot becomes
  /// reusable only after the callback returns, and the callback may freely
  /// push or cancel.
  void run_next(Time& clock_out) {
    index_prepare();
    assert(index_has_top() && "run_next() on empty EventQueue");
    const IndexEntry top = index_pop();
    Slot& slot = slot_at(top.slot);
    // Retire the id first: during its own execution the event is no longer
    // pending and cannot be cancelled (so a self-cancel cannot free the
    // slot under us). The slot joins the free list only after the call, so
    // pushes from inside the callback cannot reuse this storage either —
    // chunked slab growth keeps `slot` address-stable meanwhile, and
    // clear() (e.g. a callback calling Simulator::reset()) skips the
    // executing slot so it is released exactly once, here.
    bump_generation(slot);
    --live_;
    // The release runs in a scope guard so a throwing callback still leaves
    // the queue consistent (slot freed, executing frame unlinked) — the
    // same guarantee the relocating pop() path gives for free. Frames form
    // a stack (callbacks may legally pump the queue again), and clear()
    // consults the whole chain so no executing slot is ever released twice.
    struct Release {
      EventQueue* queue;
      Slot* slot;
      ExecFrame frame;
      ~Release() {
        queue->executing_ = frame.prev;
        slot->fn.reset();
        slot->next_free = queue->free_head_;
        queue->free_head_ = frame.slot;
      }
    };
    Release release{this, &slot, ExecFrame{top.slot, executing_}};
    executing_ = &release.frame;
    clock_out = top.time;
    slot.fn();
  }

  /// run_next() when the caller does not need the timestamp published.
  Time run_next() {
    Time t = 0.0;
    run_next(t);
    return t;
  }

  /// Pops the earliest live event, relocating the callback out of the slab
  /// (never copying it). Pre: !empty(). The slot is released before return,
  /// so the callback may freely push new events. run_next() is the cheaper
  /// path when the callback can be invoked immediately.
  struct Popped {
    Time time;
    EventId id;
    Callback callback;
  };
  Popped pop() {
    index_prepare();
    assert(index_has_top() && "pop() on empty EventQueue");
    const IndexEntry top = index_pop();
    Slot& slot = slot_at(top.slot);
    Popped out{top.time, EventId::pack(top.slot, top.generation),
               std::move(slot.fn)};
    release_slot(top.slot);
    --live_;
    return out;
  }

  /// Drops everything (cancels all pending events) and zeroes stats().
  /// Slab capacity, bucket arrays and rung storage are retained so a reused
  /// queue (world::Workspace) schedules into warm memory; the *logical*
  /// index state resets completely, so a reused queue dispatches — and
  /// counts its Stats — exactly like a fresh one.
  void clear();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Slots the slab has ever grown to (survives clear() — a capacity
  /// watermark, not per-run state, so workspace reuse makes it depend on
  /// scheduling history; keep it out of deterministic outputs).
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slot_count_;
  }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffU;
  /// Slots per slab chunk. Chunked growth keeps every slot's address
  /// stable, which run_next() relies on while a callback executes.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1U << kChunkShift;

  /// One pending event as seen by the index: everything pop needs without
  /// touching the slab until dispatch.
  struct IndexEntry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  /// One stack frame of in-progress dispatch (lives on run_next's stack).
  struct ExecFrame {
    std::uint32_t slot;
    ExecFrame* prev;
  };
  struct Later {
    bool operator()(const IndexEntry& a, const IndexEntry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    SmallFn fn;
    /// Bumped on every release; a generation mismatch is how stale index
    /// entries and cancelled/executed EventIds are recognised. 32 bits give
    /// 4 billion reuses per slot before an ABA collision could matter.
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNilSlot;
  };

  [[nodiscard]] Slot& slot_at(std::uint32_t s) noexcept {
    return chunks_[s >> kChunkShift][s & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t s) const noexcept {
    return chunks_[s >> kChunkShift][s & (kChunkSize - 1)];
  }

  [[nodiscard]] bool entry_live(const IndexEntry& e) const noexcept {
    return slot_at(e.slot).generation == e.generation;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t s = free_head_;
      free_head_ = slot_at(s).next_free;
      return s;
    }
    return grow_slots();
  }

  /// Invalidates the released id and its index entry. Generations skip 0 on
  /// wrap-around: generation 0 is reserved so that the default EventId
  /// (value 0) can never match a slot, even after 2^32 reuses.
  static void bump_generation(Slot& slot) noexcept {
    if (++slot.generation == 0) slot.generation = 1;
  }

  void release_slot(std::uint32_t s) noexcept {
    Slot& slot = slot_at(s);
    slot.fn.reset();
    bump_generation(slot);
    slot.next_free = free_head_;
    free_head_ = s;
  }

  /// Cold path of acquire_slot: appends a chunk when the slab is full.
  std::uint32_t grow_slots();

  /// True when slot `s` is currently dispatching at any nesting depth.
  [[nodiscard]] bool is_executing(std::uint32_t s) const noexcept {
    for (const ExecFrame* f = executing_; f != nullptr; f = f->prev) {
      if (f->slot == s) return true;
    }
    return false;
  }

  // ---- Pending-set index: ladder/calendar hybrid ---------------------------
  //
  // Three regions partitioned by time thresholds, earliest first:
  //
  //   bottom_   sorted descending (back = earliest); the dispatch rung.
  //   rungs_    nested calendar rungs, outermost (coarsest) first; rung r
  //             owns [cur_start(r), its outer boundary) in unsorted buckets
  //             of equal width. rungs_.back() is the finest and earliest.
  //   top_      unsorted overflow for t >= top_start_.
  //
  // Invariants that make dispatch order exact:
  //   * every bottom_ entry precedes (in (time, seq)) every rung/top entry;
  //   * region thresholds (cur_start per rung, top_start_) only ever move
  //     forward, so for equal times a later push always lands in the same
  //     or a later region/bucket than an earlier one — and the final
  //     per-batch sort orders equal times by seq anyway.
  //
  // Draining: pop takes bottom_.back(); when bottom_ empties, the next
  // non-empty bucket of the innermost rung is filtered of dead entries and
  // either sorted into bottom_ or — if it still holds more than
  // kSortThreshold live events spanning distinct times — spawned into a
  // finer sub-rung. When all rungs drain, the overflow list reseeds the
  // calendar sized to the live count. All of it is logically const lazy
  // work driven by next_time()/pop(), hence the mutable storage.

  /// Live entries at or below this count are sorted straight into bottom_;
  /// larger batches spawn a sub-rung (unless all times are equal).
  static constexpr std::size_t kSortThreshold = 64;
  /// Rung-stack depth cap: beyond it batches are sorted regardless. Each
  /// spawn narrows the covered span by >= the bucket count, so real
  /// schedules never get near this; it bounds adversarial clustering.
  static constexpr std::size_t kMaxRungs = 40;
  static constexpr std::size_t kMinBuckets = 8;
  static constexpr std::size_t kMaxBuckets = 32768;
  /// Retired rungs kept (with their bucket arrays) for reuse.
  static constexpr std::size_t kMaxSpareRungs = 8;

  struct Rung {
    Time start = 0.0;
    Time width = 0.0;
    /// First undrained bucket; buckets before it have been dispatched (or
    /// redistributed), so pushes clamp to >= cur.
    std::size_t cur = 0;
    std::vector<std::vector<IndexEntry>> buckets;
  };

  [[nodiscard]] static Time rung_cur_start(const Rung& r) noexcept {
    return r.start + r.width * static_cast<Time>(r.cur);
  }

  /// Bucket placement is a heuristic (clamped to the rung's undrained
  /// range); the per-batch sort at drain time is what guarantees order, so
  /// floating-point edge cases here cost locality, never correctness.
  static void rung_insert(Rung& r, const IndexEntry& e) {
    const Time off = (e.time - r.start) / r.width;
    const std::size_t nb = r.buckets.size();
    std::size_t idx;
    if (!(off > 0.0)) {
      idx = 0;
    } else if (off >= static_cast<Time>(nb)) {
      idx = nb - 1;
    } else {
      idx = static_cast<std::size_t>(off);
    }
    if (idx < r.cur) idx = r.cur;
    r.buckets[idx].push_back(e);
  }

  void index_push(const IndexEntry& e) {
    if (e.time >= top_start_) {
      top_.push_back(e);
      return;
    }
    for (Rung& r : rungs_) {  // outermost first: largest cur_start wins
      if (e.time >= rung_cur_start(r)) {
        rung_insert(r, e);
        return;
      }
    }
    bottom_insert(e);
  }

  /// Sorted insert into the (usually tiny) bottom rung; the common case —
  /// an event earlier than everything pending — lands at the back.
  void bottom_insert(const IndexEntry& e) {
    const auto it =
        std::lower_bound(bottom_.begin(), bottom_.end(), e, Later{});
    bottom_.insert(it, e);
  }

  /// Exposes the earliest live entry at bottom_.back(), refilling from the
  /// rungs/overflow as needed. Logically const lazy maintenance.
  void index_prepare() const {
    for (;;) {
      while (!bottom_.empty() && !entry_live(bottom_.back())) {
        bottom_.pop_back();
        ++stats_.dead_skips;
      }
      if (!bottom_.empty()) return;
      if (!refill_bottom()) return;
    }
  }

  [[nodiscard]] bool index_has_top() const noexcept {
    return !bottom_.empty();
  }
  [[nodiscard]] Time index_top_time() const noexcept {
    return bottom_.back().time;
  }

  IndexEntry index_pop() const {
    const IndexEntry e = bottom_.back();
    bottom_.pop_back();
    return e;
  }

  // Cold paths, defined in event_queue.cpp.
  bool refill_bottom() const;
  bool spawn_rung_from_scratch() const;
  Rung& push_rung(std::size_t buckets) const;
  void retire_rung() const;
  static std::size_t bucket_count_for(std::size_t n) noexcept;

  mutable std::vector<IndexEntry> bottom_;
  mutable std::vector<Rung> rungs_;
  mutable std::vector<IndexEntry> top_;
  /// Events at or after this time go to top_. kLongAgo until the first
  /// reseed (everything starts in the overflow list); from then on it only
  /// moves forward within a run. clear() resets it.
  mutable Time top_start_ = kLongAgo;
  mutable std::vector<IndexEntry> scratch_;
  mutable std::vector<Rung> spare_rungs_;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNilSlot;
  /// Innermost in-progress dispatch frame (null when none); clear() must
  /// leave every frame's slot alone so each run_next() releases its own
  /// slot exactly once on return.
  ExecFrame* executing_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  /// Mutable because lazy index maintenance (dead-entry skips) happens
  /// inside logically-const reads like next_time().
  mutable Stats stats_{};
};

}  // namespace pas::sim
