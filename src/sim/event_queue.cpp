#include "sim/event_queue.hpp"

namespace pas::sim {

std::uint32_t EventQueue::grow_slots() {
  if (slot_count_ >= kNilSlot - kChunkSize) {
    throw std::length_error("EventQueue: slot index space exhausted");
  }
  if (slot_count_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

std::size_t EventQueue::bucket_count_for(std::size_t n) noexcept {
  std::size_t nb = kMinBuckets;
  while (nb < n && nb < kMaxBuckets) nb <<= 1;
  return nb;
}

/// Appends a rung (reusing a retired one's bucket arrays when available)
/// sized to `buckets`; the caller fills in start/width.
EventQueue::Rung& EventQueue::push_rung(std::size_t buckets) const {
  if (!spare_rungs_.empty()) {
    rungs_.push_back(std::move(spare_rungs_.back()));
    spare_rungs_.pop_back();
  } else {
    rungs_.emplace_back();
  }
  Rung& r = rungs_.back();
  r.cur = 0;
  r.buckets.resize(buckets);
  return r;
}

/// Pops the innermost rung, parking its bucket arrays for reuse. Buckets
/// are cleared here (they already are on the drain path; clear() retires
/// rungs that still hold entries).
void EventQueue::retire_rung() const {
  Rung& r = rungs_.back();
  if (spare_rungs_.size() < kMaxSpareRungs) {
    for (auto& b : r.buckets) b.clear();
    r.cur = 0;
    spare_rungs_.push_back(std::move(r));
  }
  rungs_.pop_back();
}

/// Spawns a finer sub-rung from scratch_ (the live contents of one drained
/// bucket). Returns false when the batch spans no distinguishable times (or
/// the span underflows a bucket width), in which case the caller sorts it.
bool EventQueue::spawn_rung_from_scratch() const {
  Time lo = scratch_.front().time;
  Time hi = lo;
  for (const IndexEntry& e : scratch_) {
    if (e.time < lo) lo = e.time;
    if (e.time > hi) hi = e.time;
  }
  if (!(lo < hi)) return false;
  const std::size_t nb = bucket_count_for(scratch_.size());
  const Time width = (hi - lo) / static_cast<Time>(nb);
  if (!(width > 0.0)) return false;
  Rung& r = push_rung(nb);
  r.start = lo;
  r.width = width;
  for (const IndexEntry& e : scratch_) rung_insert(r, e);
  scratch_.clear();
  return true;
}

/// Produces a non-empty, sorted bottom_ from the rungs or the overflow
/// list. Returns false when nothing is pending anywhere. Pre: bottom_ is
/// empty.
bool EventQueue::refill_bottom() const {
  for (;;) {
    if (!rungs_.empty()) {
      Rung& r = rungs_.back();  // innermost = earliest
      const std::size_t nb = r.buckets.size();
      while (r.cur < nb && r.buckets[r.cur].empty()) ++r.cur;
      if (r.cur == nb) {
        retire_rung();
        continue;
      }

      std::vector<IndexEntry>& bucket = r.buckets[r.cur];
      // Consume the bucket before distributing it: pushes that land back in
      // its range must go below this rung (sub-rung or bottom_), never into
      // a drained bucket.
      ++r.cur;
      scratch_.clear();
      for (const IndexEntry& e : bucket) {
        if (entry_live(e)) {
          scratch_.push_back(e);
        } else {
          ++stats_.dead_skips;
        }
      }
      bucket.clear();
      // Retire eagerly so push routing never sees a fully-drained rung
      // (rung_insert clamps to cur and a dead rung would swallow events).
      if (r.cur == nb) retire_rung();
      if (scratch_.empty()) continue;
      if (scratch_.size() > stats_.max_bucket) {
        stats_.max_bucket = scratch_.size();
      }
      if (scratch_.size() > kSortThreshold && rungs_.size() < kMaxRungs &&
          spawn_rung_from_scratch()) {
        ++stats_.rung_spawns;
        continue;
      }
      std::sort(scratch_.begin(), scratch_.end(), Later{});
      bottom_.swap(scratch_);
      return true;
    }

    // Rungs exhausted: reseed the calendar from the overflow list.
    if (top_.empty()) return false;
    std::size_t kept = 0;
    for (const IndexEntry& e : top_) {
      if (entry_live(e)) {
        top_[kept++] = e;
      } else {
        ++stats_.dead_skips;
      }
    }
    top_.resize(kept);
    if (top_.empty()) return false;
    Time lo = top_.front().time;
    Time hi = lo;
    for (const IndexEntry& e : top_) {
      if (e.time < lo) lo = e.time;
      if (e.time > hi) hi = e.time;
    }
    // From now on only events at/after `hi` overflow: everything being
    // redistributed is <= hi, and any later same-time push carries a larger
    // seq, so dispatching the redistributed set first is exactly
    // (time, seq) order.
    top_start_ = hi;
    const std::size_t nb = bucket_count_for(top_.size());
    const Time width = (hi - lo) / static_cast<Time>(nb);
    if (top_.size() <= kSortThreshold || !(width > 0.0)) {
      // Too small (or too narrow a span) to be worth a calendar: one sort.
      if (top_.size() > stats_.max_bucket) stats_.max_bucket = top_.size();
      std::sort(top_.begin(), top_.end(), Later{});
      bottom_.swap(top_);
      top_.clear();
      return true;
    }
    Rung& r = push_rung(nb);
    r.start = lo;
    r.width = width;
    for (const IndexEntry& e : top_) rung_insert(r, e);
    top_.clear();
    ++stats_.bucket_resizes;
  }
}

void EventQueue::clear() {
  // Logical reset, warm storage: vector clears keep their capacity and
  // retired rungs park their bucket arrays, so a reused queue
  // (world::Workspace) rebuilds its calendar without reallocating — while
  // every threshold and counter restarts exactly as on a fresh queue.
  bottom_.clear();
  top_.clear();
  scratch_.clear();
  while (!rungs_.empty()) retire_rung();
  top_start_ = kLongAgo;
  free_head_ = kNilSlot;
  // Rebuild the free list over every slot; occupied ones are invalidated
  // exactly like a release so outstanding ids turn stale. Slots whose
  // callbacks are executing right now — at any nesting depth, when clear()
  // is reached from inside a callback (e.g. via Simulator::reset()) — are
  // skipped entirely: their callbacks must not be destroyed mid-invocation,
  // and each run_next() frame releases its own slot on return.
  for (std::uint32_t s = slot_count_; s-- > 0;) {
    if (is_executing(s)) continue;
    Slot& slot = slot_at(s);
    if (slot.fn) {
      slot.fn.reset();
      bump_generation(slot);
    }
    slot.next_free = free_head_;
    free_head_ = s;
  }
  live_ = 0;
  stats_ = Stats{};
}

}  // namespace pas::sim
