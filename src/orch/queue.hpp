// Dynamic work queue for the campaign orchestrator.
//
// The driver loads the pending point indices once and hands them out as
// *leases* — contiguous slices whose size follows guided self-scheduling:
// roughly remaining/(2·workers), clamped to [1, max_lease]. Early leases
// are big (low protocol overhead), late leases shrink so a worker stuck on
// an expensive point cannot strand a long tail behind it — the dynamic
// analogue of PR 2's static modulo split, which stalls on uneven point
// cost.
//
// Reassignment: when a worker dies, its unfinished lease points are pushed
// back to the *front* of the queue, so recovered work is re-issued before
// untouched work and a crash near the end does not restart the campaign's
// tail ordering from scratch. None of this affects output bytes: every
// point's seeds derive from the manifest alone, and the aggregator orders
// rows by point index regardless of schedule.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

namespace pas::orch {

class WorkQueue {
 public:
  /// `points` are the pending grid indices, typically ascending.
  /// `max_lease` caps lease size (keeps protocol lines short and bounds
  /// the work lost to one crash).
  explicit WorkQueue(std::vector<std::size_t> points,
                     std::size_t max_lease = 64);

  /// Takes the next lease for one of `workers` active workers. Empty when
  /// the queue is drained. Guided sizing: max(1, remaining/(2·workers)),
  /// clamped to max_lease.
  [[nodiscard]] std::vector<std::size_t> take(std::size_t workers);

  /// Returns a revoked lease's unfinished points to the front of the queue
  /// (they are re-issued before untouched work).
  void put_back(const std::vector<std::size_t>& points);

  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return points_.size();
  }
  [[nodiscard]] std::size_t max_lease() const noexcept { return max_lease_; }

 private:
  std::deque<std::size_t> points_;
  std::size_t max_lease_;
};

}  // namespace pas::orch
