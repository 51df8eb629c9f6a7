// Neighbor knowledge base.
//
// Each node keeps the most recent RESPONSE from every neighbor in a flat
// vector kept sorted by neighbor id. The estimation functions
// (estimation.hpp) read entries() in place: ascending id order makes their
// floating-point sums reproducible, and keeping it on insert means no
// per-evaluation copy or sort.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/state.hpp"
#include "geom/vec2.hpp"
#include "sim/time.hpp"

namespace pas::core {

/// What one node knows about one neighbor, from its latest RESPONSE.
struct PeerObservation {
  std::uint32_t id = 0;
  geom::Vec2 position{};
  NodeState state = NodeState::kSafe;
  /// Estimated front velocity at the peer (valid only when velocity_valid).
  geom::Vec2 velocity{};
  bool velocity_valid = false;
  /// Peer's own predicted arrival time (absolute; kNever when unknown).
  sim::Time predicted_arrival = sim::kNever;
  /// When the peer detected the stimulus (absolute; covered peers only).
  sim::Time detected_at = sim::kNever;
  /// When this observation was received.
  sim::Time received_at = 0.0;
};

class PeerTable {
 public:
  /// Room for `n` neighbors: updates never allocate while the table holds
  /// at most `n` distinct ids.
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Inserts or replaces the entry for `obs.id`.
  void update(const PeerObservation& obs);

  [[nodiscard]] std::optional<PeerObservation> find(std::uint32_t id) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept { entries_.clear(); }

  /// Every entry, ascending by id; valid until the table next changes.
  [[nodiscard]] std::span<const PeerObservation> entries() const noexcept {
    return entries_;
  }

  /// Drops observations received before `cutoff`.
  void expire_older_than(sim::Time cutoff);

 private:
  std::vector<PeerObservation> entries_;
};

}  // namespace pas::core
