// Neighbor knowledge base.
//
// Each node keeps the most recent RESPONSE from every neighbor in a flat
// vector kept sorted by neighbor id. The estimation functions
// (estimation.hpp) read entries() in place: ascending id order makes their
// floating-point sums reproducible, and keeping it on insert means no
// per-evaluation copy or sort.
//
// The table also answers formulas 2 and 3 itself, in proportion to what
// changed. Formula 3 is a minimum over per-peer terms (core::arrival_term),
// each a function of one row, the owner's position and the policy's
// use_alert_peers/cosine_projection. The table keeps those terms beside its
// rows:
//   * update() recomputes the term of the row it replaces or inserts;
//   * expire_older_than() erases a term with its row;
//   * a call with another position or other flags recomputes every term.
// overdue_tolerance_s, the one policy field that differs by node state, is
// applied by the fold at each call and never cached. Formula 2's sum is
// redone, in id order, only after an update or an expiry that erased a row.
// Both answers equal the free functions over entries() bit for bit.
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

struct PredictionPolicy;  // estimation.hpp

class PeerTable {
 public:
  /// Room for `n` neighbors: updates never allocate while the table holds
  /// at most `n` distinct ids. (The term cache takes the same room on the
  /// first predict_arrival().)
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Inserts or replaces the entry for `obs.id`.
  void update(const PeerObservation& obs);

  [[nodiscard]] std::optional<PeerObservation> find(std::uint32_t id) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept {
    entries_.clear();
    terms_.clear();
    velocity_stale_ = true;
  }

  /// Every entry, ascending by id; valid until the table next changes.
  [[nodiscard]] std::span<const PeerObservation> entries() const noexcept {
    return entries_;
  }

  /// Drops observations received before `cutoff`.
  void expire_older_than(sim::Time cutoff);

  /// The earliest received_at of any row, kNever when empty: the table
  /// loses a row to expire_older_than(cutoff) exactly when this is below
  /// `cutoff`.
  [[nodiscard]] sim::Time oldest_received_at() const noexcept;

  /// core::predict_arrival(x_position, now, entries(), policy), from the
  /// cached per-peer terms.
  [[nodiscard]] sim::Time predict_arrival(geom::Vec2 x_position, sim::Time now,
                                          const PredictionPolicy& policy);

  /// core::expected_velocity(entries()), summed only after the rows changed.
  [[nodiscard]] std::optional<geom::Vec2> expected_velocity();

 private:
  std::vector<PeerObservation> entries_;
  // While has_terms_, terms_[k] = arrival_term(term_position_, entries_[k],
  // the policy's flags below).
  std::vector<sim::Time> terms_;
  bool has_terms_ = false;
  geom::Vec2 term_position_{};
  bool term_alert_peers_ = false;
  bool term_cosine_ = false;
  std::optional<geom::Vec2> velocity_;
  bool velocity_stale_ = true;
};

}  // namespace pas::core
