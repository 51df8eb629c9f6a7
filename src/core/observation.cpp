#include "core/observation.hpp"

#include <algorithm>

#include "core/estimation.hpp"

namespace pas::core {

namespace {

/// First entry whose id is not below `id`.
template <typename Entries>
auto lower_bound_id(Entries& entries, std::uint32_t id) {
  return std::lower_bound(
      entries.begin(), entries.end(), id,
      [](const PeerObservation& o, std::uint32_t key) { return o.id < key; });
}

}  // namespace

void PeerTable::update(const PeerObservation& obs) {
  const auto it = lower_bound_id(entries_, obs.id);
  const auto k = it - entries_.begin();
  const bool replace = it != entries_.end() && it->id == obs.id;
  if (replace) {
    *it = obs;
  } else {
    entries_.insert(it, obs);
  }
  if (has_terms_) {
    const PredictionPolicy flags{.use_alert_peers = term_alert_peers_,
                                 .cosine_projection = term_cosine_};
    const sim::Time term = arrival_term(term_position_, obs, flags);
    if (replace) {
      terms_[static_cast<std::size_t>(k)] = term;
    } else {
      terms_.insert(terms_.begin() + k, term);
    }
  }
  velocity_stale_ = true;
}

std::optional<PeerObservation> PeerTable::find(std::uint32_t id) const {
  const auto it = lower_bound_id(entries_, id);
  if (it == entries_.end() || it->id != id) return std::nullopt;
  return *it;
}

void PeerTable::expire_older_than(sim::Time cutoff) {
  // erase_if over both vectors at once.
  std::size_t kept = 0;
  for (std::size_t k = 0; k < entries_.size(); ++k) {
    if (entries_[k].received_at < cutoff) continue;
    if (kept != k) {
      entries_[kept] = entries_[k];
      if (has_terms_) terms_[kept] = terms_[k];
    }
    ++kept;
  }
  if (kept == entries_.size()) return;
  entries_.resize(kept);
  if (has_terms_) terms_.resize(kept);
  velocity_stale_ = true;
}

sim::Time PeerTable::oldest_received_at() const noexcept {
  sim::Time oldest = sim::kNever;
  for (const PeerObservation& o : entries_) {
    oldest = std::min(oldest, o.received_at);
  }
  return oldest;
}

sim::Time PeerTable::predict_arrival(geom::Vec2 x_position, sim::Time now,
                                     const PredictionPolicy& policy) {
  if (!has_terms_ || x_position != term_position_ ||
      policy.use_alert_peers != term_alert_peers_ ||
      policy.cosine_projection != term_cosine_) {
    has_terms_ = true;
    term_position_ = x_position;
    term_alert_peers_ = policy.use_alert_peers;
    term_cosine_ = policy.cosine_projection;
    terms_.reserve(entries_.capacity());
    terms_.resize(entries_.size());
    for (std::size_t k = 0; k < entries_.size(); ++k) {
      terms_[k] = arrival_term(x_position, entries_[k], policy);
    }
  }
  return fold_arrival(now, terms_, policy.overdue_tolerance_s);
}

std::optional<geom::Vec2> PeerTable::expected_velocity() {
  if (velocity_stale_) {
    velocity_ = core::expected_velocity(entries_);
    velocity_stale_ = false;
  }
  return velocity_;
}

}  // namespace pas::core
