#include "core/estimation.hpp"

#include <algorithm>
#include <cmath>

namespace pas::core {

std::optional<geom::Vec2> actual_velocity(
    geom::Vec2 x_position, sim::Time x_detected_at,
    std::span<const PeerObservation> peers, sim::Duration min_dt_s) {
  geom::Vec2 sum{};
  int n = 0;
  for (const PeerObservation& peer : peers) {
    if (peer.state != NodeState::kCovered) continue;
    if (peer.detected_at >= x_detected_at) continue;  // not an earlier front
    if (peer.detected_at == sim::kNever) continue;
    const geom::Vec2 ix = x_position - peer.position;
    if (ix.norm2() == 0.0) continue;  // co-located peer carries no direction
    const sim::Duration dt = x_detected_at - peer.detected_at;
    if (dt < min_dt_s) continue;  // tangential chord: no propagation signal
    sum += ix / dt;
    ++n;
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

std::optional<geom::Vec2> expected_velocity(
    std::span<const PeerObservation> peers) {
  geom::Vec2 sum{};
  int n = 0;
  for (const PeerObservation& peer : peers) {
    if (!peer.velocity_valid) continue;
    if (peer.state == NodeState::kSafe) continue;  // formula 2: covered/alert
    sum += peer.velocity;
    ++n;
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

sim::Time arrival_term(geom::Vec2 x_position, const PeerObservation& peer,
                       const PredictionPolicy& policy) {
  const bool covered = peer.state == NodeState::kCovered;
  const bool alert = peer.state == NodeState::kAlert;
  if (!covered && !(alert && policy.use_alert_peers)) return sim::kNever;
  if (!peer.velocity_valid) return sim::kNever;
  const double speed = peer.velocity.norm();
  if (speed <= 0.0) return sim::kNever;

  const geom::Vec2 ix = x_position - peer.position;
  const double dist = ix.norm();
  if (dist == 0.0) return kFrontHere;

  double travel;
  if (policy.cosine_projection) {
    const double cos_phi = geom::cos_included_angle(peer.velocity, ix);
    if (cos_phi <= 0.0) return sim::kNever;  // front moving away from X
    travel = dist * cos_phi / speed;
  } else {
    travel = dist / speed;
  }

  // When does the front pass the peer? Covered: its detection. Alert: its
  // own prediction, else the time we heard from it.
  sim::Time ref;
  if (covered) {
    ref = peer.detected_at != sim::kNever ? peer.detected_at
                                          : peer.received_at;
  } else {
    ref = peer.predicted_arrival != sim::kNever ? peer.predicted_arrival
                                                : peer.received_at;
  }
  return ref + travel;
}

namespace {

/// The fold behind fold_arrival() and predict_arrival(): term(k) is the
/// k-th of n terms.
template <typename Term>
sim::Time fold_terms(std::size_t n, sim::Time now,
                     sim::Duration overdue_tolerance_s, Term&& term) {
  sim::Time best = sim::kNever;
  for (std::size_t k = 0; k < n; ++k) {
    const sim::Time estimate = term(k);
    // The front is at X's own position right now.
    if (estimate == kFrontHere) return now;
    // Falsified prediction: the front should have arrived well before now
    // but did not (X would have sensed it) — discard rather than treat the
    // stimulus as perpetually imminent.
    if (estimate < now - overdue_tolerance_s) continue;
    best = std::min(best, estimate);
  }
  return best;
}

}  // namespace

sim::Time fold_arrival(sim::Time now, std::span<const sim::Time> terms,
                       sim::Duration overdue_tolerance_s) {
  return fold_terms(terms.size(), now, overdue_tolerance_s,
                    [terms](std::size_t k) { return terms[k]; });
}

sim::Time predict_arrival(geom::Vec2 x_position, sim::Time now,
                          std::span<const PeerObservation> peers,
                          const PredictionPolicy& policy) {
  return fold_terms(peers.size(), now, policy.overdue_tolerance_s,
                    [&](std::size_t k) {
                      return arrival_term(x_position, peers[k], policy);
                    });
}

bool significant_change(sim::Time previous_abs, sim::Time new_abs,
                        sim::Time now, double rel,
                        sim::Duration abs_floor_s) {
  const bool prev_known = previous_abs != sim::kNever;
  const bool new_known = new_abs != sim::kNever;
  if (prev_known != new_known) return true;
  if (!new_known) return false;
  const sim::Duration remaining = std::max(0.0, previous_abs - now);
  const sim::Duration tolerance = std::max(abs_floor_s, rel * remaining);
  return std::abs(new_abs - previous_abs) > tolerance;
}

}  // namespace pas::core
