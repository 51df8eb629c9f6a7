// Velocity estimation and arrival-time prediction (paper §3.3).
//
// Pure functions over peer observations (PeerTable::entries()) — the whole
// numeric heart of PAS lives here so it can be unit- and property-tested
// without running the protocol engine.
//
// Formula 1 (actual velocity, computed by a node X once it detects the
// stimulus at time t_X, from covered peers I that detected at t_I < t_X):
//
//     v_X = (1/n) · Σ_I  vec(I→X) / (t_X − t_I)
//
// Formula 2 (expected velocity, for alert/safe nodes, from peers that carry
// a velocity estimate):
//
//     v_X = (1/n) · Σ_I  v_I
//
// Formula 3 (expected arrival time): the front near peer I is a line through
// I with outward normal v̂_I moving at |v_I|; it reaches X after the normal
// distance |IX|·cos φ_I (φ_I = angle between v_I and vec(I→X)) divided by
// |v_I|. PAS takes the minimum over peers; SAS degenerates to the scalar
// |IX|/|v_I| without the cosine projection and uses covered peers only.
#pragma once

#include <optional>
#include <span>

#include "core/observation.hpp"
#include "geom/vec2.hpp"
#include "sim/time.hpp"

namespace pas::core {

/// Knobs that turn the shared estimator into PAS or SAS.
struct PredictionPolicy {
  /// PAS: alert peers' (expected-velocity) info contributes to predictions.
  /// SAS: only covered peers do — stimulus info stays within one hop.
  bool use_alert_peers = true;
  /// PAS: project distance onto the front normal (|IX|·cosφ). SAS: scalar
  /// distance |IX| (its "simple method for local velocity estimation").
  bool cosine_projection = true;
  /// A contribution whose implied arrival lies more than this far in the
  /// past is falsified — the front demonstrably did not arrive (e.g. the
  /// stimulus stopped growing) — and is skipped, so stale covered-peer info
  /// cannot keep distant nodes alert forever.
  sim::Duration overdue_tolerance_s = 5.0;
};

/// Formula 1. Returns nullopt when no covered peer with an earlier
/// detection exists. Peers detected less than `min_dt_s` earlier are
/// skipped: a near-simultaneous detection means both nodes sat on the same
/// front line, so the chord IX runs *tangential* to the front — formula
/// 1's 1/t_I weighting would otherwise let that huge, wrongly-directed
/// contribution dominate the normal estimate.
[[nodiscard]] std::optional<geom::Vec2> actual_velocity(
    geom::Vec2 x_position, sim::Time x_detected_at,
    std::span<const PeerObservation> peers, sim::Duration min_dt_s = 1.0);

/// Formula 2. Mean of valid peer velocities (covered or alert peers).
/// Returns nullopt when no peer carries a valid velocity.
[[nodiscard]] std::optional<geom::Vec2> expected_velocity(
    std::span<const PeerObservation> peers);

/// Formula 3, in absolute time. For each usable peer the reference time the
/// front passes the peer is its detection time (covered) or its own
/// predicted arrival (alert; falls back to the observation timestamp when
/// the peer reported no prediction). Peers whose front moves away from X
/// (cos φ ≤ 0) predict "never" and are skipped. Returns kNever without
/// usable peers. The result is the *raw* minimum estimate — it may lie up
/// to overdue_tolerance_s in the past (an imminent-but-late front). It is
/// deliberately not clamped to `now`: a clamped estimate re-broadcast by an
/// alert node would look perpetually fresh to its neighbors and a boundary
/// alert belt could then keep itself awake forever after the front stops.
///
/// Computed as fold_arrival() over fresh arrival_term()s; PeerTable's
/// cached form must equal it bit for bit.
[[nodiscard]] sim::Time predict_arrival(geom::Vec2 x_position, sim::Time now,
                                        std::span<const PeerObservation> peers,
                                        const PredictionPolicy& policy);

/// arrival_term() of an eligible peer at X's own position: the front is at
/// X now. No real term is -∞, since reference times are finite.
inline constexpr sim::Time kFrontHere = sim::kLongAgo;

/// Formula 3's per-peer term: `ref + travel` for a peer that can
/// contribute, kNever for one that cannot (wrong state, no valid velocity,
/// speed ≤ 0, or cos φ ≤ 0 under cosine projection; checked in that
/// order), kFrontHere for an eligible co-located peer. Depends on the peer's
/// row, X's position and the policy's use_alert_peers/cosine_projection —
/// never on `now` or the overdue tolerance.
[[nodiscard]] sim::Time arrival_term(geom::Vec2 x_position,
                                     const PeerObservation& peer,
                                     const PredictionPolicy& policy);

/// Formula 3's fold over per-peer terms: `now` if any term is kFrontHere,
/// else the minimum of the terms not older than now − overdue_tolerance_s
/// (kNever if none).
[[nodiscard]] sim::Time fold_arrival(sim::Time now,
                                     std::span<const sim::Time> terms,
                                     sim::Duration overdue_tolerance_s);

/// Re-broadcast trigger (§3.2): a prediction change is significant when it
/// moved by more than `rel` of the previously announced remaining time
/// (floored at `abs_floor_s`), or when it appeared/disappeared entirely.
[[nodiscard]] bool significant_change(sim::Time previous_abs, sim::Time new_abs,
                                      sim::Time now, double rel = 0.2,
                                      sim::Duration abs_floor_s = 0.5);

}  // namespace pas::core
