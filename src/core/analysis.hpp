// Closed-form analysis of duty-cycled sensing.
//
// Without alerting, PAS degenerates to pure duty-cycled sampling, for which
// the expected detection delay and power draw have closed forms. The
// tests compare the simulator against them in the no-alert regime
// (tests/core/test_analysis.cpp). They also answer provisioning questions:
// given a hazard's required detection latency, the sleeping interval, and
// the node lifetime it buys.
#pragma once

#include "energy/power_profile.hpp"
#include "node/sleep_policy.hpp"
#include "sim/time.hpp"

namespace pas::core {

/// Expected detection delay for a node sampling with a saturated sleeping
/// interval L and an awake window w per cycle: arrivals landing in the
/// sleeping part of the cycle (probability L/(L+w)) wait U(0, L):
///
///     E[delay] = (L / (L + w)) · L / 2.
[[nodiscard]] double expected_delay_s(sim::Duration interval_s,
                                      sim::Duration awake_window_s);

/// Average power of a safe node duty-cycling at interval L with awake
/// window w: sleep draw during L, total-active draw during w, plus two
/// sleep↔active transitions and one REQUEST transmission per cycle.
[[nodiscard]] double duty_cycle_power_w(const energy::PowerProfile& profile,
                                        sim::Duration interval_s,
                                        sim::Duration awake_window_s,
                                        std::size_t request_bits);

/// Node lifetime in seconds on a battery of `capacity_j` joules at the
/// duty-cycle power above (infinite when power is 0).
[[nodiscard]] double lifetime_s(double capacity_j, double power_w);

/// Smallest saturated interval whose expected delay stays at or below
/// `target_delay_s` (the inverse of expected_delay_s in L; awake window w).
[[nodiscard]] sim::Duration interval_for_delay(sim::Duration target_delay_s,
                                               sim::Duration awake_window_s);

/// Mean interval experienced by an arrival at time `t_since_safe` after a
/// node (re-)entered safe state and started ramping: the ramp spends one
/// cycle at each interval until saturating, so early arrivals see shorter
/// intervals. Exact for the linear ramp; used by tests to predict delays in
/// mid-ramp regimes.
[[nodiscard]] sim::Duration interval_at(const node::SleepSchedule& schedule,
                                        sim::Duration t_since_safe);

}  // namespace pas::core
