// Ground-truth arrival schedule for a set of node positions.
//
// The world builder evaluates the stimulus model once per node and caches
// first-arrival times; the simulator schedules per-node arrival events from
// this map and the metrics layer scores detection delay against it.
//
// The map also holds each node's stimulus::Site, built by the same model:
// a waking node senses with model.covered_at(site(i), now), so the terms
// that depend on its fixed position are computed once per replication, not
// at every wake. Only the model that built the map may read its sites;
// built_by() tells which one did (core::Protocol checks it).
#pragma once

#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "sim/time.hpp"
#include "stimulus/field.hpp"

namespace pas::stimulus {

class ArrivalMap {
 public:
  ArrivalMap() = default;
  ArrivalMap(const StimulusModel& model, std::span<const geom::Vec2> positions,
             sim::Time horizon);

  /// Recomputes the map in place, reusing both buffers — the
  /// world::Workspace path between replications: one site per node, then
  /// one arrival_many call over the sites.
  void assign(const StimulusModel& model, std::span<const geom::Vec2> positions,
              sim::Time horizon);

  /// True when the last assign() used `model` (the same object).
  [[nodiscard]] bool built_by(const StimulusModel& model) const noexcept {
    return model_ == &model;
  }

  [[nodiscard]] std::size_t size() const noexcept { return times_.size(); }

  /// Arrival time of node `i`; sim::kNever if unreached by the horizon.
  [[nodiscard]] sim::Time at(std::size_t i) const { return times_.at(i); }

  [[nodiscard]] const std::vector<sim::Time>& times() const noexcept {
    return times_;
  }

  /// Node `i`'s site, for the model that built the map.
  [[nodiscard]] const Site& site(std::size_t i) const noexcept {
    return sites_[i];
  }

  /// Number of nodes covered at or before `t`.
  [[nodiscard]] std::size_t covered_count(sim::Time t) const noexcept;

  /// Earliest finite arrival; kNever when no node is ever reached.
  [[nodiscard]] sim::Time first_arrival() const noexcept;

  /// Latest finite arrival; kNever when no node is ever reached.
  [[nodiscard]] sim::Time last_arrival() const noexcept;

  /// Count of nodes that are eventually reached.
  [[nodiscard]] std::size_t reached_count() const noexcept;

 private:
  std::vector<sim::Time> times_;
  std::vector<Site> sites_;
  // Compared, never dereferenced: the model may be gone by the next assign.
  const StimulusModel* model_ = nullptr;
};

}  // namespace pas::stimulus
