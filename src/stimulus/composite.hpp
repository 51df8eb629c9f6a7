// Composite stimulus: the union of several independent stimuli.
//
// Environment-monitoring deployments routinely face multiple simultaneous
// releases (two leaks, a spill plus a plume). The composite is covered
// wherever any part is covered and the arrival time is the earliest part
// arrival — both of which preserve the outward-spreading assumption PAS
// relies on, per part.
#pragma once

#include <memory>
#include <vector>

#include "stimulus/field.hpp"

namespace pas::stimulus {

class CompositeModel final : public StimulusModel {
 public:
  /// Takes ownership of the parts; at least one is required.
  explicit CompositeModel(std::vector<std::unique_ptr<StimulusModel>> parts);

  [[nodiscard]] bool covered(geom::Vec2 p, sim::Time t) const override;
  /// Source of the first part (the composite has no single source).
  [[nodiscard]] geom::Vec2 source() const noexcept override;
  [[nodiscard]] sim::Time arrival_time(geom::Vec2 p,
                                       sim::Time horizon) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "composite";
  }
  /// The union loses coverage only if some part can.
  [[nodiscard]] bool recedes() const noexcept override;

  [[nodiscard]] std::size_t part_count() const noexcept { return parts_.size(); }
  [[nodiscard]] const StimulusModel& part(std::size_t i) const {
    return *parts_.at(i);
  }

 private:
  std::vector<std::unique_ptr<StimulusModel>> parts_;
};

}  // namespace pas::stimulus
