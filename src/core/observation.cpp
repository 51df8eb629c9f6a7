#include "core/observation.hpp"

#include <algorithm>

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
  if (it != entries_.end() && it->id == obs.id) {
    *it = obs;
  } else {
    entries_.insert(it, obs);
  }
}

std::optional<PeerObservation> PeerTable::find(std::uint32_t id) const {
  const auto it = lower_bound_id(entries_, id);
  if (it == entries_.end() || it->id != id) return std::nullopt;
  return *it;
}

void PeerTable::expire_older_than(sim::Time cutoff) {
  std::erase_if(entries_, [cutoff](const PeerObservation& o) {
    return o.received_at < cutoff;
  });
}

}  // namespace pas::core
