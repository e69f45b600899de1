#include "shard/boundary.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace whitefi::shard {

bool CanonicalBefore(const CrossShardEvent& a, const CrossShardEvent& b) {
  return std::tie(a.time, a.src_tile, a.node, a.seq) <
         std::tie(b.time, b.src_tile, b.node, b.seq);
}

void CanonicalSort(std::vector<const CrossShardEvent*>& events) {
  std::sort(events.begin(), events.end(),
            [](const CrossShardEvent* a, const CrossShardEvent* b) {
              return CanonicalBefore(*a, *b);
            });
}

bool EnergyCrossesBoundary(const PropagationModel& prop, Dbm tx_power,
                           const Position& from, const TileRect& dst,
                           Dbm floor_dbm) {
  const double meters = DistanceToRect(from, dst);
  return prop.ReceivedPower(tx_power, meters) >= floor_dbm;
}

void ShardOutbox::Push(CrossShardEvent event) {
  Stamp(event);
  events_.push_back(std::move(event));
}

void ShardOutbox::Stamp(CrossShardEvent& event) {
  event.src_tile = src_tile_;
  event.seq = next_seq_++;
}

}  // namespace whitefi::shard
