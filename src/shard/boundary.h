// The deterministic cross-shard event boundary.
//
// During a round each tile's world runs alone on its thread; everything
// that must cross a tile seam is recorded in the owning tile's outbox as
// a timestamped CrossShardEvent.  At the barrier every receiving tile
// gathers the events addressed to it, sorts them into the canonical order
// (time, src_tile, node, seq) and applies them at its horizon tick.  The
// canonical key is unique, so each tile's sequence is the global order
// restricted to that tile.  Because the partition, the horizon and the
// canonical order are all functions of the scenario — never of the shard
// count — any `--shards N` run applies the identical event sequence in
// every tile and the federation is byte-identical to the serial run.
//
// Two event kinds cross a seam:
//  * RemoteEnergy — a completed local transmission whose received power
//    at the nearest point of a neighbor tile still reaches the
//    carrier-sense floor (energy exactly AT the floor crosses; an epsilon
//    below does not).  Re-emitted as ghost energy via
//    Medium::InjectForeignEnergy: sensed, booked and frame-tapped at the
//    destination (so scanners measure it and chirp watches hear roamers'
//    chirps), never delivered, never re-exported.
//  * Roam — a scripted client session handoff between cells; applied at
//    the barrier tick by deactivating the client's traffic in the origin
//    cell and bringing up a new client in the destination cell.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/frame.h"
#include "sim/medium.h"
#include "sim/propagation.h"
#include "spectrum/channel.h"
#include "util/units.h"

#include "shard/partition.h"

namespace whitefi::shard {

/// One event crossing a tile seam.
struct CrossShardEvent {
  enum class Kind { kRemoteEnergy, kRoam };

  Kind kind = Kind::kRemoteEnergy;
  SimTime time = 0;        ///< Origin-tile simulated time of the event.
  int src_tile = 0;
  int dst_tile = 0;
  int node = 0;            ///< Transmitter id, or the roaming client id.
  std::uint64_t seq = 0;   ///< Per-outbox emission sequence (tie-break).

  // -- RemoteEnergy payload ------------------------------------------------
  bool is_ap = false;
  Position position;       ///< Transmitter location (for path loss).
  Channel channel{0, ChannelWidth::kW5};
  Frame frame;
  Dbm tx_power = 0.0;
  SimTime duration = 0;    ///< Full original air time.

  // -- Roam payload --------------------------------------------------------
  int from_cell = -1;
  int to_cell = -1;
  int client_slot = -1;    ///< Index of the client within from_cell.
};

/// The canonical application order: (time, src_tile, node, seq).  Total
/// over events from one run because `seq` is unique per (src_tile).
bool CanonicalBefore(const CrossShardEvent& a, const CrossShardEvent& b);

/// Sorts a tile's inbox (pointers into the outboxes) into the canonical
/// order.  Keys are unique, so no tie-break is needed.
void CanonicalSort(std::vector<const CrossShardEvent*>& events);

/// True iff energy from a transmitter at `from` with `tx_power` reaches
/// the carrier-sense floor anywhere inside `dst` — evaluated at the
/// nearest point of the rectangle, since path loss is monotone in
/// distance.  Received power exactly AT the floor ships (>=): the medium
/// senses carrier at the threshold, so the boundary must too.
bool EnergyCrossesBoundary(const PropagationModel& prop, Dbm tx_power,
                           const Position& from, const TileRect& dst,
                           Dbm floor_dbm);

/// Single-writer per-tile event staging.  The owning tile's thread pushes
/// during its round; at the barrier the receiving tiles read the staged
/// events in place (read-only, concurrently), then the engine clears it.
class ShardOutbox {
 public:
  explicit ShardOutbox(int src_tile) : src_tile_(src_tile) {}

  /// Stamps src_tile and the next sequence number, then stores the event.
  void Push(CrossShardEvent event);

  /// Stamps src_tile and the next sequence number without storing: for
  /// events staged elsewhere that share this tile's sequence stream.
  void Stamp(CrossShardEvent& event);

  /// Everything staged since the last Clear, in push order.
  const std::vector<CrossShardEvent>& events() const { return events_; }

  /// Drops the staged events, keeping the buffer's capacity.  The
  /// sequence stream keeps counting: seqs never repeat.
  void Clear() { events_.clear(); }

  int src_tile() const { return src_tile_; }

 private:
  int src_tile_;
  std::uint64_t next_seq_ = 0;
  std::vector<CrossShardEvent> events_;
};

}  // namespace whitefi::shard
