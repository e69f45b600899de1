// ShardEngine — the city-scale sharded federation.
//
// One World (Simulator + Medium + nodes) per spatial tile, advanced in
// rounds of one conservative horizon each:
//
//   round:   every tile runs sim.Run(target) — in parallel, one tile per
//            pool slot; a tile touches only its own world, its own
//            metrics registry and its own outbox, so rounds share no
//            mutable state.
//   barrier: the engine stages the scripted roams that fell due, then
//            runs one pool task per tile.  Each task gathers the events
//            addressed to its tile — ghost energy from its neighbors'
//            outboxes, read in place, plus the roams arriving at or
//            departing from it — sorts them into the canonical
//            (time, src_tile, node, seq) order and applies them at its
//            horizon tick: ghosts via Medium::InjectForeignEnergy, a
//            roam's departure (the origin tile) and arrival (the
//            destination tile) as session handoffs.  A task writes only
//            its own tile; the outboxes are cleared after the pool
//            returns.
//
// Determinism: the partition, the horizon, the canonical order and every
// per-tile seed derive from the scenario alone.  `shards` only sets the
// thread-pool width mapping tiles onto threads; `--shards N` therefore
// produces byte-identical science to `--shards 1` (shard_test and the CI
// byte-identity leg pin this).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "core/ap.h"
#include "core/client.h"
#include "obs/event_trace.h"
#include "obs/metrics.h"
#include "sim/traffic.h"
#include "sim/world.h"
#include "util/parallel.h"

#include "shard/audit_fanout.h"
#include "shard/boundary.h"
#include "shard/city.h"
#include "shard/partition.h"

namespace whitefi::shard {

/// Federation configuration.
struct ShardEngineConfig {
  /// Worker threads mapping tiles to cores.  Purely an execution knob:
  /// results are byte-identical for every value >= 1.
  int shards = 1;
  MediumParams medium;
  /// Conservative horizon per round; 0 derives PhysicalLookaheadBound().
  SimTime horizon = 0;
  /// Attach one InvariantAuditor per AP cell (incumbent safety, chirp
  /// liveness, convergence, book conservation) through an AuditFanout.
  bool audit = false;
  AuditConfig audit_config;
  /// Attach a per-tile EventTrace; the summary reports exact totals.
  bool trace = false;
};

/// The sharded city simulation.
class ShardEngine {
 public:
  /// Generates the city and builds every tile world.  Throws
  /// std::invalid_argument on bad parameters (shards < 1, city
  /// validation failures, tile edge below the cutoff).
  ShardEngine(const CityParams& city, const ShardEngineConfig& config);
  /// Builds the federation over a given layout (GenerateCity's output,
  /// possibly with edited roams, kept sorted by `at`); `city` still
  /// supplies the traffic shape, power and seed.
  ShardEngine(const CityParams& city, CityLayout layout,
              const ShardEngineConfig& config);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Advances the whole federation by `seconds` of simulated time.
  void Run(double seconds);

  /// Clears every tile's application-delivery counters (warmup cut).
  void ResetAppBytes();

  // -- Results -------------------------------------------------------------

  /// Deterministic run summary: integers only, identical for every shard
  /// count — the CI byte-identity diff target.  Never includes wall
  /// time or the shard count.
  std::string SummaryText() const;

  /// Counters summed across tiles, keyed by metric name.
  std::map<std::string, std::uint64_t> MergedCounters() const;

  /// Simulation events processed, summed across tiles.
  std::uint64_t EventsProcessed() const;

  /// Transmissions started, summed across tiles (ghosts included).
  std::uint64_t Transmissions() const;

  /// Application payload bytes delivered, summed across every cell.
  std::uint64_t AppBytesTotal() const;

  /// Payload bytes delivered within one cell's SSID.
  std::uint64_t CellAppBytes(int cell) const;

  /// Exact trace records offered across tiles (0 when tracing is off).
  std::uint64_t TraceTotal() const;

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t messages_shipped() const { return messages_shipped_; }
  std::uint64_t ghosts_injected() const { return ghosts_injected_; }
  std::uint64_t roams_applied() const { return roams_applied_; }

  bool audit_ok() const;
  std::uint64_t audit_violations() const;

  SimTime Now() const { return now_; }
  SimTime horizon() const { return horizon_; }
  int NumTiles() const { return layout_.partition.NumTiles(); }
  const CityLayout& layout() const { return layout_; }

  /// The tile's world (tests inspect books/metrics through it).
  World& tile_world(int tile) { return *tiles_[static_cast<std::size_t>(tile)]->world; }

 private:
  /// One cell's live protocol objects inside its tile.
  struct CellRuntime {
    int cell = -1;
    ApNode* ap = nullptr;
    std::vector<ClientNode*> clients;
    std::vector<std::unique_ptr<CbrSource>> cbr;
    std::vector<std::unique_ptr<SaturatedSource>> saturated;
    InvariantAuditor* auditor = nullptr;
  };

  struct Tile {
    int index = 0;
    std::unique_ptr<MetricsRegistry> metrics;
    std::unique_ptr<EventTrace> trace;
    std::unique_ptr<AuditFanout> fanout;
    std::unique_ptr<World> world;
    ShardOutbox outbox;
    std::vector<CellRuntime> cells;
    /// Tiles whose outboxes can hold ghost energy for this one (its
    /// 8-neighborhood; fixed by the partition).
    std::vector<int> sources;
    /// The barrier's canonically sorted events for this tile (pointers
    /// into the outboxes and roams_due_); capacity reused across rounds.
    std::vector<const CrossShardEvent*> inbox;
    /// Applied at the last barrier; summed by the engine after the pool.
    std::uint64_t ghosts_applied = 0;
    std::uint64_t roams_applied = 0;

    explicit Tile(int i) : index(i), outbox(i) {}
  };

  /// Where cell `c` lives: (tile, index within the tile's cell list).
  struct CellRef {
    int tile = -1;
    int index = -1;
  };

  void BuildTile(Tile& tile, const CityParams& city);
  void OnLocalEnergy(int tile, const Medium::EnergyTapInfo& info);
  void ExchangeAndApply(SimTime target);
  /// One tile's share of the barrier; runs on a pool thread.
  void ApplyInbound(Tile& tile);
  /// Pauses the roaming client's traffic in its origin tile.
  void DepartRoam(const CrossShardEvent& event);
  /// Brings the session up in the destination tile.
  void ArriveRoam(const CrossShardEvent& event, Tile& tile);
  CellRuntime& RuntimeOf(int cell);
  const CellRuntime& RuntimeOf(int cell) const;

  CityParams city_;
  ShardEngineConfig config_;
  CityLayout layout_;
  SimTime horizon_ = 0;
  Dbm cs_floor_ = 0.0;
  PropagationModel prop_;

  std::vector<std::unique_ptr<Tile>> tiles_;
  std::vector<CellRef> cell_refs_;
  std::unique_ptr<ThreadPool> pool_;
  /// Roams due at the current barrier, stamped by their origin tile's
  /// outbox.  Kept apart from the outboxes: a roam may stay inside its
  /// tile or land on a non-neighbor, where no neighbor scan would see it.
  std::vector<CrossShardEvent> roams_due_;

  SimTime now_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t messages_shipped_ = 0;
  std::uint64_t ghosts_injected_ = 0;
  std::uint64_t roams_applied_ = 0;
  std::size_t roam_cursor_ = 0;
};

}  // namespace whitefi::shard
