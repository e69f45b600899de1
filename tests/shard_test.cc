// Tests for the city-scale sharded federation (src/shard): the spatial
// partition and its interference-cutoff tile floor, the cross-shard
// event boundary (canonical order, CS-floor crossing predicate), the
// ghost-energy semantics in Medium, and the engine's central contract —
// byte-identical science at every shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "shard/boundary.h"
#include "shard/city.h"
#include "shard/engine.h"
#include "shard/partition.h"
#include "sim/events.h"
#include "sim/medium.h"
#include "sim/propagation.h"
#include "util/units.h"

namespace whitefi::shard {
namespace {

// ---------------------------------------------------------------------------
// Partition and lookahead.

TEST(PartitionTest, CutoffMatchesPathLossInverse) {
  PropagationParams prop;  // ref 28 dB, exponent 2.2, min distance 1 m.
  const double cutoff = InterferenceCutoffMeters(16.0, -85.0, prop);
  // Path loss at the cutoff brings 16 dBm exactly to the floor.
  const PropagationModel model(prop);
  EXPECT_NEAR(model.ReceivedPower(16.0, cutoff), -85.0, 1e-9);
  // And the closed form: d = 10^((tx - floor - ref) / (10 * exp)).
  EXPECT_NEAR(cutoff, std::pow(10.0, (16.0 + 85.0 - 28.0) / 22.0), 1e-6);
}

TEST(PartitionTest, MinTileEdgeUsesTheLowerCarrierSenseFloor) {
  MediumParams medium;  // same_channel -85 dBm, energy_detect -62 dBm.
  const double edge = MinTileEdgeMeters(medium, 16.0);
  EXPECT_NEAR(edge, InterferenceCutoffMeters(16.0, -85.0, medium.propagation),
              1e-9);
  // The -85 floor is the binding one: it admits energy from farther away.
  EXPECT_GT(edge, InterferenceCutoffMeters(16.0, -62.0, medium.propagation));
}

TEST(PartitionTest, LookaheadCoversAMaxFrameAtTheNarrowestWidth) {
  const SimTime bound = PhysicalLookaheadBound();
  EXPECT_GT(bound, 0);
  // 1500 bytes at kW5 — the longest airtime any single frame can take.
  EXPECT_GE(static_cast<double>(bound),
            PhyTiming::ForWidth(ChannelWidth::kW5).FrameDuration(1500));
}

TEST(PartitionTest, TilesCoverTheExtentAndClampOutOfRangePositions) {
  const Partition part(10000.0, 6000.0, 2100.0);
  EXPECT_EQ(part.cols(), 4);  // floor(10000 / 2100)
  EXPECT_EQ(part.rows(), 2);
  EXPECT_EQ(part.NumTiles(), 8);
  EXPECT_GE(part.tile_width_m(), 2100.0);
  EXPECT_GE(part.tile_height_m(), 2100.0);
  EXPECT_EQ(part.TileOf({0.0, 0.0}), 0);
  EXPECT_EQ(part.TileOf({9999.0, 5999.0}), part.NumTiles() - 1);
  // Clamped, never out of range.
  EXPECT_EQ(part.TileOf({-50.0, -50.0}), 0);
  EXPECT_EQ(part.TileOf({20000.0, 20000.0}), part.NumTiles() - 1);
  for (int t = 0; t < part.NumTiles(); ++t) {
    const TileRect r = part.Rect(t);
    EXPECT_LT(r.x0, r.x1);
    EXPECT_LT(r.y0, r.y1);
    EXPECT_EQ(part.TileOf({(r.x0 + r.x1) / 2.0, (r.y0 + r.y1) / 2.0}), t);
  }
}

TEST(PartitionTest, NeighborsAreThe8NeighborhoodSorted) {
  const Partition part(9000.0, 9000.0, 3000.0);  // 3 x 3 tiles.
  EXPECT_EQ(part.Neighbors(4), (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8}));
  EXPECT_EQ(part.Neighbors(0), (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(part.Neighbors(8), (std::vector<int>{4, 5, 7}));
}

TEST(PartitionTest, DistanceToRectIsZeroInsideAndClampedOutside) {
  const TileRect rect{100.0, 100.0, 200.0, 200.0};
  EXPECT_EQ(DistanceToRect({150.0, 150.0}, rect), 0.0);
  EXPECT_NEAR(DistanceToRect({50.0, 150.0}, rect), 50.0, 1e-12);
  EXPECT_NEAR(DistanceToRect({250.0, 260.0}, rect),
              std::sqrt(50.0 * 50.0 + 60.0 * 60.0), 1e-12);
}

// ---------------------------------------------------------------------------
// Boundary predicate and canonical order.

TEST(BoundaryTest, EnergyExactlyAtTheFloorCrosses) {
  MediumParams medium;
  const PropagationModel prop(medium.propagation);
  const double cutoff =
      InterferenceCutoffMeters(16.0, medium.same_channel_cs_dbm,
                               medium.propagation);
  // A destination rect whose nearest edge sits exactly at the cutoff:
  // received power == the floor, and the medium's carrier sense uses >=,
  // so the boundary must ship it.
  const TileRect at{cutoff, -100.0, cutoff + 1000.0, 100.0};
  EXPECT_TRUE(EnergyCrossesBoundary(prop, 16.0, {0.0, 0.0}, at,
                                    medium.same_channel_cs_dbm));
  // One meter farther: below the floor, never shipped.
  const TileRect beyond{cutoff + 1.0, -100.0, cutoff + 1000.0, 100.0};
  EXPECT_FALSE(EnergyCrossesBoundary(prop, 16.0, {0.0, 0.0}, beyond,
                                     medium.same_channel_cs_dbm));
}

TEST(BoundaryTest, CanonicalOrderIsTimeTileNodeSeq) {
  auto make = [](SimTime t, int tile, int node, std::uint64_t seq) {
    CrossShardEvent e;
    e.time = t;
    e.src_tile = tile;
    e.node = node;
    e.seq = seq;
    return e;
  };
  const std::vector<CrossShardEvent> storage = {
      make(200, 0, 5, 0), make(100, 1, 9, 3), make(100, 0, 9, 2),
      make(100, 0, 3, 7)};
  std::vector<const CrossShardEvent*> events;
  for (const CrossShardEvent& e : storage) events.push_back(&e);
  CanonicalSort(events);
  EXPECT_EQ(events[0]->node, 3);   // (100, 0, 3, 7)
  EXPECT_EQ(events[1]->seq, 2u);   // (100, 0, 9, 2)
  EXPECT_EQ(events[2]->src_tile, 1);
  EXPECT_EQ(events[3]->time, 200);
}

TEST(BoundaryTest, OutboxStampsTileAndMonotonicSeq) {
  ShardOutbox outbox(7);
  CrossShardEvent e;
  e.kind = CrossShardEvent::Kind::kRemoteEnergy;
  outbox.Push(e);
  outbox.Push(e);
  ASSERT_EQ(outbox.events().size(), 2u);
  EXPECT_EQ(outbox.events()[0].src_tile, 7);
  EXPECT_EQ(outbox.events()[0].seq, 0u);
  EXPECT_EQ(outbox.events()[1].seq, 1u);
  const std::size_t capacity = outbox.events().capacity();
  outbox.Clear();
  EXPECT_TRUE(outbox.events().empty());
  // Clear keeps the buffer: the barrier reuses it round after round.
  EXPECT_EQ(outbox.events().capacity(), capacity);
  // The stream keeps counting across Clear calls — seqs never repeat,
  // including for events stamped but staged elsewhere (roams).
  CrossShardEvent roam;
  roam.kind = CrossShardEvent::Kind::kRoam;
  outbox.Stamp(roam);
  EXPECT_EQ(roam.src_tile, 7);
  EXPECT_EQ(roam.seq, 2u);
  EXPECT_TRUE(outbox.events().empty());
  outbox.Push(e);
  EXPECT_EQ(outbox.events()[0].seq, 3u);
}

// ---------------------------------------------------------------------------
// Ghost energy in the medium.

class GhostRadio : public RadioPort {
 public:
  GhostRadio(int id, Position pos, Channel channel, bool is_ap = false)
      : id_(id), pos_(pos), channel_(channel), is_ap_(is_ap) {}
  int NodeId() const override { return id_; }
  Position Location() const override { return pos_; }
  const Channel& TunedChannel() const override { return channel_; }
  bool RxEnabled() const override { return true; }
  bool IsAp() const override { return is_ap_; }
  void DeliverFrame(const Frame& frame, Dbm) override {
    delivered.push_back(frame);
  }
  void MediumChanged() override {}
  std::vector<Frame> delivered;

 private:
  int id_;
  Position pos_;
  Channel channel_;
  bool is_ap_;
};

TEST(GhostEnergyTest, SensedBookedNeverDeliveredNeverReExported) {
  Simulator sim;
  Medium medium(sim, MediumParams{});
  const Channel ch{10, ChannelWidth::kW5};
  GhostRadio rx(1, {0.0, 0.0}, ch);
  medium.Register(&rx);
  int energy_taps = 0;
  medium.AddEnergyTap([&](const Medium::EnergyTapInfo&) { ++energy_taps; });
  int frame_taps = 0;
  medium.AddFrameTap(
      [&](const Channel&, const Frame&, const RadioPort&) { ++frame_taps; });

  Frame f;
  f.type = FrameType::kData;
  f.src = 900001;
  f.dst = 900002;
  f.bytes = 1000;
  medium.InjectForeignEnergy(900001, /*is_ap=*/true, {50.0, 0.0}, ch, f,
                             16.0, 400);
  // Carrier present while the ghost is on the air...
  EXPECT_TRUE(medium.CarrierSensed(rx, ch));
  sim.Run(1000);
  // ...never delivered (the frame terminates in its owning shard),
  EXPECT_TRUE(rx.delivered.empty());
  // ...but visible to frame taps (scanners/chirp watches measure it),
  EXPECT_EQ(frame_taps, 1);
  // ...and the energy tap stays silent: a ghost must never be
  // re-exported, or two shards would echo energy forever.
  EXPECT_EQ(energy_taps, 0);
  // Booked airtime under the foreign node id, and ApIds includes the
  // foreign AP so B_c estimation counts it.
  const ChannelBooks& books = medium.ChannelBooksAt(10);
  ASSERT_TRUE(books.per_node.count(900001));
  EXPECT_NEAR(books.per_node.at(900001), 400.0, 1e-9);
  const std::vector<int> aps = medium.ApIds();
  EXPECT_NE(std::find(aps.begin(), aps.end(), 900001), aps.end());
}

TEST(GhostEnergyTest, LocalEnergyTapReportsExactPowerAndInterval) {
  Simulator sim;
  Medium medium(sim, MediumParams{});
  const Channel ch{3, ChannelWidth::kW5};
  GhostRadio tx(1, {10.0, 20.0}, ch, /*is_ap=*/true);
  medium.Register(&tx);
  std::vector<std::tuple<Dbm, SimTime, SimTime, int>> taps;
  medium.AddEnergyTap([&](const Medium::EnergyTapInfo& info) {
    taps.emplace_back(info.power, info.start, info.end, info.tx.NodeId());
  });
  sim.Schedule(100, [&] {
    Frame f;
    f.type = FrameType::kData;
    f.src = 1;
    f.bytes = 500;
    medium.Transmit(&tx, ch, f, 14.5, 250, [] {});
  });
  sim.Run(1000);
  ASSERT_EQ(taps.size(), 1u);
  EXPECT_EQ(std::get<0>(taps[0]), 14.5);
  EXPECT_EQ(std::get<1>(taps[0]), 100);
  EXPECT_EQ(std::get<2>(taps[0]), 350);
  EXPECT_EQ(std::get<3>(taps[0]), 1);
}

TEST(GhostEnergyTest, PerChannelBooksMatchTheFullSnapshotBitForBit) {
  Simulator sim;
  Medium medium(sim, MediumParams{});
  const Channel ch{5, ChannelWidth::kW10};  // Spans UHF indices 5 and 6.
  GhostRadio tx(1, {0.0, 0.0}, ch);
  medium.Register(&tx);
  Frame f;
  f.type = FrameType::kData;
  f.src = 1;
  f.bytes = 700;
  medium.Transmit(&tx, ch, f, 16.0, 321, [] {});
  medium.InjectForeignEnergy(777, false, {30.0, 0.0},
                             Channel{6, ChannelWidth::kW5}, f, 12.0, 100);
  sim.Run(500);
  const AirtimeBooks all = medium.SnapshotBooks();
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    const ChannelBooks& one = medium.ChannelBooksAt(c);
    const ChannelBooks& full = all[static_cast<std::size_t>(c)];
    EXPECT_EQ(one.busy, full.busy) << "channel " << c;
    EXPECT_EQ(one.per_node, full.per_node) << "channel " << c;
  }
}

TEST(GhostEnergyTest, OverlappingGhostsPinALocalReceptionAtTheThreshold) {
  // A local frame whose receiver sits between two ghosts: one injected
  // before the frame starts, one while it is on the air (and overlapping
  // the first).  Each ghost alone leaves the SINR ~2.5 dB above the
  // decode threshold; together they push it ~0.5 dB below.  A ghost keeps
  // no interferer list of its own, but both must land in the local
  // frame's list, or the drop turns into a delivery.
  const MediumParams params;
  const PropagationModel prop(params.propagation);
  const Channel ch{10, ChannelWidth::kW5};
  const Position tx_pos{0.0, 0.0};
  const Position rx_pos{200.0, 0.0};
  const Position g1_pos{200.0, 1500.0};
  const Position g2_pos{200.0, -1500.0};
  const Dbm signal = prop.ReceivedPower(16.0, tx_pos, rx_pos);
  // Each ghost arrives 10*log10(71.6) dB under the signal.
  const Dbm ghost_at_rx = signal - 10.0 * std::log10(71.6);
  const Dbm ghost_power = ghost_at_rx + 16.0 - prop.ReceivedPower(16.0, 1500.0);

  struct Outcome {
    std::size_t delivered;
    std::uint64_t drops;
    ChannelBooks books;
  };
  const auto run = [&](bool early_ghost, bool late_ghost) {
    Simulator sim;
    Medium medium(sim, params);
    MetricsRegistry metrics;
    Observability obs;
    obs.metrics = &metrics;
    medium.SetObservability(obs);
    GhostRadio tx(1, tx_pos, ch), rx(2, rx_pos, ch);
    medium.Register(&tx);
    medium.Register(&rx);
    Frame f;
    f.type = FrameType::kData;
    f.src = 1;
    f.dst = 2;
    f.bytes = 300;
    if (early_ghost) {
      medium.InjectForeignEnergy(900001, false, g1_pos, ch, f, ghost_power,
                                 1000);
    }
    sim.Schedule(100, [&] { medium.Transmit(&tx, ch, f, 16.0, 500, [] {}); });
    if (late_ghost) {
      sim.Schedule(300, [&] {
        medium.InjectForeignEnergy(900002, true, g2_pos, ch, f, ghost_power,
                                   1000);
      });
    }
    sim.Run(2000);
    return Outcome{rx.delivered.size(),
                   metrics.GetCounter("whitefi.medium.drop.Data").value(),
                   medium.ChannelBooksAt(10)};
  };

  const Outcome both = run(true, true);
  EXPECT_EQ(both.delivered, 0u);
  EXPECT_EQ(both.drops, 1u);
  // Books: the union [0, 1300) and each transmitter's full airtime.
  EXPECT_EQ(both.books.busy, 1300.0);
  EXPECT_EQ(both.books.per_node,
            (std::map<int, Us>{{1, 500.0}, {900001, 1000.0}, {900002, 1000.0}}));

  for (const auto& [early, late] :
       {std::pair{true, false}, std::pair{false, true}, std::pair{false, false}}) {
    const Outcome one = run(early, late);
    EXPECT_EQ(one.delivered, 1u) << "early " << early << " late " << late;
    EXPECT_EQ(one.drops, 0u);
  }
}

// ---------------------------------------------------------------------------
// City generation.

TEST(CityTest, LayoutIsDeterministicAndTileLocal) {
  CityParams params;
  params.num_aps = 30;
  params.width_m = 9000.0;
  params.height_m = 9000.0;
  params.num_mics = 3;
  params.num_roams = 4;
  const MediumParams medium;
  const CityLayout a = GenerateCity(params, medium);
  const CityLayout b = GenerateCity(params, medium);
  ASSERT_EQ(a.cells.size(), 30u);
  ASSERT_EQ(b.cells.size(), 30u);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].ap.x, b.cells[i].ap.x);
    EXPECT_EQ(a.cells[i].ap.y, b.cells[i].ap.y);
    EXPECT_EQ(a.cells[i].main, b.cells[i].main);
    // Tile-locality: every client lives in its AP's tile, so the only
    // cross-tile traffic is undecodable ghost energy.
    for (const Position& c : a.cells[i].clients) {
      EXPECT_EQ(a.partition.TileOf(c), a.cells[i].tile);
    }
    EXPECT_EQ(a.partition.TileOf(a.cells[i].ap), a.cells[i].tile);
  }
  ASSERT_EQ(a.mics.size(), 3u);
  ASSERT_EQ(a.mic_tile.size(), 3u);
  ASSERT_EQ(a.roams.size(), 4u);
  for (const RoamPlan& r : a.roams) {
    EXPECT_NE(r.from_cell, r.to_cell);
    EXPECT_EQ(a.partition.TileOf(r.arrive), a.cells[r.to_cell].tile);
  }
}

TEST(CityTest, RejectsTileEdgeBelowTheCutoffAndRoamsWithoutCbr) {
  CityParams params;
  params.tile_m = 500.0;  // Far below the ~2 km cutoff at 16 dBm.
  // The floor needs the medium's propagation model, so the rejection
  // happens at generation time.
  EXPECT_THROW(GenerateCity(params, MediumParams{}), std::invalid_argument);
  CityParams sat;
  sat.traffic = "saturated";
  sat.num_roams = 1;
  EXPECT_THROW(ValidateCityParams(sat), std::invalid_argument);
  CityParams bad;
  bad.traffic = "bursty";
  EXPECT_THROW(ValidateCityParams(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The engine: shard-count invariance.

CityParams SmallCity() {
  CityParams params;
  params.seed = 11;
  params.width_m = 9000.0;
  params.height_m = 9000.0;  // ~4x4 tiles at the default cutoff.
  params.num_aps = 24;
  params.clients_per_ap = 2;
  params.num_mics = 2;
  params.mic_start_s = 0.5;
  params.mic_period_s = 0.5;
  params.mic_duration_s = 0.5;
  params.num_roams = 2;
  params.roam_start_s = 0.5;
  params.roam_period_s = 0.5;
  return params;
}

/// Asserts that two engines produced the same science: summary, merged
/// counters, trace totals and every tile's events and airtime books.
void ExpectSameScience(ShardEngine& ref, ShardEngine& other) {
  // The whole deterministic summary, byte for byte.
  EXPECT_EQ(ref.SummaryText(), other.SummaryText()) << "shards differ";
  // Merged metrics: every counter, exact.
  EXPECT_EQ(ref.MergedCounters(), other.MergedCounters());
  // Exact trace record counts (TotalSeen is cap-independent).
  EXPECT_EQ(ref.TraceTotal(), other.TraceTotal());
  EXPECT_EQ(ref.EventsProcessed(), other.EventsProcessed());
  EXPECT_EQ(ref.messages_shipped(), other.messages_shipped());
  // Airtime books bit-equal in every tile world: the union busy time
  // and every per-node entry, ghosts included.
  ASSERT_EQ(ref.NumTiles(), other.NumTiles());
  for (int t = 0; t < ref.NumTiles(); ++t) {
    EXPECT_EQ(ref.tile_world(t).sim().NumProcessed(),
              other.tile_world(t).sim().NumProcessed())
        << "tile " << t;
    const AirtimeBooks a = ref.tile_world(t).medium().SnapshotBooks();
    const AirtimeBooks b = other.tile_world(t).medium().SnapshotBooks();
    for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      EXPECT_EQ(a[ci].busy, b[ci].busy) << "tile " << t << " ch " << c;
      EXPECT_EQ(a[ci].per_node, b[ci].per_node)
          << "tile " << t << " ch " << c;
    }
  }
}

TEST(ShardEngineTest, SummariesAndBooksAreInvariantAcrossShardCounts) {
  const CityParams city = SmallCity();
  ShardEngineConfig config;
  config.trace = true;
  std::vector<std::unique_ptr<ShardEngine>> engines;
  for (int shards : {1, 2, 4}) {
    config.shards = shards;
    engines.push_back(std::make_unique<ShardEngine>(city, config));
    engines.back()->Run(1.5);
  }
  ShardEngine& ref = *engines[0];
  EXPECT_GT(ref.EventsProcessed(), 0u);
  EXPECT_GT(ref.ghosts_injected(), 0u);
  EXPECT_EQ(ref.roams_applied(), 2u);
  for (std::size_t i = 1; i < engines.size(); ++i) {
    ExpectSameScience(ref, *engines[i]);
  }
}

TEST(ShardEngineTest, MixedBarrierOnOneTileIsInvariantAcrossShardCounts) {
  // One barrier hands a single destination tile all three kinds of
  // inbound work: ghost energy from its neighbors, a roam that stays
  // inside the tile, and a roam from a tile outside its 8-neighborhood
  // (which no neighbor-outbox scan would find).
  CityParams city;
  city.seed = 5;
  city.width_m = 10500.0;
  city.height_m = 10500.0;  // 5 x 5 tiles at the default cutoff.
  city.num_aps = 64;
  ShardEngineConfig config;
  config.trace = true;
  CityLayout layout = GenerateCity(city, config.medium);
  ASSERT_EQ(layout.partition.NumTiles(), 25);

  // Destination: a tile with two cells; source: a cell beyond its
  // neighborhood.
  int dst = -1, a = -1, b = -1, far = -1;
  for (int t = 0; t < layout.partition.NumTiles() && b < 0; ++t) {
    a = -1;
    for (std::size_t c = 0; c < layout.cells.size(); ++c) {
      if (layout.cells[c].tile != t) continue;
      if (a < 0) {
        a = static_cast<int>(c);
      } else {
        b = static_cast<int>(c);
        dst = t;
        break;
      }
    }
  }
  ASSERT_GE(b, 0);
  const std::vector<int> near = layout.partition.Neighbors(dst);
  for (std::size_t c = 0; c < layout.cells.size() && far < 0; ++c) {
    const int t = layout.cells[c].tile;
    if (t != dst && std::find(near.begin(), near.end(), t) == near.end()) {
      far = static_cast<int>(c);
    }
  }
  ASSERT_GE(far, 0);

  const SimTime horizon = PhysicalLookaheadBound();
  const SimTime at = 10 * horizon + 1000;  // Applied at barrier 11.
  layout.roams = {
      RoamPlan{.at = at, .from_cell = a, .to_cell = b, .client_slot = 0,
               .arrive = layout.cells[static_cast<std::size_t>(b)].clients[0]},
      RoamPlan{.at = at, .from_cell = far, .to_cell = a, .client_slot = 1,
               .arrive = layout.cells[static_cast<std::size_t>(a)].clients[1]},
  };

  const auto foreign_energy = [dst](ShardEngine& engine) {
    return engine.tile_world(dst)
        .metrics()
        ->GetCounter("whitefi.medium.foreign_energy")
        .value();
  };
  std::vector<std::unique_ptr<ShardEngine>> engines;
  for (int shards : {1, 2, 4, 8}) {
    config.shards = shards;
    engines.push_back(std::make_unique<ShardEngine>(city, layout, config));
    ShardEngine& engine = *engines.back();
    engine.Run(ToSeconds(10 * horizon));
    EXPECT_EQ(engine.roams_applied(), 0u);
    const std::uint64_t ghosts_before = foreign_energy(engine);
    engine.Run(ToSeconds(horizon));
    EXPECT_EQ(engine.roams_applied(), 2u);
    EXPECT_GT(foreign_energy(engine), ghosts_before)
        << "no ghosts reached tile " << dst << " at the roam barrier";
    engine.Run(0.3);
  }
  EXPECT_GT(engines[0]->CellAppBytes(b), 0u);
  for (std::size_t i = 1; i < engines.size(); ++i) {
    ExpectSameScience(*engines[0], *engines[i]);
  }
}

TEST(ShardEngineTest, RoamsApplyAtTheFollowingHorizonTick) {
  CityParams city = SmallCity();
  city.num_mics = 0;
  city.num_roams = 1;
  city.roam_start_s = 0.25;
  ShardEngineConfig config;
  ShardEngine engine(city, config);
  const RoamPlan& plan = engine.layout().roams[0];
  // Run to just before the roam falls due: nothing applied yet.
  const double before_s =
      static_cast<double>(plan.at - 1) / static_cast<double>(kTicksPerSec);
  engine.Run(before_s);
  EXPECT_EQ(engine.roams_applied(), 0u);
  // One more horizon round covers plan.at; the handoff lands at that
  // barrier, never mid-round.
  engine.Run(static_cast<double>(engine.horizon()) /
             static_cast<double>(kTicksPerSec));
  EXPECT_EQ(engine.roams_applied(), 1u);
  EXPECT_GE(engine.Now(), plan.at);
}

TEST(ShardEngineTest, AuditedRunHoldsEveryInvariant) {
  CityParams city = SmallCity();
  ShardEngineConfig config;
  config.shards = 2;
  config.audit = true;
  ShardEngine engine(city, config);
  engine.Run(1.0);
  EXPECT_TRUE(engine.audit_ok()) << engine.audit_violations()
                                 << " violation(s)";
}

TEST(ShardEngineTest, ResetAppBytesCutsTheWarmup) {
  CityParams city = SmallCity();
  city.num_mics = 0;
  city.num_roams = 0;
  ShardEngineConfig config;
  ShardEngine engine(city, config);
  engine.Run(0.5);
  EXPECT_GT(engine.AppBytesTotal(), 0u);
  engine.ResetAppBytes();
  EXPECT_EQ(engine.AppBytesTotal(), 0u);
  engine.Run(0.5);
  EXPECT_GT(engine.AppBytesTotal(), 0u);
}

TEST(ShardEngineTest, RejectsNonPositiveShardCount) {
  ShardEngineConfig config;
  config.shards = 0;
  EXPECT_THROW(ShardEngine(SmallCity(), config), std::invalid_argument);
}

}  // namespace
}  // namespace whitefi::shard
