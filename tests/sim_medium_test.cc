// Tests for the radio medium: exact-channel delivery, width dropping,
// cross-width carrier sense, SINR collisions, airtime books, frame taps,
// and half-duplex behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/medium.h"
#include "util/units.h"

namespace whitefi {
namespace {

/// Minimal scriptable radio for medium-level tests.
class FakeRadio : public RadioPort {
 public:
  FakeRadio(int id, Position pos, Channel channel, bool is_ap = false)
      : id_(id), pos_(pos), channel_(channel), is_ap_(is_ap) {}

  int NodeId() const override { return id_; }
  Position Location() const override { return pos_; }
  const Channel& TunedChannel() const override { return channel_; }
  bool RxEnabled() const override { return rx_enabled; }
  bool IsAp() const override { return is_ap_; }
  void DeliverFrame(const Frame& frame, Dbm power) override {
    delivered.push_back(frame);
    powers.push_back(power);
  }
  void MediumChanged() override { ++medium_changes; }

  void Tune(const Channel& c) { channel_ = c; }

  bool rx_enabled = true;
  std::vector<Frame> delivered;
  std::vector<Dbm> powers;
  int medium_changes = 0;

 private:
  int id_;
  Position pos_;
  Channel channel_;
  bool is_ap_;
};

Frame DataFrame(int src, int dst, int bytes = 1028) {
  Frame f;
  f.type = FrameType::kData;
  f.src = src;
  f.dst = dst;
  f.bytes = bytes;
  return f;
}

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : medium_(sim_, MediumParams{}) {}

  Simulator sim_;
  Medium medium_;
};

TEST_F(MediumTest, DeliversToSameChannelRadio) {
  const Channel ch{10, ChannelWidth::kW20};
  FakeRadio tx(1, {0, 0}, ch), rx(2, {100, 0}, ch);
  medium_.Register(&tx);
  medium_.Register(&rx);
  bool ended = false;
  medium_.Transmit(&tx, ch, DataFrame(1, 2), 16.0, 200, [&] { ended = true; });
  sim_.Run(1000);
  EXPECT_TRUE(ended);
  ASSERT_EQ(rx.delivered.size(), 1u);
  EXPECT_EQ(rx.delivered[0].src, 1);
  EXPECT_TRUE(tx.delivered.empty());  // Sender does not hear itself.
  // Received power matches propagation at 100 m.
  EXPECT_NEAR(rx.powers[0], 16.0 - (28.0 + 22.0 * 2.0), 1e-6);
}

TEST_F(MediumTest, DropsDifferentWidthSameCenter) {
  // Paper 5.4: "we explicitly drop packets that were sent at a different
  // channel width".
  const Channel tx_ch{10, ChannelWidth::kW20};
  const Channel rx_ch{10, ChannelWidth::kW10};
  FakeRadio tx(1, {0, 0}, tx_ch), rx(2, {50, 0}, rx_ch);
  medium_.Register(&tx);
  medium_.Register(&rx);
  medium_.Transmit(&tx, tx_ch, DataFrame(1, 2), 16.0, 200, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(rx.delivered.empty());
  // But the overlapping-energy notification did fire (carrier sense).
  EXPECT_GT(rx.medium_changes, 0);
}

TEST_F(MediumTest, DropsDifferentCenterSameWidth) {
  const Channel a{5, ChannelWidth::kW5};
  const Channel b{6, ChannelWidth::kW5};
  FakeRadio tx(1, {0, 0}, a), rx(2, {50, 0}, b);
  medium_.Register(&tx);
  medium_.Register(&rx);
  medium_.Transmit(&tx, a, DataFrame(1, 2), 16.0, 200, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(rx.delivered.empty());
  EXPECT_EQ(rx.medium_changes, 0);  // No spectral overlap either.
}

TEST_F(MediumTest, NoDeliveryWhileRxDisabled) {
  const Channel ch{10, ChannelWidth::kW5};
  FakeRadio tx(1, {0, 0}, ch), rx(2, {50, 0}, ch);
  rx.rx_enabled = false;  // PLL retuning.
  medium_.Register(&tx);
  medium_.Register(&rx);
  medium_.Transmit(&tx, ch, DataFrame(1, 2), 16.0, 200, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(rx.delivered.empty());
}

TEST_F(MediumTest, CarrierSenseAcrossOverlappingWidths) {
  // A 20 MHz transmission spanning channels 8..12 must be sensed by a
  // 5 MHz radio on channel 12 but not by one on channel 13 — the paper's
  // carrier-sense modification.
  const Channel wide{10, ChannelWidth::kW20};
  FakeRadio tx(1, {0, 0}, wide);
  FakeRadio on12(2, {50, 0}, Channel{12, ChannelWidth::kW5});
  FakeRadio on13(3, {50, 0}, Channel{13, ChannelWidth::kW5});
  medium_.Register(&tx);
  medium_.Register(&on12);
  medium_.Register(&on13);
  medium_.Transmit(&tx, wide, DataFrame(1, 99), 16.0, 500, nullptr);
  sim_.Run(100);  // Mid-transmission.
  EXPECT_TRUE(medium_.CarrierSensed(on12, on12.TunedChannel()));
  EXPECT_FALSE(medium_.CarrierSensed(on13, on13.TunedChannel()));
  // A node never senses its own transmission as foreign carrier.
  EXPECT_FALSE(medium_.CarrierSensed(tx, wide));
  EXPECT_TRUE(medium_.Transmitting(tx));
  sim_.Run(1000);
  EXPECT_FALSE(medium_.CarrierSensed(on12, on12.TunedChannel()));
  EXPECT_FALSE(medium_.Transmitting(tx));
}

TEST_F(MediumTest, CollisionDestroysBothFrames) {
  const Channel ch{10, ChannelWidth::kW5};
  FakeRadio a(1, {0, 0}, ch), b(2, {10, 0}, ch), rx(3, {5, 5}, ch);
  medium_.Register(&a);
  medium_.Register(&b);
  medium_.Register(&rx);
  medium_.Transmit(&a, ch, DataFrame(1, 3), 16.0, 200, nullptr);
  medium_.Transmit(&b, ch, DataFrame(2, 3), 16.0, 200, nullptr);
  sim_.Run(1000);
  // Comparable powers => SINR ~ 0 dB < 10 dB threshold for both.
  EXPECT_TRUE(rx.delivered.empty());
}

TEST_F(MediumTest, CaptureWhenInterfererIsWeak) {
  const Channel ch{10, ChannelWidth::kW5};
  FakeRadio near_tx(1, {0, 0}, ch);
  FakeRadio far_tx(2, {5000, 0}, ch);  // ~75 dB weaker at the receiver.
  FakeRadio rx(3, {10, 0}, ch);
  medium_.Register(&near_tx);
  medium_.Register(&far_tx);
  medium_.Register(&rx);
  medium_.Transmit(&near_tx, ch, DataFrame(1, 3), 16.0, 200, nullptr);
  medium_.Transmit(&far_tx, ch, DataFrame(2, 3), 16.0, 200, nullptr);
  sim_.Run(1000);
  // The near frame captures; the far one is buried.
  ASSERT_EQ(rx.delivered.size(), 1u);
  EXPECT_EQ(rx.delivered[0].src, 1);
}

TEST_F(MediumTest, HalfDuplexReceiverMissesWhileTransmitting) {
  const Channel ch{10, ChannelWidth::kW5};
  FakeRadio a(1, {0, 0}, ch), b(2, {10, 0}, ch);
  medium_.Register(&a);
  medium_.Register(&b);
  // b transmits during a's frame; b must not receive a's frame.
  medium_.Transmit(&a, ch, DataFrame(1, 2), 16.0, 300, nullptr);
  sim_.Run(50);
  medium_.Transmit(&b, ch, DataFrame(2, 1), 16.0, 100, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(b.delivered.empty());
}

TEST_F(MediumTest, AirtimeBooksTrackBusyTime) {
  const Channel wide{10, ChannelWidth::kW20};  // Spans 8..12.
  FakeRadio tx(1, {0, 0}, wide, /*is_ap=*/true);
  medium_.Register(&tx);
  const AirtimeBooks before = medium_.SnapshotBooks();
  medium_.Transmit(&tx, wide, DataFrame(1, 99), 16.0, 400, nullptr);
  sim_.Run(1000);
  const AirtimeBooks after = medium_.SnapshotBooks();
  for (UhfIndex c = 8; c <= 12; ++c) {
    const auto i = static_cast<std::size_t>(c);
    EXPECT_DOUBLE_EQ(after[i].busy - before[i].busy, 400.0) << c;
    EXPECT_DOUBLE_EQ(after[i].per_node.at(1), 400.0) << c;
  }
  EXPECT_DOUBLE_EQ(after[7].busy, before[7].busy);
  EXPECT_DOUBLE_EQ(after[13].busy, before[13].busy);
}

TEST_F(MediumTest, OverlappingTransmissionsBusyTimeIsUnion) {
  const Channel ch{5, ChannelWidth::kW5};
  FakeRadio a(1, {0, 0}, ch), b(2, {10, 0}, ch);
  medium_.Register(&a);
  medium_.Register(&b);
  medium_.Transmit(&a, ch, DataFrame(1, 9), 16.0, 300, nullptr);
  sim_.Run(100);
  medium_.Transmit(&b, ch, DataFrame(2, 9), 16.0, 300, nullptr);  // 100..400.
  sim_.Run(1000);
  const AirtimeBooks books = medium_.SnapshotBooks();
  // Union busy time is 400 us, not 600.
  EXPECT_DOUBLE_EQ(books[5].busy, 400.0);
  // Per-node books carry each transmitter's own air time.
  EXPECT_DOUBLE_EQ(books[5].per_node.at(1), 300.0);
  EXPECT_DOUBLE_EQ(books[5].per_node.at(2), 300.0);
}

TEST_F(MediumTest, ActiveApsBetweenSnapshotsAndApIds) {
  const Channel ch{3, ChannelWidth::kW5};
  FakeRadio ap(1, {0, 0}, ch, /*is_ap=*/true);
  FakeRadio client(2, {10, 0}, ch, /*is_ap=*/false);
  medium_.Register(&ap);
  medium_.Register(&client);
  EXPECT_EQ(medium_.ApIds(), (std::vector<int>{1}));
  const AirtimeBooks before = medium_.SnapshotBooks();
  medium_.Transmit(&ap, ch, DataFrame(1, 2), 16.0, 100, nullptr);
  sim_.Run(1000);
  const AirtimeBooks after = medium_.SnapshotBooks();
  EXPECT_EQ(Medium::ActiveApsBetween(before, after, 3, {1, 2}),
            (std::vector<int>{1}));
  EXPECT_TRUE(Medium::ActiveApsBetween(before, after, 4, {1, 2}).empty());
  EXPECT_TRUE(Medium::ActiveApsBetween(after, after, 3, {1, 2}).empty());
}

TEST_F(MediumTest, FrameTapSeesEveryTransmission) {
  const Channel ch{3, ChannelWidth::kW5};
  FakeRadio tx(1, {0, 0}, ch);
  medium_.Register(&tx);
  int taps = 0;
  Channel tapped_channel{0, ChannelWidth::kW5};
  medium_.AddFrameTap([&](const Channel& c, const Frame& f, const RadioPort& r) {
    ++taps;
    tapped_channel = c;
    EXPECT_EQ(f.type, FrameType::kChirp);
    EXPECT_EQ(r.NodeId(), 1);
  });
  Frame chirp;
  chirp.type = FrameType::kChirp;
  chirp.src = 1;
  chirp.bytes = 60;
  medium_.Transmit(&tx, ch, chirp, 16.0, 100, nullptr);
  sim_.Run(1000);
  EXPECT_EQ(taps, 1);
  EXPECT_EQ(tapped_channel, ch);
}

TEST_F(MediumTest, InterferenceHistoryCoversTheLongestFrame) {
  // A 2 s frame is jammed early on; the jammer ends 1.8 s before the frame
  // does, and an unrelated transmission ends (running the history GC) in
  // between.  The GC horizon is the longest airtime started, so the
  // jammer's record survives until the frame's SINR is resolved.
  const Channel ch{10, ChannelWidth::kW5};
  const Channel elsewhere{20, ChannelWidth::kW5};
  const auto run = [&](bool jam) {
    Simulator sim;
    Medium medium(sim, MediumParams{});
    FakeRadio tx(1, {0, 0}, ch), rx(2, {100, 0}, ch);
    FakeRadio jammer(3, {100, 50}, ch), bystander(4, {0, 5000}, elsewhere);
    for (FakeRadio* r : {&tx, &rx, &jammer, &bystander}) medium.Register(r);
    medium.Transmit(&tx, ch, DataFrame(1, 2), 16.0, 2 * kTicksPerSec, [] {});
    if (jam) {
      sim.Schedule(100, [&] {
        medium.Transmit(&jammer, ch, DataFrame(3, 9), 16.0, 100, [] {});
      });
    }
    sim.Schedule(1'500'000, [&] {
      medium.Transmit(&bystander, elsewhere, DataFrame(4, 9), 16.0, 100,
                      [] {});
    });
    sim.Run(3 * kTicksPerSec);
    return std::count_if(rx.delivered.begin(), rx.delivered.end(),
                         [](const Frame& f) { return f.src == 1; });
  };
  EXPECT_EQ(run(false), 1);
  EXPECT_EQ(run(true), 0);
}

TEST_F(MediumTest, UnregisterStopsDelivery) {
  const Channel ch{3, ChannelWidth::kW5};
  FakeRadio tx(1, {0, 0}, ch), rx(2, {10, 0}, ch);
  medium_.Register(&tx);
  medium_.Register(&rx);
  medium_.Unregister(&rx);
  medium_.Transmit(&tx, ch, DataFrame(1, 2), 16.0, 100, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(rx.delivered.empty());
}

TEST_F(MediumTest, FarAwayReceiverBelowSnrGetsNothing) {
  MediumParams params;
  params.propagation.exponent = 3.5;  // Harsh environment for this test.
  Medium medium(sim_, params);
  const Channel ch{3, ChannelWidth::kW5};
  FakeRadio tx(1, {0, 0}, ch), rx(2, {20000, 0}, ch);
  medium.Register(&tx);
  medium.Register(&rx);
  medium.Transmit(&tx, ch, DataFrame(1, 2), 16.0, 100, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(rx.delivered.empty());
}

// ------------------------------------------------- per-channel fast path ---

/// One transmission of a randomized storm, as the test's ground truth.
struct StormRecord {
  SimTime start = 0;
  SimTime end = 0;
  Channel channel{0, ChannelWidth::kW5};
  int node = 0;  ///< Transmitter id; ghost sources are 100 + center.
  Position pos;
  Dbm power = 0.0;
  bool ghost = false;
  /// Storm ids (= transmit order) of every transmission that was on the
  /// air at the same time on overlapping spectrum.  Never forgotten: this
  /// is the reference that recycles no records.
  std::vector<std::size_t> overlaps;
};

/// Exhaustive-reference carrier sense: walk EVERY storm transmission
/// active at `now`, applying the same physics as Medium::CarrierSensed.
/// Pins the per-channel index against the full scan it replaced.
bool ReferenceCarrierSense(const std::vector<StormRecord>& records,
                           SimTime now, const FakeRadio& listener,
                           const Channel& channel, const MediumParams& params,
                           const PropagationModel& prop) {
  for (const StormRecord& r : records) {
    if (!(r.start <= now && now < r.end)) continue;
    if (!r.channel.Overlaps(channel)) continue;
    if (r.node == listener.NodeId()) continue;
    const Dbm p = prop.ReceivedPower(r.power, r.pos, listener.Location());
    if (r.channel == channel) {
      if (p >= params.same_channel_cs_dbm) return true;
    } else {
      const Dbm in_band = p + LinearToDb(InBandPowerFraction(r.channel, channel));
      if (in_band >= params.energy_detect_cs_dbm) return true;
    }
  }
  return false;
}

/// Reference SINR decision for local transmission `tx` at `rx`, from the
/// complete overlap list, summing interference in ascending id order as
/// the medium does.  Returns false when `rx` is not a candidate receiver
/// (not tuned to the frame, or it transmitted during it).
bool ReferenceReception(const std::vector<StormRecord>& records,
                        const StormRecord& tx, const FakeRadio& rx,
                        const MediumParams& params,
                        const PropagationModel& prop, bool* decoded) {
  if (rx.NodeId() == tx.node || !(rx.TunedChannel() == tx.channel)) {
    return false;
  }
  for (std::size_t other : tx.overlaps) {
    if (records[other].node == rx.NodeId()) return false;  // Half-duplex.
  }
  double interference_mw = 0.0;
  for (std::size_t other : tx.overlaps) {
    const StormRecord& i = records[other];
    const double fraction = InBandPowerFraction(i.channel, rx.TunedChannel());
    if (fraction <= 0.0) continue;
    interference_mw +=
        DbmToMilliwatt(prop.ReceivedPower(i.power, i.pos, rx.Location())) *
        fraction;
  }
  const double signal_mw =
      DbmToMilliwatt(prop.ReceivedPower(tx.power, tx.pos, rx.Location()));
  const double noise_mw =
      DbmToMilliwatt(NoiseFloorDbm(WidthMHz(tx.channel.width)));
  *decoded = signal_mw / (noise_mw + interference_mw) >=
             DbToLinear(params.decode_snr_db);
  return true;
}

TEST_F(MediumTest, RandomStormBooksMatchIntervalUnion) {
  // Randomized dense-overlap storm of local frames, ghosts and follow-up
  // frames sent from completion callbacks, in three bursts separated by
  // idle gaps (where the medium frees every ended record at once).  The
  // per-channel transmission index, the lazy per-channel accrual and the
  // recycled transmission records must produce airtime books EXACTLY
  // equal (the sums involve only integer-valued doubles) to the interval
  // unions computed from first principles, and deliveries and drops equal
  // to a reference that keeps every transmission forever.  Starts on a
  // 200-tick grid and two durations (200 and 400 ticks) make ties common:
  // several longest-airtime frames start on the tick other frames end,
  // and end together, with follow-ups sent in between.  That is the exact
  // boundary of the history horizon; freeing a record one tick early
  // changes deliveries here.
  std::vector<FakeRadio> radios;  // Indexed by node id.
  radios.reserve(2 * static_cast<std::size_t>(kNumUhfChannels));
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    radios.emplace_back(c, Position{150.0 * c, 0.0},
                        Channel{c, ChannelWidth::kW5});
  }
  // Listener c (node 30 + c) is tuned to a width that varies with c, so
  // frames of every width find receivers; it sends the follow-ups.
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    Channel tuned{c, static_cast<ChannelWidth>(c % 3)};
    if (!tuned.IsValid()) tuned.width = ChannelWidth::kW5;
    radios.emplace_back(kNumUhfChannels + c, Position{150.0 * c + 20.0, 25.0},
                        tuned);
  }
  for (FakeRadio& r : radios) medium_.Register(&r);
  MetricsRegistry metrics;
  Observability obs;
  obs.metrics = &metrics;
  medium_.SetObservability(obs);

  std::vector<StormRecord> records;  // Transmit order = medium tx id order.
  std::vector<std::size_t> on_air;
  std::function<void(StormRecord, SimTime)> launch =
      [&](StormRecord rec, SimTime follow_up) {
        const std::size_t id = records.size();
        for (std::size_t other : on_air) {
          if (records[other].channel.Overlaps(rec.channel)) {
            records[other].overlaps.push_back(id);
            rec.overlaps.push_back(other);
          }
        }
        records.push_back(rec);
        on_air.push_back(id);
        Frame frame = DataFrame(rec.node, -1);
        frame.seq = id;
        if (rec.ghost) {
          medium_.InjectForeignEnergy(rec.node, rec.node % 2 == 0, rec.pos,
                                      rec.channel, frame, rec.power,
                                      rec.end - rec.start);
          return;
        }
        medium_.Transmit(
            &radios[static_cast<std::size_t>(rec.node)], rec.channel, frame,
            rec.power, rec.end - rec.start, [&, id, follow_up] {
              std::erase(on_air, id);
              if (follow_up == 0) return;
              const FakeRadio& listener = radios[static_cast<std::size_t>(
                  kNumUhfChannels + records[id].channel.center)];
              StormRecord ack;
              ack.start = sim_.Now();
              ack.end = ack.start + follow_up;
              ack.channel = listener.TunedChannel();
              ack.node = listener.NodeId();
              ack.pos = listener.Location();
              ack.power = records[id].power;
              launch(ack, 0);
            });
      };
  // Ghosts have no completion callback; the frame tap marks their end.
  medium_.AddFrameTap([&](const Channel&, const Frame& frame,
                          const RadioPort&) {
    if (records[frame.seq].ghost) std::erase(on_air, frame.seq);
  });

  std::mt19937 rng(3);
  for (int i = 0; i < 600; ++i) {
    StormRecord rec;
    // Grid starts and durations (multiples of 200, so even) keep probe
    // times (odd) strictly between transition events.  Each burst ends by
    // 5600 ticks past its 8000-tick slot, follow-ups included.
    rec.start = 8000 * (i % 3) + 200 * static_cast<SimTime>(rng() % 25);
    rec.end = rec.start + 200 * (1 + static_cast<SimTime>(rng() % 2));
    const auto width = static_cast<ChannelWidth>(rng() % 3);
    const int half = SpanChannels(width) / 2;
    const int center =
        half + static_cast<int>(rng() % (kNumUhfChannels - 2 * half));
    rec.channel = Channel{center, width};
    ASSERT_TRUE(rec.channel.IsValid());
    rec.power = 10.0 + static_cast<Dbm>(rng() % 10);
    rec.ghost = rng() % 4 == 0;
    rec.node = rec.ghost ? 100 + center : center;
    rec.pos = rec.ghost ? Position{150.0 * center + 10.0, -30.0}
                        : radios[static_cast<std::size_t>(center)].Location();
    SimTime follow_up = 0;
    if (!rec.ghost && rng() % 4 != 0) {
      follow_up = 200 * (1 + static_cast<SimTime>(rng() % 2));
    }
    sim_.Schedule(rec.start,
                  [&launch, rec, follow_up] { launch(rec, follow_up); });
  }

  // Probes at odd times: carrier sense and Transmitting() must match the
  // exhaustive reference scan, mid-flight.
  int probes_sensed = 0;
  for (SimTime t = 1001; t < 24000; t += 2000) {
    sim_.Schedule(t, [this, &radios, &records, t, &probes_sensed] {
      for (UhfIndex c = 0; c < kNumUhfChannels; c += 5) {
        const FakeRadio& listener = radios[static_cast<std::size_t>(c)];
        for (const Channel probe :
             {Channel{c, ChannelWidth::kW5},
              Channel{std::clamp(c, 2, kNumUhfChannels - 3),
                      ChannelWidth::kW20}}) {
          const bool sensed = medium_.CarrierSensed(listener, probe);
          EXPECT_EQ(sensed,
                    ReferenceCarrierSense(records, t, listener, probe,
                                          medium_.params(),
                                          medium_.propagation()))
              << "t=" << t << " listener=" << c;
          probes_sensed += sensed ? 1 : 0;
        }
        for (const int node : {c, kNumUhfChannels + c}) {
          bool ref_transmitting = false;
          for (const StormRecord& r : records) {
            ref_transmitting |= r.node == node && r.start <= t && t < r.end;
          }
          const FakeRadio& radio = radios[static_cast<std::size_t>(node)];
          EXPECT_EQ(medium_.Transmitting(radio), ref_transmitting)
              << "t=" << t << " node=" << node;
        }
      }
    });
  }

  // Mid-stream snapshot (forces lazy accrual at an arbitrary boundary).
  AirtimeBooks mid{};
  sim_.Schedule(10001, [this, &mid] { mid = medium_.SnapshotBooks(); });
  sim_.RunUntilIdle();
  const AirtimeBooks books = medium_.SnapshotBooks();

  EXPECT_GT(probes_sensed, 0);  // The storm is dense; probes must hit.
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    // Interval union over transmissions spanning channel c.
    std::vector<std::pair<SimTime, SimTime>> spans;
    double per_node_total = 0.0;
    std::map<int, double> per_node;
    for (const StormRecord& r : records) {
      if (r.channel.Low() <= c && c <= r.channel.High()) {
        spans.emplace_back(r.start, r.end);
        per_node[r.node] += ToUs(r.end - r.start);
        per_node_total += ToUs(r.end - r.start);
      }
    }
    std::sort(spans.begin(), spans.end());
    SimTime busy = 0;
    SimTime mid_busy = 0;
    SimTime covered_until = 0;
    for (const auto& [start, end] : spans) {
      const SimTime from = std::max(start, covered_until);
      if (end > from) {
        busy += end - from;
        mid_busy += std::max<SimTime>(0, std::min<SimTime>(end, 10001) - from);
        covered_until = end;
      }
    }
    const auto ci = static_cast<std::size_t>(c);
    EXPECT_EQ(books[ci].busy, ToUs(busy)) << "channel " << c;
    EXPECT_EQ(mid[ci].busy, ToUs(mid_busy)) << "channel " << c;
    double node_sum = 0.0;
    for (const auto& [node, total] : per_node) {
      const auto it = books[ci].per_node.find(node);
      ASSERT_NE(it, books[ci].per_node.end());
      EXPECT_EQ(it->second, total) << "channel " << c << " node " << node;
      node_sum += total;
    }
    EXPECT_EQ(node_sum, per_node_total);
  }

  // Deliveries and drops against the reference that never recycles.
  ASSERT_EQ(medium_.NumTransmissions(), records.size());
  EXPECT_TRUE(on_air.empty());
  std::vector<std::pair<std::uint64_t, int>> expected, delivered;
  std::uint64_t expected_drops = 0;
  int ghosts = 0, follow_ups = 0;
  for (std::size_t id = 0; id < records.size(); ++id) {
    StormRecord& tx = records[id];
    ghosts += tx.ghost ? 1 : 0;
    follow_ups += tx.node >= kNumUhfChannels && !tx.ghost ? 1 : 0;
    if (tx.ghost) continue;
    std::sort(tx.overlaps.begin(), tx.overlaps.end());
    for (const FakeRadio& rx : radios) {
      bool decoded = false;
      if (!ReferenceReception(records, tx, rx, medium_.params(),
                              medium_.propagation(), &decoded)) {
        continue;
      }
      if (decoded) {
        expected.emplace_back(id, rx.NodeId());
      } else {
        ++expected_drops;
      }
    }
  }
  for (const FakeRadio& rx : radios) {
    for (const Frame& frame : rx.delivered) {
      delivered.emplace_back(frame.seq, rx.NodeId());
    }
  }
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(metrics.GetCounter("whitefi.medium.drop.Data").value(),
            expected_drops);
  EXPECT_EQ(metrics.GetCounter("whitefi.medium.rx.Data").value(),
            expected.size());
  // The storm exercises every path it is meant to.
  EXPECT_GT(ghosts, 100);
  EXPECT_GT(follow_ups, 100);
  EXPECT_GT(expected.size(), 25u);
  EXPECT_GT(expected_drops, 50u);
}

}  // namespace
}  // namespace whitefi
