// Pins the zero-steady-state-allocation contract of the event engine and
// the medium: once the arena, free lists, wheel buckets and transmission
// records are warm, neither the schedule/fire cycle nor a transmit/end
// cycle (local or ghost) may touch the heap (DESIGN.md §10).  Global
// operator new/delete are replaced with counting versions; the warmed
// cycles must leave the count untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/events.h"
#include "sim/medium.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace whitefi {
namespace {

/// One batch of the steady-state workload: 512 inline-stored timers spread
/// over a 256-tick horizon, drained to idle.  Advances Now() by exactly
/// 256 ticks — one full level-0 wheel window — per call, so every wrap of
/// the level-1 wheel replays identical bucket loads and warmed capacities
/// suffice forever.
void Cycle(Simulator& sim) {
  for (int i = 0; i < 512; ++i) {
    sim.ScheduleAfter((i * 7919) % 256 + 1, [] {});
  }
  sim.RunUntilIdle();
}

TEST(SimulatorAlloc, SteadyStateScheduleFireIsAllocationFree) {
  Simulator sim;
  // Warm every structure the cycle can touch: the arena chunks, the free
  // list, all 256 level-0 tick buckets, and — because the cursor sweeps
  // forward one 256-tick window per cycle — every level-1 bucket, which
  // takes one full 65536-tick wrap (256 cycles).  400 cycles ends near
  // tick 102400, clear of the next level-2 window crossing at 131072, so
  // the measured window replays only warmed paths.
  for (int i = 0; i < 400; ++i) Cycle(sim);

  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 8; ++i) Cycle(sim);
  const std::size_t after = g_allocations.load();

  EXPECT_EQ(after, before) << "steady-state schedule/fire allocated";
  EXPECT_EQ(sim.NumPending(), 0u);
  EXPECT_EQ(sim.NumProcessed(), 408u * 512u);
}

TEST(SimulatorAlloc, CancelChurnIsAllocationFreeWhenWarm) {
  Simulator sim;
  std::vector<EventId> timers(256, kInvalidEventId);
  const auto Churn = [&] {
    for (int rearm = 0; rearm < 4; ++rearm) {
      for (std::size_t i = 0; i < timers.size(); ++i) {
        sim.Cancel(timers[i]);
        timers[i] = sim.ScheduleAfter(static_cast<SimTime>(i * 31 % 256 + 1),
                                      [] {});
      }
    }
    sim.RunUntilIdle();
  };
  for (int i = 0; i < 400; ++i) Churn();

  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 8; ++i) Churn();
  EXPECT_EQ(g_allocations.load(), before)
      << "warm schedule/cancel churn allocated";
}

/// A radio that counts instead of storing, so it allocates nothing itself.
class CountingRadio final : public RadioPort {
 public:
  CountingRadio(int id, Position pos, Channel channel)
      : id_(id), pos_(pos), channel_(channel) {}

  int NodeId() const override { return id_; }
  Position Location() const override { return pos_; }
  const Channel& TunedChannel() const override { return channel_; }
  bool RxEnabled() const override { return true; }
  bool IsAp() const override { return false; }
  void DeliverFrame(const Frame&, Dbm) override { ++delivered; }
  void MediumChanged() override {}

  int delivered = 0;

 private:
  int id_;
  Position pos_;
  Channel channel_;
};

/// Twelve radios, radio i and i + 6 sharing a 5 MHz channel, and a storm
/// of 64 partly overlapping transmissions of every width per cycle, sent
/// by the radios themselves or as ghosts from eight foreign sources.  A cycle
/// advances Now() by exactly 512 ticks (two level-0 wheel windows), so
/// cycles replay identical wheel and medium loads.
class MediumStorm {
 public:
  MediumStorm() {
    radios_.reserve(12);
    for (int i = 0; i < 12; ++i) {
      radios_.emplace_back(i, Position{200.0 * (i % 6) + 20.0 * (i / 6), 0.0},
                           Channel{6 + 3 * (i % 6), ChannelWidth::kW5});
    }
    for (CountingRadio& r : radios_) medium_.Register(&r);
  }

  void Cycle(bool ghosts) {
    const SimTime base = sim_.Now();
    for (int k = 0; k < 64; ++k) {
      const SimTime at = base + 4 * k + 1;
      const SimTime duration = (k * 7919) % 16 + 8;
      sim_.Schedule(at, [this, k, duration, ghosts] {
        CountingRadio& radio = radios_[static_cast<std::size_t>(k % 12)];
        const Channel channel{radio.TunedChannel().center,
                              static_cast<ChannelWidth>(k % 3)};
        Frame frame;
        frame.src = radio.NodeId();
        frame.bytes = 1000;
        if (ghosts) {
          medium_.InjectForeignEnergy(100 + k % 8, k % 2 == 0,
                                      Position{25.0 * (k % 8), 40.0}, channel,
                                      frame, 16.0, duration);
        } else {
          medium_.Transmit(&radio, channel, frame, 16.0, duration, nullptr);
        }
      });
    }
    sim_.Schedule(base + 512, [] {});
    sim_.RunUntilIdle();
  }

  int Delivered() const {
    int total = 0;
    for (const CountingRadio& r : radios_) total += r.delivered;
    return total;
  }

  const Medium& medium() const { return medium_; }

 private:
  Simulator sim_;
  Medium medium_{sim_, MediumParams{}};
  std::vector<CountingRadio> radios_;
};

TEST(MediumAlloc, WarmLocalTransmitStormIsAllocationFree) {
  MediumStorm storm;
  // 300 cycles cross the 65536-tick level-2 window twice.
  for (int i = 0; i < 300; ++i) storm.Cycle(/*ghosts=*/false);
  const int delivered = storm.Delivered();

  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 8; ++i) storm.Cycle(/*ghosts=*/false);
  EXPECT_EQ(g_allocations.load(), before) << "warm local storm allocated";
  EXPECT_EQ(storm.medium().NumTransmissions(), 308u * 64u);
  // Receptions were resolved (and some delivered) inside the window.
  EXPECT_GT(storm.Delivered(), delivered);
}

TEST(MediumAlloc, WarmGhostStormIsAllocationFree) {
  MediumStorm storm;
  for (int i = 0; i < 300; ++i) storm.Cycle(/*ghosts=*/true);

  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 8; ++i) storm.Cycle(/*ghosts=*/true);
  EXPECT_EQ(g_allocations.load(), before) << "warm ghost storm allocated";
  EXPECT_EQ(storm.medium().NumTransmissions(), 308u * 64u);
  EXPECT_EQ(storm.Delivered(), 0);  // Ghosts are never delivered here.
}

}  // namespace
}  // namespace whitefi
