// Unit tests for the discrete-event core and propagation model.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "sim/events.h"
#include "sim/propagation.h"
#include "sim/time.h"

namespace whitefi {
namespace {

// ----------------------------------------------------------------- time ---

TEST(SimTimeConv, ToTicksRounding) {
  EXPECT_EQ(ToTicks(0.0), 0);
  EXPECT_EQ(ToTicks(1.4), 1);
  EXPECT_EQ(ToTicks(1.6), 2);
  // Strictly positive durations never round to zero ticks.
  EXPECT_EQ(ToTicks(0.2), 1);
  EXPECT_DOUBLE_EQ(ToUs(1500), 1500.0);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kTicksPerSec), 2.0);
}

// --------------------------------------------------------------- events ---

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(300, [&] { order.push_back(3); });
  sim.Schedule(100, [&] { order.push_back(1); });
  sim.Schedule(200, [&] { order.push_back(2); });
  sim.Run(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 1000);
  EXPECT_EQ(sim.NumProcessed(), 3u);
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(50, [&order, i] { order.push_back(i); });
  }
  sim.Run(100);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, RunStopsAtBoundaryLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&] { ++fired; });
  sim.Schedule(101, [&] { ++fired; });
  sim.Run(100);  // Inclusive boundary.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 100);
  sim.Run(200);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.Schedule(10, [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // Second cancel is a no-op.
  EXPECT_FALSE(sim.Cancel(kInvalidEventId));
  EXPECT_FALSE(sim.Cancel(9999));  // Never-issued id.
  sim.Run(100);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.NumProcessed(), 0u);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) sim.ScheduleAfter(10, step);
  };
  sim.Schedule(0, step);
  sim.Run(1000);
  EXPECT_EQ(chain, 5);
}

TEST(Simulator, SchedulingInThePastClampsToNow) {
  Simulator sim;
  SimTime observed = -1;
  sim.Schedule(100, [&] {
    sim.Schedule(50, [&] { observed = sim.Now(); });  // "Past" event.
  });
  sim.Run(1000);
  EXPECT_EQ(observed, 100);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(20, [&] { ++fired; });
  sim.Run(100);
  EXPECT_EQ(fired, 1);
  // A subsequent Run resumes.
  sim.Run(100);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIdleDrainsQueue) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(5, [&] { ++fired; });
  sim.Schedule(500000, [&] { ++fired; });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 500000);
}

TEST(Simulator, CancelledTombstonesDoNotCountAsProcessed) {
  Simulator sim;
  const EventId a = sim.Schedule(1, [] {});
  sim.Schedule(2, [] {});
  sim.Cancel(a);
  sim.Run(10);
  EXPECT_EQ(sim.NumProcessed(), 1u);
}

TEST(Simulator, SimultaneousEventsAreFifoInRunUntilIdle) {
  // The (time, seq) FIFO contract must hold in BOTH drain loops — scenario
  // determinism rests on it.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(50, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, SimultaneousFifoSurvivesInterleavedCancels) {
  // Cancelling some of a tick's events must not perturb the schedule order
  // of the survivors (in-place cancellation must not reorder the bucket).
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(sim.Schedule(50, [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 16; i += 2) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<std::size_t>(i)]));
  }
  sim.RunUntilIdle();
  std::vector<int> expected;
  for (int i = 0; i < 16; i += 2) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Simulator, FiresInTimeOrderAcrossWideHorizons) {
  // Times straddling many wheel levels (same tick, adjacent ticks, 256-
  // and 65536-tick window boundaries, and far-future timers), scheduled in
  // shuffled order, must still fire in (time, seq) order.
  const std::vector<SimTime> times = {
      0,     1,       2,         255,       256,        257,      511,
      512,   65535,   65536,     65537,     100000,     1 << 24,  (1 << 24) + 1,
      1 << 30, SimTime{1} << 40, (SimTime{1} << 40) + 255};
  std::vector<std::size_t> perm(times.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    std::shuffle(perm.begin(), perm.end(), rng);
    Simulator sim;
    std::vector<SimTime> fired;
    for (const std::size_t i : perm) {
      sim.Schedule(times[i], [&fired, &sim] { fired.push_back(sim.Now()); });
    }
    sim.RunUntilIdle();
    std::vector<SimTime> expected = times;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fired, expected);
  }
}

TEST(Simulator, CancellingFiredIdsLeavesStateBounded) {
  // Regression for the seed engine's unbounded tombstone set: cancelling
  // ids that already fired must be a stateless miss, and repeated
  // schedule/fire/cancel churn must not grow the arena beyond the peak
  // number of simultaneously pending events.
  Simulator sim;
  std::vector<EventId> ids;
  for (int round = 0; round < 200; ++round) {
    ids.clear();
    for (int i = 0; i < 64; ++i) {
      ids.push_back(sim.ScheduleAfter(i % 7 + 1, [] {}));
    }
    sim.RunUntilIdle();
    for (const EventId id : ids) EXPECT_FALSE(sim.Cancel(id));
    EXPECT_EQ(sim.NumPending(), 0u);
  }
  // 64 concurrent events fit one 256-slot chunk; 12800 schedules and as
  // many stale cancels must not have grown it.
  EXPECT_EQ(sim.ArenaSlots(), 256u);
}

TEST(Simulator, RetainedBucketCapacityIsBoundedOverALongRun) {
  // Timers rearming 70-330 ms ahead live in level-2 buckets (65.5 ms
  // windows), each touched once per 16.7 s lap.  Were every emptied
  // bucket to keep its buffer, capacity would grow with every new window
  // the run reaches (~3.8k entries at 2 s, ~30k at 40 s); recycling the
  // buffers keeps it proportional to the pending events (~1.1k, ~1.5k).
  Simulator sim;
  std::mt19937 rng(7);
  std::uniform_int_distribution<SimTime> delay(70000, 330000);
  std::function<void()> rearm = [&] { sim.ScheduleAfter(delay(rng), rearm); };
  for (int i = 0; i < 200; ++i) sim.ScheduleAfter(delay(rng), rearm);
  sim.Run(2 * kTicksPerSec);
  const std::size_t early = sim.BucketCapacity();
  sim.Run(40 * kTicksPerSec);  // More than two full level-2 laps.
  ASSERT_EQ(sim.NumPending(), 200u);
  EXPECT_LE(sim.BucketCapacity(), 2 * early)
      << "retained capacity grew from " << early;
  EXPECT_LE(sim.BucketCapacity(), 16 * sim.NumPending());
}

TEST(Simulator, StaleIdAfterSlotReuseIsNoOp) {
  // The generation check on EventId: once a slot is released (fired or
  // cancelled) and reissued to a NEW event, the old handle must neither
  // cancel the new occupant nor report success — across arbitrary
  // schedule/fire churn, including chunk recycling.
  Simulator sim;
  // Burn through several full 256-slot chunk cycles so reissued ids come
  // from recycled slots at every chunk position.
  std::vector<EventId> stale;
  for (int round = 0; round < 4; ++round) {
    stale.clear();
    for (int i = 0; i < 300; ++i) {  // > one chunk: forces a second chunk.
      stale.push_back(sim.ScheduleAfter(1, [] {}));
    }
    sim.RunUntilIdle();  // All fire; every slot is released.

    // Reoccupy the slots with live events.
    int fired = 0;
    std::vector<EventId> live;
    for (int i = 0; i < 300; ++i) {
      live.push_back(sim.ScheduleAfter(1, [&fired] { ++fired; }));
    }
    // Stale handles from the PREVIOUS occupancy of the same slots: every
    // cancel must be a generation-check miss, not a hit on the new event.
    for (const EventId id : stale) EXPECT_FALSE(sim.Cancel(id));
    sim.RunUntilIdle();
    EXPECT_EQ(fired, 300);  // No live event was collaterally cancelled.
    // And the live ids are stale now too.
    for (const EventId id : live) EXPECT_FALSE(sim.Cancel(id));
  }
}

TEST(Simulator, RearmChurnReusesSlots) {
  Simulator sim;
  EventId timer = kInvalidEventId;
  for (int i = 0; i < 5000; ++i) {
    sim.Cancel(timer);
    timer = sim.ScheduleAfter(10, [] {});
  }
  EXPECT_EQ(sim.NumPending(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.NumPending(), 0u);
  EXPECT_EQ(sim.ArenaSlots(), 256u);  // One live timer, one chunk, forever.
}

TEST(Simulator, CallbackResourcesReleasedOnFireAndCancel) {
  // Callbacks owning real resources (shared_ptr here; ASan watches the
  // rest) must be destroyed exactly once whether they fire, are cancelled,
  // or are cancelled mid-drain by an earlier same-tick event.
  Simulator sim;
  auto token = std::make_shared<int>(7);
  // Larger than the inline buffer: exercises the heap fallback too.
  struct Big {
    std::shared_ptr<int> p;
    char pad[160];
  };

  sim.Schedule(10, [t = token] { EXPECT_EQ(*t, 7); });
  const EventId cancelled = sim.Schedule(20, [t = token] {});
  sim.Schedule(30, [b = Big{token, {}}] { EXPECT_EQ(*b.p, 7); });
  const EventId big_cancelled =
      sim.Schedule(40, [b = Big{token, {}}] { ADD_FAILURE(); });
  EXPECT_TRUE(sim.Cancel(cancelled));
  EXPECT_TRUE(sim.Cancel(big_cancelled));
  sim.RunUntilIdle();
  EXPECT_EQ(token.use_count(), 1);  // Every capture destroyed.
}

TEST(Simulator, SameTickCancelDuringDrainIsSafe) {
  // An event cancelling a later event of the SAME tick: the victim's
  // callback (and its resources) must be destroyed during the drain, and
  // must not fire.
  Simulator sim;
  auto token = std::make_shared<int>(1);
  std::vector<int> order;
  EventId victim = kInvalidEventId;
  sim.Schedule(50, [&] {
    order.push_back(0);
    EXPECT_TRUE(sim.Cancel(victim));
    EXPECT_EQ(token.use_count(), 1);  // Victim's capture already gone.
  });
  sim.Schedule(50, [&order] { order.push_back(1); });
  victim = sim.Schedule(50, [&order, t = token] { order.push_back(2); });
  sim.Schedule(50, [&order] { order.push_back(3); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(sim.NumPending(), 0u);
}

TEST(Simulator, FiredSlotReuseDoesNotAliasOldId) {
  // A callback rescheduling into the slot it just vacated must get a fresh
  // generation: cancelling the fired id must miss, not kill the new event.
  Simulator sim;
  int fired = 0;
  EventId first = kInvalidEventId;
  first = sim.Schedule(10, [&] { sim.ScheduleAfter(10, [&fired] { ++fired; }); });
  sim.Run(15);
  EXPECT_FALSE(sim.Cancel(first));  // Already fired; must not hit the new event.
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, NumPendingIsExactUnderCancellation) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(sim.ScheduleAfter(i + 1, [] {}));
  EXPECT_EQ(sim.NumPending(), 100u);
  for (int i = 0; i < 100; i += 2) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(sim.NumPending(), 50u);  // Immediately, not lazily at pop.
  sim.RunUntilIdle();
  EXPECT_EQ(sim.NumPending(), 0u);
  EXPECT_EQ(sim.NumProcessed(), 50u);
}

// ------------------------------------------------------------ propagation -

TEST(Propagation, PathLossGrowsWithDistance) {
  const PropagationModel model;
  EXPECT_DOUBLE_EQ(model.PathLossDb(1.0), 28.0);
  EXPECT_NEAR(model.PathLossDb(10.0), 28.0 + 22.0, 1e-9);
  EXPECT_NEAR(model.PathLossDb(100.0), 28.0 + 44.0, 1e-9);
  // Near-field clamp.
  EXPECT_DOUBLE_EQ(model.PathLossDb(0.1), 28.0);
}

TEST(Propagation, ReceivedPowerAndDistance) {
  const PropagationModel model;
  const Position a{0.0, 0.0}, b{300.0, 400.0};
  EXPECT_DOUBLE_EQ(Distance(a, b), 500.0);
  EXPECT_NEAR(model.ReceivedPower(16.0, a, b),
              16.0 - model.PathLossDb(500.0), 1e-9);
}

TEST(Propagation, UhfRangeExceedsOneKilometer) {
  // The paper expects communication ranges beyond 1 km in UHF; with the
  // default model a 16 dBm transmitter at 1 km is still >10 dB above the
  // 20 MHz noise floor.
  const PropagationModel model;
  const Dbm rx = model.ReceivedPower(16.0, 1000.0);
  EXPECT_GT(rx - NoiseFloorDbm(20.0), 10.0);
}

TEST(Propagation, NoiseFloorScalesWithWidth) {
  EXPECT_DOUBLE_EQ(NoiseFloorDbm(20.0), -101.0);
  EXPECT_NEAR(NoiseFloorDbm(10.0), -104.0, 0.02);
  EXPECT_NEAR(NoiseFloorDbm(5.0), -107.0, 0.03);
}

}  // namespace
}  // namespace whitefi
