// Unit tests for the discrete-event kernel: event ordering, timers, RNG
// determinism, time/rate arithmetic.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "tests/event_queue_pop.h"

namespace themis {
namespace {

TEST(TimeTest, UnitsCompose) {
  EXPECT_EQ(kNanosecond, 1000 * kPicosecond);
  EXPECT_EQ(kMicrosecond, 1000 * kNanosecond);
  EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
}

TEST(TimeTest, ConversionHelpers) {
  EXPECT_DOUBLE_EQ(ToMicroseconds(1500 * kNanosecond), 1.5);
  EXPECT_DOUBLE_EQ(ToMilliseconds(2500 * kMicrosecond), 2.5);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
}

TEST(RateTest, SerializationTimeExactAt400G) {
  // 1500 B at 400 Gbps = 12000 bits / 400e9 bps = 30 ns exactly.
  EXPECT_EQ(Rate::Gbps(400).SerializationTime(1500), 30 * kNanosecond);
}

TEST(RateTest, SerializationTimeExactAt100G) {
  EXPECT_EQ(Rate::Gbps(100).SerializationTime(1500), 120 * kNanosecond);
}

TEST(RateTest, SerializationRoundsUp) {
  // 1 byte at 3 bps: 8/3 s -> rounds up.
  const Rate r(3);
  EXPECT_EQ(r.SerializationTime(1), (8 * kSecond + 2) / 3);
}

TEST(RateTest, SerializationTimeMatchesWideFormula) {
  // Packet-sized inputs divide in 64 bits, larger ones in 128; both must
  // equal the 128-bit round-up formula.
  auto wide = [](Rate rate, int64_t bytes) {
    const __int128 numer = static_cast<__int128>(bytes * 8) * kSecond;
    return static_cast<TimePs>((numer + rate.bps() - 1) / rate.bps());
  };
  const Rate rates[] = {Rate(1), Rate(3), Rate::Gbps(100), Rate::Gbps(400),
                        Rate::Gbps(1600)};
  // 0 bytes, 2^20 - 1 bytes (2^23 - 8 bits, the largest 64-bit input) and
  // 2^20 bytes (2^23 bits, the smallest 128-bit one).
  for (const Rate rate : rates) {
    for (const int64_t bytes : {int64_t{0}, (int64_t{1} << 20) - 1, int64_t{1} << 20}) {
      EXPECT_EQ(rate.SerializationTime(bytes), wide(rate, bytes))
          << rate.bps() << " bps, " << bytes << " B";
    }
  }
  std::mt19937_64 gen(7);
  std::uniform_int_distribution<int64_t> bytes_dist(0, int64_t{1} << 21);
  std::uniform_int_distribution<int64_t> bps_dist(1, int64_t{4} << 40);
  for (int i = 0; i < 100'000; ++i) {
    const int64_t bytes = bytes_dist(gen);
    const Rate rate(i % 2 == 0 ? bps_dist(gen) : rates[i / 2 % 5].bps());
    ASSERT_EQ(rate.SerializationTime(bytes), wide(rate, bytes))
        << rate.bps() << " bps, " << bytes << " B";
  }
}

TEST(RateTest, ZeroRateIsInstant) { EXPECT_EQ(Rate().SerializationTime(12345), 0); }

TEST(RateTest, BytesInInvertsSerialization) {
  const Rate r = Rate::Gbps(400);
  EXPECT_EQ(r.BytesIn(30 * kNanosecond), 1500);
}

TEST(RateTest, ScalingAndComparison) {
  EXPECT_EQ((Rate::Gbps(100) * 0.5).bps(), Rate::Gbps(50).bps());
  EXPECT_LT(Rate::Gbps(10), Rate::Gbps(40));
  EXPECT_EQ(Rate::Gbps(1) + Rate::Gbps(2), Rate::Gbps(3));
  EXPECT_EQ(Rate::Gbps(3) - Rate::Gbps(2), Rate::Gbps(1));
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  TimePs t = 0;
  while (!q.empty()) {
    PopAndRun(q, &t);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(t, 30);
}

TEST(EventQueueTest, FifoTieBreakAtEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.ScheduleAt(42, [&order, i] { order.push_back(i); });
  }
  TimePs t = 0;
  while (!q.empty()) {
    PopAndRun(q, &t);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, InterleavedScheduleAndPop) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(50, [&] { order.push_back(5); });
  TimePs t = 0;
  PopAndRun(q, &t);
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.ScheduleAt(60, [&] { order.push_back(6); });
  while (!q.empty()) {
    PopAndRun(q, &t);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5, 6}));
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  TimePs seen = -1;
  sim.Schedule(5 * kMicrosecond, [&] { seen = sim.now(); });
  sim.Run();
  EXPECT_EQ(seen, 5 * kMicrosecond);
  EXPECT_EQ(sim.now(), 5 * kMicrosecond);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1 * kMicrosecond, [&] { ++fired; });
  sim.Schedule(10 * kMicrosecond, [&] { ++fired; });
  sim.RunUntil(5 * kMicrosecond);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.HasPendingEvents());
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StopEndsLoop) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) {
      sim.Schedule(kNanosecond, chain);
    }
  };
  sim.Schedule(0, chain);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 9 * kNanosecond);
}

TEST(TimerTest, FiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer timer(&sim, [&] { ++fired; });
  timer.Arm(3 * kNanosecond);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
}

TEST(TimerTest, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  Timer timer(&sim, [&] { ++fired; });
  timer.Arm(3 * kNanosecond);
  sim.Schedule(kNanosecond, [&] { timer.Cancel(); });
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, RearmSupersedesEarlierDeadline) {
  Simulator sim;
  std::vector<TimePs> fire_times;
  Timer timer(&sim, [&] { fire_times.push_back(sim.now()); });
  timer.Arm(3 * kNanosecond);
  sim.Schedule(kNanosecond, [&] { timer.Arm(10 * kNanosecond); });
  sim.Run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], 11 * kNanosecond);
}

TEST(PeriodicTimerTest, RepeatsUntilCancelled) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer timer(&sim, [&] { ++fired; });
  timer.Start(kMicrosecond);
  sim.Schedule(5 * kMicrosecond + kNanosecond, [&] { timer.Cancel(); });
  sim.Run();
  EXPECT_EQ(fired, 5);
}

TEST(PeriodicTimerTest, CallbackCanRestartWithNewPeriod) {
  Simulator sim;
  std::vector<TimePs> fire_times;
  PeriodicTimer timer(&sim, [&] {
    fire_times.push_back(sim.now());
    if (fire_times.size() == 2) {
      timer.Cancel();
    }
  });
  timer.Start(2 * kNanosecond);
  sim.Run();
  EXPECT_EQ(fire_times, (std::vector<TimePs>{2 * kNanosecond, 4 * kNanosecond}));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr uint64_t kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.Below(kBuckets)];
  }
  for (int count : counts) {
    EXPECT_NEAR(count, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace themis
