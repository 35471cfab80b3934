// Tests for the two-tier event engine: the InlineCallback small-buffer
// type, the indexed callback heap (one-shots and cancellable timers), the
// line-rate calendar queue, and the (time, seq) merge of the two tiers.
//
// The centrepiece is a pair of randomized stress tests that drive the real
// EventQueue and a naive sorted-reference model through identical
// Schedule/ScheduleTimer/Cancel/Pop interleavings and demand the exact same
// firing order — the property ("the tiers are invisible") that keeps
// fixed-seed traces bit-identical across engine refactors.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_queue.h"
#include "src/sim/inline_callback.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace themis {
namespace {

// --- InlineCallback ----------------------------------------------------------

TEST(InlineCallbackTest, SmallCaptureStoredInline) {
  int hits = 0;
  int* p = &hits;
  EventCallback cb([p] { ++*p; });
  EXPECT_TRUE(cb.stored_inline());
  EXPECT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, CaptureAtCapacityStoredInline) {
  struct Exact {
    unsigned char bytes[kEventCallbackInlineBytes - sizeof(int*)];
  };
  static_assert(EventCallback::kWouldInline<Exact>);
  int hits = 0;
  int* p = &hits;
  Exact payload{};
  EventCallback cb([p, payload] {
    (void)payload;
    ++*p;
  });
  EXPECT_TRUE(cb.stored_inline());
  cb();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallbackTest, OversizedCaptureFallsBackToHeap) {
  struct Big {
    unsigned char bytes[kEventCallbackInlineBytes + 1] = {};
  };
  static_assert(!EventCallback::kWouldInline<Big>);
  int hits = 0;
  int* p = &hits;
  Big payload;
  payload.bytes[0] = 7;
  EventCallback cb([p, payload] { *p += payload.bytes[0]; });
  EXPECT_FALSE(cb.stored_inline());
  cb();
  EXPECT_EQ(hits, 7);
}

TEST(InlineCallbackTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  EventCallback a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  EventCallback b(std::move(a));
  EXPECT_EQ(counter.use_count(), 2);  // moved, not copied
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: moved-from state is empty
  b();
  EXPECT_EQ(*counter, 1);
  EventCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 2);
}

TEST(InlineCallbackTest, ResetDestroysCapture) {
  auto counter = std::make_shared<int>(0);
  EventCallback cb([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  cb.Reset();
  EXPECT_EQ(counter.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallbackTest, MustInlineAcceptsPacketPathCaptures) {
  // The typical packet-path shape: `this` plus a couple of words.
  struct Fake {
    int x = 0;
  } fake;
  int extra = 3;
  auto cb = EventCallback::MustInline([&fake, extra] { fake.x += extra; });
  cb();
  EXPECT_EQ(fake.x, 3);
}

// --- Timer cancel and order via EventQueue -----------------------------------

TEST(TimerCancelTest, CancelledTimerNeverFiresAndLeavesNoEvent) {
  EventQueue q;
  int fired = 0;
  TimerId id = q.ScheduleTimer(1000, [&fired] { ++fired; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.CancelTimer(id));
  EXPECT_TRUE(q.empty());       // physically removed, no no-op residue
  EXPECT_FALSE(q.CancelTimer(id));  // stale handle
  EXPECT_EQ(fired, 0);
}

TEST(TimerCancelTest, CancelOfTheReportedMinimumWins) {
  EventQueue q;
  int fired = 0;
  TimerId id = q.ScheduleTimer(100, [&fired] { ++fired; });
  q.ScheduleAt(50'000'000, [] {});
  // NextTime() has just reported the timer as the earliest event (it sits at
  // the heap top). A cancel must still win.
  EXPECT_EQ(q.NextTime(), 100);
  EXPECT_TRUE(q.CancelTimer(id));
  TimePs t = 0;
  q.Pop(&t)();
  EXPECT_EQ(t, 50'000'000);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, 0);
}

TEST(TimerOrderTest, FarFutureTimersFireInOrder) {
  // Deadlines 300-600 s out, scheduled out of order.
  EventQueue q;
  std::vector<int> order;
  q.ScheduleTimer(300 * kSecond + 5, [&order] { order.push_back(2); });
  q.ScheduleTimer(300 * kSecond, [&order] { order.push_back(1); });
  q.ScheduleTimer(600 * kSecond, [&order] { order.push_back(3); });
  while (!q.empty()) {
    TimePs t = 0;
    q.Pop(&t)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerOrderTest, FifoTieBreakWithOneShots) {
  // Timers and one-shots at the same timestamp fire in scheduling order.
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(500, [&order] { order.push_back(0); });
  q.ScheduleTimer(500, [&order] { order.push_back(1); });
  q.ScheduleAt(500, [&order] { order.push_back(2); });
  q.ScheduleTimer(500, [&order] { order.push_back(3); });
  while (!q.empty()) {
    TimePs t = 0;
    q.Pop(&t)();
    EXPECT_EQ(t, 500);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --- Randomized stress: timers + one-shots vs a sorted-reference model -------

struct RefEntry {
  TimePs time = 0;
  uint64_t seq = 0;
  int id = 0;
  bool cancelled = false;
  bool fired = false;
  bool timer = false;
};

TEST(TimerChurnStressTest, MatchesReferenceUnderRandomChurn) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<RefEntry> ref;   // one slot per scheduled entry, by id
    std::vector<int> fired;      // ids in actual firing order
    std::vector<std::pair<TimerId, int>> handles;  // timer handle -> ref id
    uint64_t next_seq = 0;       // mirrors the queue's internal counter
    TimePs now = 0;
    uint64_t monotonic_check = 0;
    size_t live_oneshots = 0;    // reference counts of pending entries
    size_t live_timers = 0;

    // Delays from sub-ns through seconds to minutes out, so the heap holds
    // near and far deadlines at once and near-ties are common.
    auto random_delay = [&rng]() -> TimePs {
      switch (rng.Below(8)) {
        case 0:
          return static_cast<TimePs>(rng.Below(100));  // sub-slot
        case 1:
        case 2:
        case 3:
          return static_cast<TimePs>(rng.Below(2 * kMicrosecond));
        case 4:
        case 5:
          return static_cast<TimePs>(rng.Below(200 * kMicrosecond));
        case 6:
          return static_cast<TimePs>(rng.Below(2 * kSecond));
        default:
          return 280 * kSecond + static_cast<TimePs>(rng.Below(100 * kSecond));
      }
    };

    auto fire = [&ref, &fired, &live_oneshots, &live_timers](int id) {
      RefEntry& entry = ref[static_cast<size_t>(id)];
      EXPECT_FALSE(entry.cancelled);
      EXPECT_FALSE(entry.fired);
      entry.fired = true;
      --(entry.timer ? live_timers : live_oneshots);
      fired.push_back(id);
    };

    for (int op = 0; op < 20'000; ++op) {
      const uint64_t dice = rng.Below(100);
      if (dice < 40) {  // arm a timer
        const int id = static_cast<int>(ref.size());
        const TimePs at = now + random_delay();
        ref.push_back(RefEntry{at, next_seq++, id, false, false, true});
        handles.emplace_back(q.ScheduleTimer(at, [&fire, id] { fire(id); }), id);
        ++live_timers;
      } else if (dice < 55) {  // schedule a one-shot
        const int id = static_cast<int>(ref.size());
        const TimePs at = now + random_delay();
        ref.push_back(RefEntry{at, next_seq++, id, false, false, false});
        q.ScheduleAt(at, [&fire, id] { fire(id); });
        ++live_oneshots;
      } else if (dice < 75) {  // cancel (possibly stale) timer handle
        if (!handles.empty()) {
          const size_t pick = static_cast<size_t>(rng.Below(handles.size()));
          auto [handle, id] = handles[pick];
          RefEntry& entry = ref[static_cast<size_t>(id)];
          const bool expect_ok = !entry.fired && !entry.cancelled;
          EXPECT_EQ(q.CancelTimer(handle), expect_ok) << "id=" << id;
          if (expect_ok) {
            entry.cancelled = true;
            --live_timers;
          }
          handles.erase(handles.begin() + static_cast<long>(pick));
        }
      } else {  // pop one event
        if (!q.empty()) {
          TimePs t = 0;
          EventQueue::Callback cb = q.Pop(&t);
          EXPECT_GE(t, now);
          now = t;
          cb();
          ++monotonic_check;
        }
      }
      // The occupancy gauges stay exact after every operation.
      ASSERT_EQ(q.size(), live_oneshots + live_timers) << "seed=" << seed << " op=" << op;
      ASSERT_EQ(q.heap_pending(), live_oneshots) << "seed=" << seed << " op=" << op;
      ASSERT_EQ(q.wheel_pending(), live_timers) << "seed=" << seed << " op=" << op;
    }

    // Drain the remainder.
    while (!q.empty()) {
      TimePs t = 0;
      EventQueue::Callback cb = q.Pop(&t);
      EXPECT_GE(t, now);
      now = t;
      cb();
    }

    // Expected order: every non-cancelled entry, sorted by (time, seq).
    std::vector<RefEntry> expected;
    for (const RefEntry& e : ref) {
      if (!e.cancelled) {
        expected.push_back(e);
      }
    }
    std::sort(expected.begin(), expected.end(), [](const RefEntry& a, const RefEntry& b) {
      return a.time < b.time || (a.time == b.time && a.seq < b.seq);
    });
    ASSERT_EQ(fired.size(), expected.size()) << "seed=" << seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(fired[i], expected[i].id) << "seed=" << seed << " position=" << i;
    }
    EXPECT_GT(monotonic_check, 0u);
  }
}

// Re-arm churn through the public Timer API, cross-checked against an
// independently computed expectation.
TEST(TimerChurnStressTest, TimerRearmChurnFiresExactlyLastArm) {
  Simulator sim(3);
  constexpr int kTimers = 32;
  std::vector<int> fires(kTimers, 0);
  std::vector<TimePs> fire_times(kTimers, -1);
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(&sim, [&sim, &fires, &fire_times, i] {
      ++fires[static_cast<size_t>(i)];
      fire_times[static_cast<size_t>(i)] = sim.now();
    }));
  }
  // Each timer is re-armed 100 times at decreasing deadlines-from-arm-time;
  // only the final arm may fire.
  std::vector<TimePs> expected(kTimers, 0);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < kTimers; ++i) {
      const TimePs delay = (101 - round) * kMicrosecond + i;
      sim.ScheduleAt(static_cast<TimePs>(round) * kMicrosecond,
                     [&timers, &expected, &sim, i, delay] {
                       timers[static_cast<size_t>(i)]->Arm(delay);
                       expected[static_cast<size_t>(i)] = sim.now() + delay;
                     });
    }
  }
  sim.Run();
  for (int i = 0; i < kTimers; ++i) {
    EXPECT_EQ(fires[static_cast<size_t>(i)], 1) << i;
    EXPECT_EQ(fire_times[static_cast<size_t>(i)], expected[static_cast<size_t>(i)]) << i;
  }
}

// --- CalendarQueue via EventQueue -------------------------------------------

TEST(CalendarQueueTest, UnconfiguredLineRateFallsBackToHeap) {
  EventQueue q;
  int fired = 0;
  q.ScheduleLineRate(100, [&fired] { ++fired; });
  EXPECT_EQ(q.calendar_scheduled(), 0u);
  EXPECT_EQ(q.heap_scheduled(), 1u);
  TimePs t = 0;
  q.Pop(&t)();
  EXPECT_EQ(t, 100);
  EXPECT_EQ(fired, 1);
}

TEST(CalendarQueueTest, ConfigureRejectedWhileEntriesPending) {
  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(/*width_bits=*/10, /*bucket_count=*/8));
  q.ScheduleLineRate(100, [] {});
  EXPECT_EQ(q.calendar_scheduled(), 1u);
  EXPECT_FALSE(q.ConfigureCalendar(12, 16));  // entry pending: refuse
  TimePs t = 0;
  q.Pop(&t)();
  EXPECT_TRUE(q.ConfigureCalendar(12, 16));  // drained: allowed again
}

// Calendar entries, one-shots and timers — three kinds of entry on the two
// tiers — fire in scheduling order at one timestamp.
TEST(CalendarQueueTest, FifoTieBreakAcrossAllThreeTiers) {
  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(10, 8));
  std::vector<int> order;
  q.ScheduleAt(500, [&order] { order.push_back(0); });
  q.ScheduleLineRate(500, [&order] { order.push_back(1); });
  q.ScheduleTimer(500, [&order] { order.push_back(2); });
  q.ScheduleLineRate(500, [&order] { order.push_back(3); });
  q.ScheduleAt(500, [&order] { order.push_back(4); });
  EXPECT_EQ(q.calendar_scheduled(), 2u);
  while (!q.empty()) {
    TimePs t = 0;
    q.Pop(&t)();
    EXPECT_EQ(t, 500);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(CalendarQueueTest, BucketWrapKeepsOrder) {
  // 8 buckets x 1024 ps = 8192 ps horizon. A serialization-style chain —
  // each fired event schedules the next a fraction of the horizon ahead —
  // drives the cursor around the bucket array dozens of times; every event
  // must stay on the calendar (no overflow) and fire in order.
  struct Chain {
    EventQueue* q = nullptr;
    TimePs now = 0;
    int remaining = 0;
    std::vector<TimePs> fire_times;

    void Next() {
      if (remaining-- <= 0) {
        return;
      }
      // Mixed spacing: same-bucket, adjacent-bucket, and multi-bucket hops.
      const TimePs gap = (remaining % 3 == 0) ? 300 : (remaining % 3 == 1) ? 1100 : 5000;
      const TimePs at = now + gap;
      q->ScheduleLineRate(at, [this, at] {
        now = at;
        fire_times.push_back(at);
        Next();
      });
    }
  };

  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(10, 8));
  Chain chain{&q, 0, 200, {}};
  chain.Next();
  TimePs prev = -1;
  while (!q.empty()) {
    TimePs t = 0;
    q.Pop(&t)();
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_EQ(chain.fire_times.size(), 200u);
  EXPECT_EQ(q.calendar_scheduled(), 200u);  // the whole chain stayed on-tier
  EXPECT_EQ(q.heap_scheduled(), 0u);
  // Total span >> horizon: the cursor necessarily wrapped many times.
  EXPECT_GT(chain.fire_times.back(), 40 * q.calendar().horizon());
}

TEST(CalendarQueueTest, BeyondHorizonOverflowsToHeapInOrder) {
  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(10, 8));  // horizon 8192 ps
  std::vector<int> order;
  q.ScheduleLineRate(100, [&order] { order.push_back(0); });  // calendar
  // The cursor re-anchored around t=100, so +1 ms is far beyond the horizon.
  q.ScheduleLineRate(kMillisecond, [&order] { order.push_back(2); });  // heap
  q.ScheduleLineRate(200, [&order] { order.push_back(1); });           // calendar
  EXPECT_EQ(q.calendar_scheduled(), 2u);
  EXPECT_EQ(q.heap_scheduled(), 1u);
  while (!q.empty()) {
    TimePs t = 0;
    q.Pop(&t)();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(CalendarQueueTest, ReanchorsAfterIdleStretch) {
  // Drain the calendar, then schedule an event far past the old cursor: the
  // tier must accept it (cursor re-anchors) instead of overflowing forever.
  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(10, 8));
  int fired = 0;
  q.ScheduleLineRate(100, [&fired] { ++fired; });
  TimePs t = 0;
  q.Pop(&t)();
  EXPECT_EQ(fired, 1);
  // 1 s later — thousands of horizons past the drained cursor.
  q.ScheduleLineRate(kSecond, [&fired] { ++fired; });
  EXPECT_EQ(q.calendar_scheduled(), 2u);  // accepted, not overflowed
  q.Pop(&t)();
  EXPECT_EQ(t, kSecond);
  EXPECT_EQ(fired, 2);
}

// Randomized stress: line-rate events, timers and one-shots against the
// sorted-reference model.
// A deliberately tiny calendar (8 buckets x 1024 ps = 8192 ps horizon)
// forces constant bucket wraps and frequent overflow-to-heap, while delays
// of 0 generate (time, seq) ties across tiers. Wider buckets on the same
// delays collect hundreds of entries at a time, so each bucket is sorted by
// the radix passes: 2^15 ps buckets split the time offset into an 8- and a
// 7-bit digit, 2^24 ps buckets into two 12-bit digits. A dense opening —
// several hundred entries on a few dozen random ticks of one window — fills
// one bucket far past a chunk before anything pops.
TEST(CalendarStressTest, ThreeTierMixMatchesReference) {
  for (const int width_bits : {10, 15, 24}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(testing::Message() << "width_bits=" << width_bits << " seed=" << seed);
      Rng rng(seed);
      EventQueue q;
      ASSERT_TRUE(q.ConfigureCalendar(width_bits, 8));
      std::vector<RefEntry> ref;
      std::vector<int> fired;
      std::vector<std::pair<TimerId, int>> live_timers;
      uint64_t next_seq = 0;
      TimePs now = 0;

      auto random_delay = [&rng]() -> TimePs {
        switch (rng.Below(8)) {
          case 0:
            return 0;  // tie on time with whatever pops next
          case 1:
          case 2:
          case 3:
            return static_cast<TimePs>(rng.Below(2'000));  // in-horizon
          case 4:
          case 5:
            return static_cast<TimePs>(rng.Below(20'000));  // wrap + overflow
          case 6:
            return static_cast<TimePs>(rng.Below(2 * kMicrosecond));
          default:
            return static_cast<TimePs>(rng.Below(kMillisecond));  // far overflow
        }
      };

      auto fire = [&ref, &fired](int id) {
        EXPECT_FALSE(ref[static_cast<size_t>(id)].cancelled);
        EXPECT_FALSE(ref[static_cast<size_t>(id)].fired);
        ref[static_cast<size_t>(id)].fired = true;
        fired.push_back(id);
      };

      // Dense opening: 400 entries on 64 random ticks of the first window.
      std::vector<TimePs> ticks(64);
      for (TimePs& tick : ticks) {
        tick = static_cast<TimePs>(rng.Below(uint64_t{1} << width_bits));
      }
      for (int i = 0; i < 400; ++i) {
        const int id = static_cast<int>(ref.size());
        const TimePs at = ticks[rng.Below(ticks.size())];
        ref.push_back(RefEntry{at, next_seq++, id, false, false});
        if (i % 8 == 0) {
          q.ScheduleAt(at, [&fire, id] { fire(id); });
        } else {
          q.ScheduleLineRate(at, [&fire, id] { fire(id); });
        }
      }

      for (int op = 0; op < 20'000; ++op) {
        const uint64_t dice = rng.Below(100);
        if (dice < 35) {  // line-rate event (calendar or overflow)
          const int id = static_cast<int>(ref.size());
          const TimePs at = now + random_delay();
          ref.push_back(RefEntry{at, next_seq++, id, false, false});
          q.ScheduleLineRate(at, [&fire, id] { fire(id); });
        } else if (dice < 55) {  // timer
          const int id = static_cast<int>(ref.size());
          const TimePs at = now + random_delay();
          ref.push_back(RefEntry{at, next_seq++, id, false, false});
          live_timers.emplace_back(q.ScheduleTimer(at, [&fire, id] { fire(id); }), id);
        } else if (dice < 65) {  // one-shot
          const int id = static_cast<int>(ref.size());
          const TimePs at = now + random_delay();
          ref.push_back(RefEntry{at, next_seq++, id, false, false});
          q.ScheduleAt(at, [&fire, id] { fire(id); });
        } else if (dice < 75) {  // cancel a (possibly stale) timer handle
          if (!live_timers.empty()) {
            const size_t pick = static_cast<size_t>(rng.Below(live_timers.size()));
            auto [handle, id] = live_timers[pick];
            RefEntry& entry = ref[static_cast<size_t>(id)];
            const bool expect_ok = !entry.fired && !entry.cancelled;
            EXPECT_EQ(q.CancelTimer(handle), expect_ok) << "id=" << id;
            if (expect_ok) {
              entry.cancelled = true;
            }
            live_timers.erase(live_timers.begin() + static_cast<long>(pick));
          }
        } else {  // pop one event
          if (!q.empty()) {
            TimePs t = 0;
            EventQueue::Callback cb = q.Pop(&t);
            EXPECT_GE(t, now);
            now = t;
            cb();
          }
        }
      }

      while (!q.empty()) {
        TimePs t = 0;
        EventQueue::Callback cb = q.Pop(&t);
        EXPECT_GE(t, now);
        now = t;
        cb();
      }

      EXPECT_GT(q.calendar_scheduled(), 0u) << "seed=" << seed;
      EXPECT_GT(q.heap_scheduled(), 0u) << "seed=" << seed;  // incl. overflow

      std::vector<RefEntry> expected;
      for (const RefEntry& e : ref) {
        if (!e.cancelled) {
          expected.push_back(e);
        }
      }
      std::sort(expected.begin(), expected.end(), [](const RefEntry& a, const RefEntry& b) {
        return a.time < b.time || (a.time == b.time && a.seq < b.seq);
      });
      ASSERT_EQ(fired.size(), expected.size()) << "seed=" << seed;
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(fired[i], expected[i].id) << "seed=" << seed << " position=" << i;
      }
    }
  }
}

// --- PopEventOrBurst deadline (fused NextTime + Pop) --------------------------

TEST(PopEventOrBurstTest, RespectsDeadlineAcrossTiers) {
  EventQueue q;
  ASSERT_TRUE(q.ConfigureCalendar(10, 8));
  std::vector<int> order;
  q.ScheduleLineRate(100, [&order] { order.push_back(0); });
  q.ScheduleTimer(200, [&order] { order.push_back(1); });
  q.ScheduleAt(300, [&order] { order.push_back(2); });

  TimePs t = 0;
  EventQueue::Callback cb;
  uint64_t tag = 0;
  uint64_t seq = 0;
  size_t burst_n = 0;
  // One event per call, as the scalar reference drain pops.
  auto pop = [&](TimePs deadline) {
    return q.PopEventOrBurst(deadline, &t, &cb, &tag, &seq, /*max_n=*/1, &burst_n);
  };
  // Deadline below everything: nothing pops, queue intact.
  EXPECT_FALSE(pop(99));
  EXPECT_EQ(q.size(), 3u);
  // Deadline admits the first two, in order, then refuses the third.
  ASSERT_TRUE(pop(250));
  EXPECT_EQ(burst_n, 0u);  // a callback event, not a tagged run
  cb();
  EXPECT_EQ(t, 100);
  ASSERT_TRUE(pop(250));
  EXPECT_EQ(burst_n, 0u);
  cb();
  EXPECT_EQ(t, 200);
  EXPECT_FALSE(pop(250));
  EXPECT_EQ(q.size(), 1u);
  // Exact-time deadline is inclusive.
  ASSERT_TRUE(pop(300));
  EXPECT_EQ(burst_n, 0u);
  cb();
  EXPECT_EQ(t, 300);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(pop(1'000'000));  // empty queue
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- RunUntil deadline semantics --------------------------------------------

TEST(RunUntilTest, AdvancesClockToDeadlineOnEarlyExit) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&fired] { ++fired; });
  // Queue drains before the deadline: the clock still lands on it.
  sim.RunUntil(5'000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5'000);
  // Next event beyond the deadline: same rule.
  sim.Schedule(10'000, [&fired] { ++fired; });  // fires at t=15'000
  sim.RunUntil(7'000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 7'000);
  // Stop() keeps the clock at the stopping event.
  sim.Schedule(1'000, [&sim, &fired] {
    ++fired;
    sim.Stop();
  });
  sim.RunUntil(20'000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 8'000);
  // Run() (infinite deadline) never advances past the last event.
  sim.Run();
  EXPECT_EQ(sim.now(), 15'000);
  EXPECT_EQ(fired, 3);
}

// ---------------------------------------------------------------------------
// Burst drain-loop property tests. A recording dispatcher logs every tagged
// event it executes as (fire time, tag); the burst path (same-tick runs
// handed over as flat arrays) must replay the scalar reference — burst mode
// off, one tagged event per dispatch — bit-exactly, under randomized tick
// collisions, run-breaking callbacks, same-tick one-shot and timer bounds,
// and overflow-to-heap tagged entries.

struct BurstLog {
  std::vector<std::pair<TimePs, uint64_t>> events;  // tag 0 = plain callback
  size_t dispatches = 0;
};

BurstLog* g_burst_log = nullptr;
uint64_t g_stop_tag = 0;  // StoppingDispatcher raises Stop() after this tag

size_t RecordingDispatcher(Simulator& sim, const uint64_t* tags, size_t n) {
  ++g_burst_log->dispatches;
  for (size_t i = 0; i < n; ++i) {
    g_burst_log->events.emplace_back(sim.now(), tags[i]);
  }
  return n;
}

size_t StoppingDispatcher(Simulator& sim, const uint64_t* tags, size_t n) {
  ++g_burst_log->dispatches;
  for (size_t i = 0; i < n; ++i) {
    if (sim.stop_requested()) {
      return i;  // undispatched tail goes back to the queue
    }
    g_burst_log->events.emplace_back(sim.now(), tags[i]);
    if (tags[i] == g_stop_tag) {
      sim.Stop();
    }
  }
  return n;
}

// Self-rescheduling volley generator: each firing packs several tagged events
// onto few distinct ticks (collisions on purpose), sometimes adds a
// run-breaking plain callback or a same-tick one-shot or timer, and
// occasionally throws a tagged event beyond the calendar horizon
// (heap-wrapper path).
struct BurstStorm {
  Simulator* sim = nullptr;
  Rng* rng = nullptr;
  int volleys = 0;
  uint64_t next_tag = 8;  // non-zero, distinct per event

  void LogCallback() { g_burst_log->events.emplace_back(sim->now(), 0); }

  void Fire() {
    if (volleys-- <= 0) {
      return;
    }
    const int m = 1 + static_cast<int>(rng->Below(6));
    for (int i = 0; i < m; ++i) {
      sim->SchedulePortEvent(static_cast<TimePs>(rng->Below(4)) * 32, next_tag);
      next_tag += 8;
    }
    switch (rng->Below(4)) {
      case 0:  // plain line-rate callback: breaks any tagged run on its tick
        sim->ScheduleSerialization(static_cast<TimePs>(rng->Below(4)) * 32,
                                   [this] { LogCallback(); });
        break;
      case 1:  // same-tick heap event: bounds the run by its sequence number
        sim->ScheduleInline(static_cast<TimePs>(rng->Below(4)) * 32,
                            [this] { LogCallback(); });
        break;
      case 2:  // far beyond the 1024 ps horizon: tagged overflow rides the heap
        sim->SchedulePortEvent(50'000 + static_cast<TimePs>(rng->Below(1'000)), next_tag);
        next_tag += 8;
        break;
      default:  // same-tick timer: bounds the run like a one-shot
        sim->ScheduleTimer(static_cast<TimePs>(rng->Below(4)) * 32,
                           EventCallback::MustInline([this] { LogCallback(); }));
        break;
    }
    sim->ScheduleInline(32 + static_cast<TimePs>(rng->Below(200)), [this] { Fire(); });
  }
};

TEST(BurstDispatchTest, MatchesScalarReferenceUnderRandomTickCollisions) {
  size_t scalar_dispatches = 0;
  size_t burst_dispatches = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    BurstLog logs[2];
    for (int mode = 0; mode < 2; ++mode) {
      Simulator sim(seed);
      ASSERT_TRUE(sim.ConfigureCalendar(6, 16));  // 64 ps buckets, 1024 ps horizon
      sim.set_burst_enabled(mode == 1);
      sim.SetLineRateDispatcher(&RecordingDispatcher);
      g_burst_log = &logs[mode];
      Rng rng(seed * 1'000 + 7);
      BurstStorm storm{&sim, &rng, 120, 8};
      sim.ScheduleInline(0, [&storm] { storm.Fire(); });
      sim.RunUntil(kTimeInfinity);
      g_burst_log = nullptr;
    }
    ASSERT_FALSE(logs[0].events.empty());
    EXPECT_EQ(logs[0].events, logs[1].events) << "burst order diverged, seed " << seed;
    // Grouping only ever merges dispatches, never splits them.
    EXPECT_LE(logs[1].dispatches, logs[0].dispatches) << "seed " << seed;
    scalar_dispatches += logs[0].dispatches;
    burst_dispatches += logs[1].dispatches;
  }
  // The collision-heavy schedule must actually have formed multi-event runs.
  EXPECT_LT(burst_dispatches, scalar_dispatches);
}

TEST(BurstDispatchTest, StopMidBurstRestoresUndispatchedTail) {
  Simulator sim(1);
  ASSERT_TRUE(sim.ConfigureCalendar(6, 16));
  sim.set_burst_enabled(true);
  sim.SetLineRateDispatcher(&StoppingDispatcher);
  BurstLog log;
  g_burst_log = &log;
  for (uint64_t i = 1; i <= 6; ++i) {
    sim.SchedulePortEvent(64, i * 8);  // one same-tick run of six
  }
  g_stop_tag = 3 * 8;  // Stop() lands mid-burst, after the third event
  sim.RunUntil(kTimeInfinity);
  EXPECT_EQ(log.events.size(), 3u);
  EXPECT_EQ(sim.now(), 64);  // Stop() keeps the clock at the stopping event
  // The tail was restored with its original (time, seq): resuming replays
  // the remaining three in the exact scalar order.
  g_stop_tag = 0;
  sim.RunUntil(kTimeInfinity);
  ASSERT_EQ(log.events.size(), 6u);
  for (uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(log.events[i], (std::pair<TimePs, uint64_t>(64, (i + 1) * 8)));
  }
  g_burst_log = nullptr;
}

}  // namespace
}  // namespace themis
