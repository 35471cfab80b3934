// A deterministic three-tier discrete-event queue.
//
// Events are (time, sequence, callback) triples. Ties on time are broken by
// insertion sequence so that a given schedule order always replays
// identically, which the reproduction relies on for bit-identical simulation
// traces across runs.
//
// Three tiers share one sequence counter:
//  * ScheduleAt() — a binary heap for one-shot, non-cancellable events with
//    irregular or far-future deadlines (workload arrivals, failure
//    injections, calendar overflow).
//  * ScheduleTimer()/CancelTimer() — a hierarchical timer wheel for the
//    high-churn cancellable timers (per-QP RTO re-arms, DCQCN TI/TD/alpha
//    ticks, NIC scheduler wake-ups). Arm and Cancel are O(1) and a
//    cancelled timer leaves no garbage event behind.
//  * ScheduleLineRate() — a calendar queue tuned to the port serialization
//    quantum for the per-packet serialization/delivery chain (two events per
//    packet, the hot path at fig1/fig5 scale). Insert and pop are O(1);
//    entries beyond the calendar horizon overflow to the heap.
// Pop() merges all tiers by (time, sequence), so the observable firing
// order is exactly what a single global heap would produce.

#ifndef THEMIS_SRC_SIM_EVENT_QUEUE_H_
#define THEMIS_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/calendar_queue.h"
#include "src/sim/inline_callback.h"
#include "src/sim/time.h"
#include "src/sim/timer_wheel.h"

namespace themis {

class EventQueue {
 public:
  using Callback = EventCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `cb` to fire at absolute time `at`. `at` must not be earlier
  // than the time of the most recently popped event.
  void ScheduleAt(TimePs at, Callback cb) {
    heap_.push_back(Entry{at, next_seq_++, std::move(cb)});
    SiftUp(heap_.size() - 1);
    ++heap_scheduled_;
  }

  // Line-rate fast path: one-shot events a serialization quantum or so out
  // (port serialization/delivery, NIC line holds) ride the calendar tier;
  // anything the calendar cannot house falls back to the heap.
  void ScheduleLineRate(TimePs at, Callback cb) {
    if (calendar_.Accepts(at)) {
      calendar_.Schedule(at, next_seq_++, std::move(cb));
      ++calendar_scheduled_;
    } else {
      ScheduleAt(at, std::move(cb));
    }
  }

  // Callback-free line-rate entry, described entirely by a non-zero `tag`
  // the Simulator's dispatcher decodes. Returns false when the calendar
  // cannot house `at` — the caller must then wrap the tag in a heap event
  // (the heap tier carries no tags).
  bool ScheduleLineRateTagged(TimePs at, uint64_t tag) {
    if (!calendar_.Accepts(at)) {
      return false;
    }
    calendar_.ScheduleTagged(at, next_seq_++, tag);
    ++calendar_scheduled_;
    return true;
  }

  // Schedules a cancellable entry on the timer wheel. The returned id stays
  // valid until the entry fires or is cancelled.
  TimerId ScheduleTimer(TimePs at, Callback cb) {
    ++wheel_scheduled_;
    return wheel_.Schedule(at, next_seq_++, std::move(cb));
  }

  // O(1); returns false if the entry already fired or was cancelled.
  bool CancelTimer(TimerId id) { return wheel_.Cancel(id); }

  // Sizes the calendar tier: bucket width 2^width_bits ps, `bucket_count`
  // (power of two) buckets. Only legal while the calendar is empty — the
  // topology builders call this at Network build time, before traffic.
  // Returns false (configuration unchanged) if entries are pending.
  bool ConfigureCalendar(int width_bits, int bucket_count) {
    return calendar_.Configure(width_bits, bucket_count);
  }

  bool empty() const {
    return heap_.empty() && wheel_.pending() == 0 && calendar_.pending() == 0;
  }
  size_t size() const { return heap_.size() + wheel_.pending() + calendar_.pending(); }

  // Time of the earliest pending event. Queue must be non-empty.
  TimePs NextTime() {
    Sync();
    TimePs t = heap_.empty() ? kTimeInfinity : heap_.front().time;
    if (calendar_.HasReady() && calendar_.ReadyTime() < t) {
      t = calendar_.ReadyTime();
    }
    if (wheel_.HasReady() && wheel_.ReadyTime() < t) {
      t = wheel_.ReadyTime();
    }
    return t;
  }

  // Removes and returns the earliest event's callback, advancing `*time_out`.
  Callback Pop(TimePs* time_out) {
    Sync();
    return PopBest(time_out);
  }

  // Fused NextTime()+Pop(): pops the earliest event only if it fires at or
  // before `deadline`, so the run loop pays for one tier sync per event
  // instead of two. Returns false (and leaves `*cb` untouched) if the queue
  // is empty or the earliest event fires after `deadline`.
  bool PopIfNotAfter(TimePs deadline, TimePs* time_out, Callback* cb) {
    if (empty()) {
      return false;
    }
    Sync();
    const Tier tier = BestTier();
    if (TierTime(tier) > deadline) {
      return false;
    }
    *cb = PopTier(tier, time_out);
    return true;
  }

  // Burst-mode fused pop: like PopIfNotAfter, but when the earliest event is
  // a *tagged* calendar entry, drains the whole same-tick run of tagged
  // entries into `tags`/`seqs` (up to `max_n`) and reports its length in
  // `*burst_n`. The run is bounded by the sequence number of any heap or
  // wheel event sharing the tick, so executing it front-to-back is
  // (time, seq)-identical to `burst_n` scalar pops. `*burst_n == 0` means a
  // plain callback event was popped into `*cb` instead. With `max_n == 1`
  // this degrades to the scalar path, one tagged event per call — the
  // reference drain of Simulator::set_burst_enabled(false).
  bool PopEventOrBurst(TimePs deadline, TimePs* time_out, Callback* cb, uint64_t* tags,
                       uint64_t* seqs, size_t max_n, size_t* burst_n) {
    *burst_n = 0;
    if (empty()) {
      return false;
    }
    Sync();
    const Tier tier = BestTier();
    const TimePs t = TierTime(tier);
    if (t > deadline) {
      return false;
    }
    if (tier == Tier::kCalendar && calendar_.ReadyIsTagged()) {
      uint64_t bound = UINT64_MAX;
      if (!heap_.empty() && heap_.front().time == t) {
        bound = heap_.front().seq;
      }
      if (wheel_.HasReady() && wheel_.ReadyTime() == t && wheel_.ReadySeq() < bound) {
        bound = wheel_.ReadySeq();
      }
      *burst_n = calendar_.PopReadyTaggedRun(t, bound, tags, seqs, max_n);
      *time_out = t;
      return true;  // the best entry was tagged and below bound: burst_n >= 1
    }
    *cb = PopTier(tier, time_out);
    return true;
  }

  // Re-inserts a tagged entry popped by PopEventOrBurst but not dispatched
  // (Stop() landed mid-burst), preserving its original (time, seq).
  void RestoreLineRate(TimePs t, uint64_t seq, uint64_t tag) {
    calendar_.RestoreReady(t, seq, tag);
  }

  void Clear() {
    heap_.clear();
    wheel_.Clear();
    calendar_.Clear();
  }

  uint64_t total_scheduled() const { return next_seq_; }
  // Per-tier schedule counts (calendar overflow counts towards the heap).
  uint64_t heap_scheduled() const { return heap_scheduled_; }
  uint64_t wheel_scheduled() const { return wheel_scheduled_; }
  uint64_t calendar_scheduled() const { return calendar_scheduled_; }
  // Per-tier occupancy, for the `sim.*_pending` telemetry gauges.
  size_t heap_pending() const { return heap_.size(); }
  size_t wheel_pending() const { return wheel_.pending(); }
  size_t calendar_pending() const { return calendar_.pending(); }
  const CalendarQueue& calendar() const { return calendar_; }

 private:
  enum class Tier : uint8_t { kHeap, kWheel, kCalendar };

  struct Entry {
    TimePs time;
    uint64_t seq;
    Callback callback;

    bool Before(const Entry& other) const {
      return time < other.time || (time == other.time && seq < other.seq);
    }
  };

  // Pulls every wheel and calendar entry that could precede the earliest
  // visible candidate into the respective ready heaps, so the merge in
  // Pop()/NextTime() is exact. The calendar is collected against the heap
  // top; the wheel against the min of heap top and calendar ready — any
  // entry that could be the global minimum ends up comparable.
  void Sync() {
    const TimePs heap_top = heap_.empty() ? kTimeInfinity : heap_.front().time;
    calendar_.CollectDue(heap_top);
    TimePs wheel_bound = heap_top;
    if (calendar_.HasReady() && calendar_.ReadyTime() < wheel_bound) {
      wheel_bound = calendar_.ReadyTime();
    }
    wheel_.CollectDue(wheel_bound);
  }

  // Earliest tier by (time, seq). Pre: Sync()ed and not empty.
  Tier BestTier() {
    TimePs best_time = kTimeInfinity;
    uint64_t best_seq = UINT64_MAX;
    Tier tier = Tier::kHeap;
    if (!heap_.empty()) {
      best_time = heap_.front().time;
      best_seq = heap_.front().seq;
    }
    if (calendar_.HasReady()) {
      const TimePs t = calendar_.ReadyTime();
      const uint64_t s = calendar_.ReadySeq();
      if (t < best_time || (t == best_time && s < best_seq)) {
        best_time = t;
        best_seq = s;
        tier = Tier::kCalendar;
      }
    }
    if (wheel_.HasReady()) {
      const TimePs t = wheel_.ReadyTime();
      if (t < best_time || (t == best_time && wheel_.ReadySeq() < best_seq)) {
        tier = Tier::kWheel;
      }
    }
    return tier;
  }

  TimePs TierTime(Tier tier) {
    switch (tier) {
      case Tier::kWheel:
        return wheel_.ReadyTime();
      case Tier::kCalendar:
        return calendar_.ReadyTime();
      case Tier::kHeap:
        break;
    }
    return heap_.front().time;
  }

  Callback PopTier(Tier tier, TimePs* time_out) {
    switch (tier) {
      case Tier::kWheel:
        return wheel_.PopReady(time_out);
      case Tier::kCalendar:
        return calendar_.PopReady(time_out);
      case Tier::kHeap:
        break;
    }
    Entry top = std::move(heap_.front());
    const size_t n = heap_.size() - 1;
    if (n > 0) {
      heap_.front() = std::move(heap_.back());
    }
    heap_.pop_back();
    if (n > 1) {
      SiftDown(0);
    }
    *time_out = top.time;
    return std::move(top.callback);
  }

  Callback PopBest(TimePs* time_out) { return PopTier(BestTier(), time_out); }

  void SiftUp(size_t i) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!heap_[i].Before(heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    while (true) {
      const size_t left = 2 * i + 1;
      const size_t right = 2 * i + 2;
      size_t smallest = i;
      if (left < n && heap_[left].Before(heap_[smallest])) {
        smallest = left;
      }
      if (right < n && heap_[right].Before(heap_[smallest])) {
        smallest = right;
      }
      if (smallest == i) {
        break;
      }
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  std::vector<Entry> heap_;
  TimerWheel wheel_;
  CalendarQueue calendar_;
  uint64_t next_seq_ = 0;
  uint64_t heap_scheduled_ = 0;
  uint64_t wheel_scheduled_ = 0;
  uint64_t calendar_scheduled_ = 0;
};

}  // namespace themis

#endif  // THEMIS_SRC_SIM_EVENT_QUEUE_H_
