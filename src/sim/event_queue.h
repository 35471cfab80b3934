// A deterministic two-tier discrete-event queue.
//
// Events are (time, sequence, callback) triples. Ties on time are broken by
// insertion sequence so that a given schedule order always replays
// identically, which the reproduction relies on for bit-identical simulation
// traces across runs.
//
// Two tiers share one sequence counter:
//  * ScheduleLineRate() — a calendar queue tuned to the port serialization
//    quantum for the per-packet serialization/delivery chain (two events per
//    packet, the hot path at fig1/fig5 scale). Insert is O(1), and each
//    bucket is sorted once when collected and then popped by index; entries
//    beyond the calendar horizon overflow to the callback heap.
//  * ScheduleAt() and ScheduleTimer()/CancelTimer() — one indexed 4-ary
//    callback heap for everything else: non-cancellable one-shots with
//    irregular or far-future deadlines (workload arrivals, failure
//    injections, calendar overflow) and cancellable timers (per-QP RTO
//    re-arms, DCQCN TI/TD/alpha ticks, NIC scheduler wake-ups). Arm and
//    Cancel are O(log n) and a cancelled timer leaves nothing behind.
// Pop() merges both tiers by (time, sequence), so the observable firing
// order is exactly what a single global heap would produce.

#ifndef THEMIS_SRC_SIM_EVENT_QUEUE_H_
#define THEMIS_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <utility>

#include "src/sim/calendar_queue.h"
#include "src/sim/callback_heap.h"
#include "src/sim/inline_callback.h"
#include "src/sim/time.h"

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
    heap_.Push(at, next_seq_++, std::move(cb), /*timer=*/false);
    ++heap_scheduled_;
  }

  // Line-rate fast path: one-shot events a serialization quantum or so out
  // (port serialization/delivery, NIC line holds) ride the calendar tier;
  // anything the calendar cannot house falls back to the callback heap.
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
  // cannot house `at` — the caller must then wrap the tag in a callback
  // (the callback heap carries no tags).
  bool ScheduleLineRateTagged(TimePs at, uint64_t tag) {
    if (!calendar_.Accepts(at)) {
      return false;
    }
    calendar_.ScheduleTagged(at, next_seq_++, tag);
    ++calendar_scheduled_;
    return true;
  }

  // Schedules a cancellable entry on the callback heap. The returned id
  // stays valid until the entry fires or is cancelled.
  TimerId ScheduleTimer(TimePs at, Callback cb) {
    ++wheel_scheduled_;
    return heap_.Push(at, next_seq_++, std::move(cb), /*timer=*/true);
  }

  // O(log n); returns false if the entry already fired or was cancelled.
  bool CancelTimer(TimerId id) { return heap_.Cancel(id); }

  // Sizes the calendar tier: bucket width 2^width_bits ps, `bucket_count`
  // (power of two) buckets. Only legal while the calendar is empty — the
  // topology builders call this at Network build time, before traffic.
  // Returns false (configuration unchanged) if entries are pending.
  bool ConfigureCalendar(int width_bits, int bucket_count) {
    return calendar_.Configure(width_bits, bucket_count);
  }

  bool empty() const { return heap_.empty() && calendar_.pending() == 0; }
  size_t size() const { return heap_.size() + calendar_.pending(); }

  // Time of the earliest pending event. Queue must be non-empty.
  TimePs NextTime() {
    Sync();
    return CalendarFirst() ? calendar_.ReadyTime() : heap_.TopTime();
  }

  // Removes and returns the earliest event's callback, advancing `*time_out`.
  Callback Pop(TimePs* time_out) {
    Sync();
    return CalendarFirst() ? calendar_.PopReady(time_out) : heap_.Pop(time_out);
  }

  // Fused NextTime()+Pop() for the run loop: pops the earliest event only if
  // it fires at or before `deadline`, paying one calendar sync per call.
  // When that event is a *tagged* calendar entry, drains the whole same-tick
  // run of tagged entries into `tags`/`seqs` (up to `max_n`) and reports its
  // length in `*burst_n`. The run is bounded by the sequence number of the
  // callback heap's top when it shares the tick, so executing it
  // front-to-back is (time, seq)-identical to `burst_n` scalar pops.
  // `*burst_n == 0` means a plain callback event was popped into `*cb`
  // instead. With `max_n == 1` this degrades to the scalar path, one tagged
  // event per call — the reference drain of
  // Simulator::set_burst_enabled(false). Returns false (and leaves `*cb`
  // untouched) if the queue is empty or the earliest event fires after
  // `deadline`.
  bool PopEventOrBurst(TimePs deadline, TimePs* time_out, Callback* cb, uint64_t* tags,
                       uint64_t* seqs, size_t max_n, size_t* burst_n) {
    *burst_n = 0;
    Sync();
    if (!CalendarFirst()) {
      if (heap_.empty() || heap_.TopTime() > deadline) {
        return false;
      }
      *cb = heap_.Pop(time_out);
      return true;
    }
    const TimePs t = calendar_.ReadyTime();
    if (t > deadline) {
      return false;
    }
    if (!calendar_.ReadyIsTagged()) {
      *cb = calendar_.PopReady(time_out);
      return true;
    }
    const uint64_t bound = !heap_.empty() && heap_.TopTime() == t ? heap_.TopSeq() : UINT64_MAX;
    *burst_n = calendar_.PopReadyTaggedRun(t, bound, tags, seqs, max_n);
    *time_out = t;
    return true;  // the best entry was tagged and below bound: burst_n >= 1
  }

  // Re-inserts a tagged entry popped by PopEventOrBurst but not dispatched
  // (Stop() landed mid-burst), preserving its original (time, seq).
  void RestoreLineRate(TimePs t, uint64_t seq, uint64_t tag) {
    calendar_.RestoreReady(t, seq, tag);
  }

  // Per-kind schedule counts: ScheduleAt (calendar overflow included),
  // ScheduleTimer and calendar inserts. The "wheel" names predate the
  // callback heap; telemetry and the benchmark key on them.
  uint64_t heap_scheduled() const { return heap_scheduled_; }
  uint64_t wheel_scheduled() const { return wheel_scheduled_; }
  uint64_t calendar_scheduled() const { return calendar_scheduled_; }
  // Pending one-shots, timers and calendar entries, for the
  // `sim.*_pending` telemetry gauges.
  size_t heap_pending() const { return heap_.size() - heap_.timers(); }
  size_t wheel_pending() const { return heap_.timers(); }
  size_t calendar_pending() const { return calendar_.pending(); }
  const CalendarQueue& calendar() const { return calendar_; }

 private:
  // Collects every calendar bucket that could hold an entry preceding the
  // callback heap's top into the calendar's sorted run, so the merge by
  // (time, seq) is exact.
  void Sync() { calendar_.CollectDue(heap_.empty() ? kTimeInfinity : heap_.TopTime()); }

  // True if the calendar holds the earliest event by (time, seq).
  // Pre: Sync()ed.
  bool CalendarFirst() const {
    if (!calendar_.HasReady()) {
      return false;
    }
    if (heap_.empty()) {
      return true;
    }
    const TimePs t = calendar_.ReadyTime();
    return t < heap_.TopTime() || (t == heap_.TopTime() && calendar_.ReadySeq() < heap_.TopSeq());
  }

  CallbackHeap heap_;
  CalendarQueue calendar_;
  uint64_t next_seq_ = 0;
  uint64_t heap_scheduled_ = 0;
  uint64_t wheel_scheduled_ = 0;
  uint64_t calendar_scheduled_ = 0;
};

}  // namespace themis

#endif  // THEMIS_SRC_SIM_EVENT_QUEUE_H_
