// The simulation executive: owns the clock, the event queue, and the RNG.
//
// Every model object holds a Simulator* and schedules work through it. The
// executive is single-threaded by design; determinism comes from integer
// time plus FIFO tie-breaking in the event queue.
//
// Two scheduling tiers (see event_queue.h): tagged line-rate port events
// (SchedulePortEvent) ride a calendar queue sized to the port serialization
// quantum; every callback event — plain Schedule()/ScheduleAt() events and
// cancellable timers (Timer, PeriodicTimer, ScheduleTimer) — shares one
// indexed callback heap. Both tiers draw sequence numbers from the same
// counter, so the firing order — and therefore every fixed-seed trace — is
// identical to a single global heap.

#ifndef THEMIS_SRC_SIM_SIMULATOR_H_
#define THEMIS_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace themis {

class TraceSink;  // src/telemetry/trace.h; the executive only carries the pointer

// Shape of the burst drain loop (sim.bursts / sim.burst_events telemetry):
// burst_events / bursts is the mean same-tick run length.
struct SimBurstStats {
  uint64_t bursts = 0;        // dispatcher invocations (including length 1)
  uint64_t burst_events = 0;  // tagged events that went through the dispatcher
};

class Simulator {
 public:
  // A registered dispatcher executes `n` tagged line-rate events in order and
  // returns how many it completed; it returns early only when Stop() is
  // raised between events, and the executive re-queues the remainder.
  using LineRateDispatcher = size_t (*)(Simulator& sim, const uint64_t* tags, size_t n);

  // Per-tick burst cap. Longer same-tick runs split into multiple dispatches
  // (smaller bursts are still exact); 128 covers every same-tick delivery
  // fan-in the reproduced topologies produce.
  static constexpr size_t kMaxBurst = 128;

  explicit Simulator(uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePs now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `cb` after `delay` (>= 0) from the current time.
  void Schedule(TimePs delay, EventQueue::Callback cb) {
    queue_.ScheduleAt(now_ + delay, std::move(cb));
  }

  // Schedules `cb` at absolute time `at` (>= now()).
  void ScheduleAt(TimePs at, EventQueue::Callback cb) {
    queue_.ScheduleAt(at, std::move(cb));
  }

  // Line-rate fast path: a tagged event at most a serialization quantum plus
  // a propagation delay out — a port's tx-done or delivery, or a NIC's
  // transmit hold. No callback at all: `tag` encodes the port and event
  // kind, and the dispatcher registered via SetLineRateDispatcher decodes it
  // at fire time. Rides the calendar tier (O(1) insert/pop) when one is
  // configured and the deadline is within its horizon; entries beyond it
  // ride the callback heap wrapped in a self-dispatching callback.
  void SchedulePortEvent(TimePs delay, uint64_t tag) {
    const TimePs at = now_ + delay;
    if (!queue_.ScheduleLineRateTagged(at, tag)) {
      queue_.ScheduleAt(at, EventCallback::MustInline([this, tag] {
        const uint64_t single = tag;
        line_rate_dispatcher_(*this, &single, 1);
      }));
    }
  }

  // Installs the decoder for tagged events (Port::DispatchBurst; tests may
  // install their own). One per simulator; installing is idempotent.
  void SetLineRateDispatcher(LineRateDispatcher dispatcher) {
    line_rate_dispatcher_ = dispatcher;
  }

  // Burst mode (default on; set_burst_enabled(false) selects the reference
  // drain, which pops and dispatches tagged events one at a time). Firing
  // order is identical either way — burst mode only batches the drain, it
  // never reorders.
  void set_burst_enabled(bool enabled) { burst_enabled_ = enabled; }
  bool burst_enabled() const { return burst_enabled_; }
  const SimBurstStats& burst_stats() const { return burst_stats_; }

  // True between Stop() and the run loop honoring it; dispatchers poll this
  // between tagged events so a mid-burst Stop() matches scalar semantics.
  bool stop_requested() const { return stopped_; }

  // Sizes the calendar tier to the fabric's serialization quantum; called by
  // Network::AutoSizeScheduler at build time. See EventQueue.
  bool ConfigureCalendar(int width_bits, int bucket_count) {
    return queue_.ConfigureCalendar(width_bits, bucket_count);
  }

  // Read-only queue access for telemetry gauges and tier-occupancy stats.
  const EventQueue& queue() const { return queue_; }

  // Cancellable timer entries on the callback heap; Arm and Cancel are
  // O(log n) and a cancelled entry leaves no residue in the queue.
  TimerId ScheduleTimer(TimePs delay, EventQueue::Callback cb) {
    return queue_.ScheduleTimer(now_ + delay, std::move(cb));
  }

  TimerId ScheduleTimerAt(TimePs at, EventQueue::Callback cb) {
    return queue_.ScheduleTimer(at, std::move(cb));
  }

  bool CancelTimer(TimerId id) { return queue_.CancelTimer(id); }

  // Runs until the event queue drains or Stop() is called. Returns the
  // number of events executed.
  uint64_t Run() { return RunUntil(kTimeInfinity); }

  // Runs until the queue drains, Stop() is called, or the next event would
  // fire after `deadline`. The clock never exceeds `deadline`.
  //
  // Unless Stop() ended the run, the clock is advanced to `deadline` on
  // return (even if the queue drained or the next event lies beyond it), so
  // callers measuring durations after a deadline-bounded run read the full
  // window rather than the timestamp of the last event that happened to
  // fire. A Stop()ed run keeps now() at the stopping event's time.
  uint64_t RunUntil(TimePs deadline) {
    stopped_ = false;
    uint64_t executed = 0;
    TimePs t = 0;
    EventQueue::Callback cb;
    uint64_t tags[kMaxBurst];
    uint64_t seqs[kMaxBurst];
    // Burst drain: same-tick calendar runs come out of the fused pop as one
    // flat array of tags and pay one tier sync for the whole run; callback-
    // heap events pop one at a time. With burst mode off, max_run == 1 turns
    // the tagged path into the scalar reference.
    const size_t max_run = burst_enabled_ && line_rate_dispatcher_ != nullptr ? kMaxBurst : 1;
    size_t burst_n = 0;
    while (!stopped_ &&
           queue_.PopEventOrBurst(deadline, &t, &cb, tags, seqs, max_run, &burst_n)) {
      now_ = t;
      if (burst_n > 0) {
        ++burst_stats_.bursts;
        burst_stats_.burst_events += burst_n;
        const size_t done = line_rate_dispatcher_(*this, tags, burst_n);
        executed += done;
        // Stop() mid-burst: put the undispatched tail back with its original
        // (time, seq) so a resumed run replays the exact scalar order.
        for (size_t k = done; k < burst_n; ++k) {
          queue_.RestoreLineRate(t, seqs[k], tags[k]);
        }
      } else {
        cb();
        ++executed;
      }
    }
    if (!stopped_ && deadline != kTimeInfinity && now_ < deadline) {
      now_ = deadline;
    }
    events_executed_ += executed;
    return executed;
  }

  // Requests the current Run()/RunUntil() loop to return after the event in
  // progress completes.
  void Stop() { stopped_ = true; }

  bool HasPendingEvents() const { return !queue_.empty(); }
  uint64_t events_executed() const { return events_executed_; }

  // Telemetry attachment point (src/telemetry): record sites reach the sink
  // through the simulator every model object already holds. Null (the
  // default) means tracing is off; the sink must outlive the simulation.
  TraceSink* trace_sink() const { return trace_sink_; }
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

 private:
  TimePs now_ = 0;
  bool stopped_ = false;
  bool burst_enabled_ = true;
  uint64_t events_executed_ = 0;
  EventQueue queue_;
  Rng rng_;
  TraceSink* trace_sink_ = nullptr;
  LineRateDispatcher line_rate_dispatcher_ = nullptr;
  SimBurstStats burst_stats_;
};

// A cancellable, re-armable one-shot timer backed by the callback heap.
// Cancel() and re-Arm() physically remove the pending entry — unlike the old
// generation-counting scheme, no superseded no-op event is left behind to be
// popped later.
class Timer {
 public:
  using Callback = std::function<void()>;

  Timer(Simulator* sim, Callback cb) : sim_(sim), callback_(std::move(cb)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { Cancel(); }

  // Arms (or re-arms) the timer to fire `delay` from now.
  void Arm(TimePs delay) {
    if (armed_) {
      sim_->CancelTimer(id_);
    }
    armed_ = true;
    deadline_ = sim_->now() + delay;
    id_ = sim_->ScheduleTimerAt(deadline_, EventCallback::MustInline([this] { OnFire(); }));
  }

  void Cancel() {
    if (armed_) {
      sim_->CancelTimer(id_);
      armed_ = false;
    }
  }

  bool armed() const { return armed_; }
  TimePs deadline() const { return deadline_; }

 private:
  void OnFire() {
    armed_ = false;  // before the callback, which may re-Arm
    callback_();
  }

  Simulator* sim_;
  Callback callback_;
  TimerId id_;
  bool armed_ = false;
  TimePs deadline_ = 0;
};

// A fixed-period repeating timer riding the callback heap. Stops when
// Cancel()ed or destroyed.
class PeriodicTimer {
 public:
  using Callback = std::function<void()>;

  PeriodicTimer(Simulator* sim, Callback cb) : sim_(sim), callback_(std::move(cb)) {}

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  ~PeriodicTimer() { Cancel(); }

  void Start(TimePs period) {
    CancelPending();
    period_ = period;
    running_ = true;
    ++epoch_;
    ScheduleNext();
  }

  void Cancel() {
    CancelPending();
    running_ = false;
    ++epoch_;
  }

  bool running() const { return running_; }
  TimePs period() const { return period_; }

 private:
  void CancelPending() {
    if (pending_) {
      sim_->CancelTimer(id_);
      pending_ = false;
    }
  }

  void ScheduleNext() {
    pending_ = true;
    id_ = sim_->ScheduleTimer(period_, EventCallback::MustInline([this] { OnFire(); }));
  }

  void OnFire() {
    pending_ = false;
    const uint64_t epoch = epoch_;
    callback_();
    // The callback may have cancelled or restarted the timer; only chain the
    // next tick if neither happened.
    if (epoch == epoch_ && running_) {
      ScheduleNext();
    }
  }

  Simulator* sim_;
  Callback callback_;
  TimerId id_;
  TimePs period_ = 0;
  uint64_t epoch_ = 0;
  bool running_ = false;
  bool pending_ = false;
};

}  // namespace themis

#endif  // THEMIS_SRC_SIM_SIMULATOR_H_
