// How the queue tests read events back: through EventQueue::PopEventOrBurst,
// the one pop the run loop uses.

#ifndef THEMIS_TESTS_EVENT_QUEUE_POP_H_
#define THEMIS_TESTS_EVENT_QUEUE_POP_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace themis {

// Pops the earliest event due at or before `deadline`, one event per call as
// Simulator's reference drain does, and runs it: a callback-heap event runs
// in place, a calendar tag goes to `on_tag`. Writes the event's time to
// `*time_out` and returns true; returns false, popping nothing, if no event
// is due by `deadline`.
inline bool PopAndRun(EventQueue& q, TimePs* time_out,
                      const std::function<void(uint64_t)>& on_tag = nullptr,
                      TimePs deadline = kTimeInfinity) {
  EventCallback cb;
  uint64_t tag = 0;
  uint64_t seq = 0;
  size_t n = 0;
  if (!q.PopEventOrBurst(deadline, time_out, &cb, &tag, &seq, /*max_n=*/1, &n)) {
    return false;
  }
  if (n == 0) {
    cb();
  } else {
    on_tag(tag);
  }
  return true;
}

}  // namespace themis

#endif  // THEMIS_TESTS_EVENT_QUEUE_POP_H_
