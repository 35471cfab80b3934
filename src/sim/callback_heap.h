// An indexed 4-ary min-heap of callback events.
//
// Holds every event that carries a callback and is not on the line-rate
// calendar: one-shots (workload arrivals, failure injections, calendar
// overflow) and cancellable timers (per-QP RTO re-arms, DCQCN TI/TD/alpha
// ticks, NIC scheduler wake-ups). The heap sifts 24-byte POD keys
// (time, seq, node); callbacks sit in a side pool indexed by node, so a
// callback moves exactly twice — pool-in at Push(), pool-out at Pop().
//
// Each node records its heap slot, so Cancel() removes a timer in O(log n)
// and leaves nothing behind. Handles are generation-checked: a TimerId goes
// stale the moment its entry fires or is cancelled.
//
// Determinism contract: every entry carries the sequence number handed out
// by the owning EventQueue and the heap orders by (time, seq), a total
// order, so the firing order is that of a single global heap.

#ifndef THEMIS_SRC_SIM_CALLBACK_HEAP_H_
#define THEMIS_SRC_SIM_CALLBACK_HEAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/sim/time.h"

namespace themis {

// Handle to a pending timer. Generation-checked: a handle goes stale the
// moment its entry fires or is cancelled.
struct TimerId {
  int32_t node = -1;
  uint32_t generation = 0;

  bool valid() const { return node >= 0; }
};

class CallbackHeap {
 public:
  using Callback = EventCallback;

  CallbackHeap() = default;
  CallbackHeap(const CallbackHeap&) = delete;
  CallbackHeap& operator=(const CallbackHeap&) = delete;

  // Inserts an entry firing at `at` with the caller's queue-wide sequence
  // number. `timer` marks a cancellable entry; the returned id is only
  // meaningful for those.
  TimerId Push(TimePs at, uint64_t seq, Callback cb, bool timer) {
    uint32_t node;
    if (free_.empty()) {
      node = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back();
      callbacks_.push_back(std::move(cb));
    } else {
      node = free_.back();
      free_.pop_back();
      callbacks_[node] = std::move(cb);
    }
    timers_ += timer ? 1 : 0;
    heap_.emplace_back();
    SiftUp(heap_.size() - 1, Entry{at, seq, node, timer});
    return TimerId{static_cast<int32_t>(node), nodes_[node].generation};
  }

  // O(log n) removal. Returns false if the entry already fired or was
  // cancelled.
  bool Cancel(TimerId id) {
    if (!id.valid() || static_cast<size_t>(id.node) >= nodes_.size() ||
        nodes_[static_cast<size_t>(id.node)].generation != id.generation) {
      return false;
    }
    const uint32_t pos = nodes_[static_cast<size_t>(id.node)].pos;
    const Entry e = heap_[pos];
    callbacks_[e.node].Reset();
    RemoveAt(pos);
    Release(e);
    return true;
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  // Pending cancellable timers; the rest of size() are one-shots.
  size_t timers() const { return timers_; }

  // Pre: !empty().
  TimePs TopTime() const { return heap_.front().time; }
  uint64_t TopSeq() const { return heap_.front().seq; }

  // Pre: !empty().
  Callback Pop(TimePs* time_out) {
    const Entry top = heap_.front();
    *time_out = top.time;
    Callback cb = std::move(callbacks_[top.node]);
    RemoveAt(0);
    Release(top);
    return cb;
  }

 private:
  static constexpr size_t kArity = 4;

  // 24-byte POD key: this is what the heap sifts.
  struct Entry {
    TimePs time;
    uint64_t seq;
    uint32_t node;  // nodes_/callbacks_ index
    bool timer;

    bool Before(const Entry& other) const {
      return time < other.time || (time == other.time && seq < other.seq);
    }
  };

  struct Node {
    uint32_t pos = 0;         // heap_ index while pending
    uint32_t generation = 0;  // bumped on every release
  };

  void Place(size_t i, const Entry& e) {
    heap_[i] = e;
    nodes_[e.node].pos = static_cast<uint32_t>(i);
  }

  // Moves the hole at `i` up until `e` fits, then fills it with `e`.
  void SiftUp(size_t i, const Entry& e) {
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!e.Before(heap_[parent])) {
        break;
      }
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, e);
  }

  // Moves the hole at `i` down until `e` fits, then fills it with `e`.
  void SiftDown(size_t i, const Entry& e) {
    const size_t n = heap_.size();
    for (;;) {
      const size_t first = kArity * i + 1;
      if (first >= n) {
        break;
      }
      const size_t last = first + kArity < n ? first + kArity : n;
      size_t best = first;
      for (size_t c = first + 1; c < last; ++c) {
        if (heap_[c].Before(heap_[best])) {
          best = c;
        }
      }
      if (!heap_[best].Before(e)) {
        break;
      }
      Place(i, heap_[best]);
      i = best;
    }
    Place(i, e);
  }

  // Removes the entry at `pos`, refilling the hole with the last entry.
  void RemoveAt(size_t pos) {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) {
      return;
    }
    if (pos > 0 && last.Before(heap_[(pos - 1) / kArity])) {
      SiftUp(pos, last);
    } else {
      SiftDown(pos, last);
    }
  }

  void Release(const Entry& e) {
    timers_ -= e.timer ? 1 : 0;
    ++nodes_[e.node].generation;
    free_.push_back(e.node);
  }

  std::vector<Entry> heap_;          // 4-ary min-heap by (time, seq)
  std::vector<Node> nodes_;          // per-node heap slot + generation
  std::vector<Callback> callbacks_;  // callback side pool, parallel to nodes_
  std::vector<uint32_t> free_;       // recycled node indices
  size_t timers_ = 0;
};

}  // namespace themis

#endif  // THEMIS_SRC_SIM_CALLBACK_HEAP_H_
