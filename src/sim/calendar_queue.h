// A calendar queue for line-rate one-shot events.
//
// Most events are port serialization/delivery events: two per packet, both
// scheduled at most one serialization quantum plus one propagation delay
// ahead of now, firing at near-uniform spacing (one MTU at line rate). A
// calendar queue whose bucket width is tuned to that quantum makes this hot
// path O(1) per event: insert is a push_back into the target bucket, and the
// cursor collects at most one mostly-singleton bucket per pop.
//
// Determinism contract (same as the callback heap): every entry carries the
// sequence number handed out by the owning EventQueue, buckets drain through
// a small ready heap ordered by (time, seq), and the queue merges that ready
// heap with the callback heap. The observable firing order is bit-identical
// to a single global heap.
//
// Entries are non-cancellable (serialization/delivery chains never cancel),
// which is what keeps the tier this simple: no nodes, no generations, no
// tombstones — just small (time, seq, tag, slot) keys moved bucket -> ready.
//
// Cursor policy: the cursor only advances while collecting. When no entry is
// bucketed, the next insert re-anchors the cursor half a horizon behind the
// event, so the tier stays effective after idle stretches and the horizon
// window always brackets the traffic that is actually in flight. Events
// beyond the horizon are rejected by Accepts() and the caller routes them to
// the callback heap instead (overflow-to-heap).
//
// Tagged entries (burst mode): the port serialization/delivery chain needs no
// callback at all — the event is fully described by a non-zero uint64 tag
// (port pointer + event kind) that a registered dispatcher decodes. Tagged
// entries skip callback construction/move/invoke entirely, and because they
// are self-describing the owner can pop a whole same-tick run of them in one
// go (PopReadyTaggedRun) and hand it to the dispatcher as a burst. tag == 0
// means "plain callback entry".
//
// SoA split: buckets and the ready heap hold 32-byte POD keys
// (time, seq, tag, callback-slot); callbacks live in a side pool indexed by
// slot. Tagged entries (the vast majority at line rate) never touch the pool,
// and a callback entry moves its 64-byte InlineCallback exactly twice —
// pool-in at Schedule(), pool-out at PopReady() — instead of riding through
// every bucket move and heap sift.

#ifndef THEMIS_SRC_SIM_CALENDAR_QUEUE_H_
#define THEMIS_SRC_SIM_CALENDAR_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/sim/time.h"

namespace themis {

class CalendarQueue {
 public:
  using Callback = EventCallback;

  CalendarQueue() = default;
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  bool configured() const { return width_bits_ > 0; }
  TimePs bucket_width() const { return configured() ? (TimePs{1} << width_bits_) : 0; }
  int bucket_count() const { return static_cast<int>(buckets_.size()); }
  TimePs horizon() const { return horizon_; }

  // (Re)configures the bucket array. Only legal while the queue is empty;
  // returns false (and leaves the configuration unchanged) otherwise.
  // `width_bits`: bucket width is 2^width_bits ps. `bucket_count`: power of
  // two. Both are clamped by the caller's policy, not here.
  bool Configure(int width_bits, int bucket_count) {
    if (pending() != 0) {
      return false;
    }
    assert(width_bits > 0 && width_bits < 40);
    assert(bucket_count > 0 && (bucket_count & (bucket_count - 1)) == 0);
    width_bits_ = width_bits;
    mask_ = static_cast<uint64_t>(bucket_count - 1);
    buckets_.clear();
    buckets_.resize(static_cast<size_t>(bucket_count));
    occupancy_.assign(static_cast<size_t>((bucket_count + 63) / 64), 0);
    horizon_ = static_cast<TimePs>(bucket_count) << width_bits_;
    cal_time_ = 0;
    return true;
  }

  // True if an entry firing at `at` can be housed by this tier given the
  // current cursor. The caller routes rejected entries to the callback heap.
  bool Accepts(TimePs at) const {
    if (!configured()) {
      return false;
    }
    if (in_bucket_count_ == 0) {
      return true;  // Schedule() re-anchors the cursor around `at`
    }
    return at < cal_time_ + horizon_;  // below-cursor entries go to ready
  }

  // Inserts an entry firing at absolute time `at`, carrying the caller's
  // queue-wide sequence number. Pre: Accepts(at).
  void Schedule(TimePs at, uint64_t seq, Callback cb) {
    ScheduleEntry(Entry{at, seq, 0, AllocSlot(std::move(cb))});
  }

  // Tagged (callback-free) variant for the port event chain. `tag` must be
  // non-zero; the owner's dispatcher decodes it. Pre: Accepts(at).
  void ScheduleTagged(TimePs at, uint64_t seq, uint64_t tag) {
    assert(tag != 0);
    ScheduleEntry(Entry{at, seq, tag, kNoSlot});
  }

  // Moves every entry that could fire at or before `bound` (given what is
  // already in the ready heap) into the ready heap. Must be called before
  // ReadyTime()/ReadySeq()/PopReady(). Collecting a bucket may pull entries
  // later than `bound` into ready early — harmless, since ready orders by
  // (time, seq).
  void CollectDue(TimePs bound) {
    if (in_bucket_count_ == 0) {
      return;
    }
    for (;;) {
      TimePs target = bound;
      if (!ready_.empty() && ready_.front().time < target) {
        target = ready_.front().time;
      }
      if (in_bucket_count_ == 0 || cal_time_ > target) {
        return;  // everything still bucketed fires after `target`
      }
      const size_t cur = BucketIndex(cal_time_);
      if (IsOccupied(cur)) {
        CollectBucket(cur);
        cal_time_ += bucket_width();
        continue;
      }
      // Jump over empty buckets: to the next occupied bucket's window, but
      // never past the target's window (entries inserted later must still
      // find the cursor at or below their time).
      const int next = NextOccupiedBucket(static_cast<int>(cur));
      int dist = next - static_cast<int>(cur);
      if (dist <= 0) {
        dist += bucket_count();
      }
      const TimePs jump = cal_time_ + static_cast<TimePs>(dist) * bucket_width();
      const TimePs cap = target > kTimeInfinity - 2 * bucket_width()
                             ? jump
                             : AlignDown(target) + bucket_width();
      cal_time_ = std::min(jump, cap);
    }
  }

  bool HasReady() const { return !ready_.empty(); }

  // Pre: HasReady().
  TimePs ReadyTime() const { return ready_.front().time; }
  uint64_t ReadySeq() const { return ready_.front().seq; }
  bool ReadyIsTagged() const { return ready_.front().tag != 0; }

  // Pre: HasReady(). Tagged entries yield an empty callback.
  Callback PopReady(TimePs* time_out) {
    std::pop_heap(ready_.begin(), ready_.end(), After{});
    const Entry e = ready_.back();
    ready_.pop_back();
    *time_out = e.time;
    if (e.slot == kNoSlot) {
      return Callback{};
    }
    Callback cb = std::move(cb_pool_[e.slot]);
    free_slots_.push_back(e.slot);
    return cb;
  }

  // Drains the maximal run of ready *tagged* entries firing exactly at `t`
  // with seq strictly below `seq_bound` into `tags`/`seqs` (parallel arrays,
  // capacity `max_n`). Stops at the first plain-callback entry, tick change,
  // or bound crossing, so the run is exactly the events a scalar pop loop
  // would fire consecutively. Returns the run length.
  size_t PopReadyTaggedRun(TimePs t, uint64_t seq_bound, uint64_t* tags, uint64_t* seqs,
                           size_t max_n) {
    size_t n = 0;
    while (n < max_n && !ready_.empty()) {
      const Entry& front = ready_.front();
      if (front.time != t || front.seq >= seq_bound || front.tag == 0) {
        break;
      }
      std::pop_heap(ready_.begin(), ready_.end(), After{});
      tags[n] = ready_.back().tag;
      seqs[n] = ready_.back().seq;
      ready_.pop_back();
      ++n;
    }
    return n;
  }

  // Puts a popped-but-not-dispatched tagged entry back, keeping its original
  // (time, seq) so a later pop replays the exact scalar order. Used when
  // Stop() lands mid-burst.
  void RestoreReady(TimePs t, uint64_t seq, uint64_t tag) {
    PushReady(Entry{t, seq, tag, kNoSlot});
  }

  size_t pending() const { return in_bucket_count_ + ready_.size(); }

 private:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  // 32-byte POD key: this is what buckets store and the ready heap sifts.
  struct Entry {
    TimePs time;
    uint64_t seq;
    uint64_t tag;   // non-zero: dispatcher-decoded port event (no callback)
    uint32_t slot;  // cb_pool_ index, kNoSlot for tagged entries
  };

  uint32_t AllocSlot(Callback cb) {
    if (!free_slots_.empty()) {
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      cb_pool_[slot] = std::move(cb);
      return slot;
    }
    cb_pool_.push_back(std::move(cb));
    return static_cast<uint32_t>(cb_pool_.size() - 1);
  }

  void ScheduleEntry(Entry e) {
    if (in_bucket_count_ == 0) {
      // Nothing bucketed: re-anchor so the entry sits mid-horizon. Entries in
      // the ready heap are position-independent, so moving the cursor (even
      // backwards) is exact. Keeps the tier O(1) after idle stretches.
      cal_time_ = std::max<TimePs>(0, AlignDown(e.time) - (horizon_ >> 1));
    }
    if (e.time < cal_time_) {
      // Cursor already passed this window; the ready heap orders it exactly.
      PushReady(std::move(e));
      return;
    }
    assert(e.time - cal_time_ < horizon_ && "caller must check Accepts()");
    const size_t idx = BucketIndex(e.time);
    buckets_[idx].push_back(std::move(e));
    SetOccupied(idx, true);
    ++in_bucket_count_;
  }

  // Max-comparator for std::push_heap/pop_heap (min-heap by (time, seq)).
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  TimePs AlignDown(TimePs t) const { return t & ~(bucket_width() - 1); }

  size_t BucketIndex(TimePs t) const {
    return static_cast<size_t>((static_cast<uint64_t>(t) >> width_bits_) & mask_);
  }

  bool IsOccupied(size_t idx) const {
    return (occupancy_[idx >> 6] >> (idx & 63)) & 1;
  }

  void SetOccupied(size_t idx, bool occupied) {
    uint64_t& word = occupancy_[idx >> 6];
    const uint64_t bit = uint64_t{1} << (idx & 63);
    if (occupied) {
      word |= bit;
    } else {
      word &= ~bit;
    }
  }

  void PushReady(Entry e) {
    ready_.push_back(std::move(e));
    std::push_heap(ready_.begin(), ready_.end(), After{});
  }

  void CollectBucket(size_t idx) {
    std::vector<Entry>& bucket = buckets_[idx];
    in_bucket_count_ -= bucket.size();
    for (Entry& e : bucket) {
      PushReady(std::move(e));
    }
    bucket.clear();  // keeps capacity: no steady-state allocation
    SetOccupied(idx, false);
  }

  // First occupied bucket in circular order strictly after `from`; `from`
  // itself if it wraps all the way around. Pre: in_bucket_count_ > 0.
  int NextOccupiedBucket(int from) const {
    const int n = bucket_count();
    for (int probe = from + 1; probe < n; ++probe) {
      // Word-at-a-time scan via the occupancy bitmap.
      const uint64_t word = occupancy_[static_cast<size_t>(probe) >> 6] &
                            (~uint64_t{0} << (probe & 63));
      if (word != 0) {
        return (probe & ~63) + __builtin_ctzll(word);
      }
      probe = (probe | 63);  // advance to the next word boundary
    }
    for (int probe = 0; probe <= from; ++probe) {
      const uint64_t word = occupancy_[static_cast<size_t>(probe) >> 6] &
                            (~uint64_t{0} << (probe & 63));
      if (word != 0) {
        const int hit = (probe & ~63) + __builtin_ctzll(word);
        if (hit <= from) {
          return hit;
        }
      }
      probe = (probe | 63);
    }
    assert(false && "NextOccupiedBucket called on an empty calendar");
    return from;
  }

  int width_bits_ = 0;           // 0 = unconfigured, everything overflows
  uint64_t mask_ = 0;            // bucket_count - 1
  TimePs horizon_ = 0;           // bucket_count * bucket_width
  TimePs cal_time_ = 0;          // start of the cursor's bucket window
  size_t in_bucket_count_ = 0;   // entries currently in buckets
  std::vector<std::vector<Entry>> buckets_;
  std::vector<uint64_t> occupancy_;  // one bit per bucket, for slot skipping
  std::vector<Entry> ready_;         // min-heap by (time, seq)
  std::vector<Callback> cb_pool_;    // callback side pool, indexed by Entry::slot
  std::vector<uint32_t> free_slots_;  // recycled cb_pool_ indices
};

}  // namespace themis

#endif  // THEMIS_SRC_SIM_CALENDAR_QUEUE_H_
