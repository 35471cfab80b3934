// A calendar queue for the line-rate port events.
//
// Most events are port events: a transmission's tx-done and delivery, and a
// NIC's transmit hold, each scheduled at most one serialization quantum plus
// one propagation delay ahead of now, firing at near-uniform spacing (one MTU
// at line rate). A calendar queue whose bucket width is tuned to that quantum
// makes insert O(1): an append to the target bucket. Buckets are not small,
// though: every active egress port fires into the same window, so a collected
// bucket holds tens to thousands of entries (measured sizes:
// Network::AutoSizeScheduler).
//
// Sorted drain: when the cursor collects a bucket, the whole bucket is sorted
// once into a run ordered by (time, seq), and the run is consumed by index. A
// bucket holds the entries of one aligned window of 2^width_bits ps, appended
// in scheduling order and so in ascending seq; a stable sort on the time
// offset within the window is therefore exact (time, seq) order: two LSD
// radix passes of ceil(width_bits / 2) bits each. A small (time, seq) heap,
// the low heap, takes what the run cannot: entries scheduled below the cursor
// (their window was already collected), entries RestoreReady() puts back, and
// the rare bucket collected while the run is still live (a re-anchor moved
// the cursor back below it). The calendar's earliest entry is the earlier of
// the run's next entry and the low heap's top.
//
// Determinism contract (same as the callback heap): every entry carries the
// sequence number handed out by the owning EventQueue, the calendar yields
// its entries in (time, seq) order, and the queue merges them with the
// callback heap. The observable firing order is bit-identical to a single
// global heap.
//
// Entries are non-cancellable (port events never cancel) and carry no
// callback: each is a uint64 tag (port pointer + event kind) that the
// owner's registered dispatcher decodes. That is what keeps the tier this
// simple — no nodes, no generations, no tombstones, no callback storage —
// and what lets the owner pop a whole same-tick run in one go
// (PopReadyTaggedRun) and hand it to the dispatcher as a burst.
//
// Cursor policy: the cursor only advances while collecting. When no entry is
// bucketed, the next insert re-anchors the cursor half a horizon behind the
// event, so the tier stays effective after idle stretches and the horizon
// window always brackets the traffic that is actually in flight. Events
// beyond the horizon are rejected by Accepts() and the caller routes them to
// the callback heap instead (overflow-to-heap).
//
// Storage: buckets, the run and the small heap hold 32-byte POD keys
// (time, seq, tag). A bucket is a list of 32-entry (1 KiB) chunks drawn from
// one pool shared by every bucket; collecting a bucket returns its chunks to
// a LIFO free list, so retained memory follows the peak number of bucketed
// entries rather than each bucket's own peak.

#ifndef THEMIS_SRC_SIM_CALENDAR_QUEUE_H_
#define THEMIS_SRC_SIM_CALENDAR_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace themis {

class CalendarQueue {
 public:
  CalendarQueue() = default;
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  bool configured() const { return width_bits_ > 0; }
  TimePs bucket_width() const { return configured() ? (TimePs{1} << width_bits_) : 0; }
  int bucket_count() const { return static_cast<int>(buckets_.size()); }
  TimePs horizon() const { return horizon_; }

  // (Re)configures the bucket array. Only legal while the queue is empty;
  // returns false (and leaves the configuration unchanged) otherwise.
  // `width_bits`: bucket width is 2^width_bits ps, at most 2^24 so a radix
  // digit stays within 12 bits. `bucket_count`: power of two. Both are
  // clamped by the caller's policy, not here.
  bool Configure(int width_bits, int bucket_count) {
    if (pending() != 0) {
      return false;
    }
    assert(width_bits > 0 && width_bits <= 24);
    assert(bucket_count > 0 && (bucket_count & (bucket_count - 1)) == 0);
    width_bits_ = width_bits;
    digit_bits_ = (width_bits + 1) / 2;
    mask_ = static_cast<uint64_t>(bucket_count - 1);
    buckets_.assign(static_cast<size_t>(bucket_count), Bucket{});
    occupancy_.assign(static_cast<size_t>((bucket_count + 63) / 64), 0);
    histogram_.assign(size_t{2} << digit_bits_, 0);
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
      return true;  // ScheduleTagged() re-anchors the cursor around `at`
    }
    return at < cal_time_ + horizon_;  // below-cursor entries go to the low heap
  }

  // Inserts `tag`, firing at absolute time `at` and carrying the caller's
  // queue-wide sequence number. Pre: Accepts(at).
  void ScheduleTagged(TimePs at, uint64_t seq, uint64_t tag) {
    const Entry e{at, seq, tag};
    if (in_bucket_count_ == 0) {
      // Nothing bucketed: re-anchor so the entry sits mid-horizon. Entries in
      // the run and the low heap are position-independent, so moving the
      // cursor (even backwards) is exact. Keeps the tier O(1) after idle
      // stretches.
      cal_time_ = std::max<TimePs>(0, AlignDown(at) - (horizon_ >> 1));
    }
    if (at < cal_time_) {
      // Cursor already passed this window; the low heap orders it exactly.
      PushLow(e);
      return;
    }
    assert(at - cal_time_ < horizon_ && "caller must check Accepts()");
    const size_t idx = BucketIndex(at);
    Bucket& bucket = buckets_[idx];
    const uint32_t offset = bucket.size % kChunkEntries;
    if (offset == 0) {
      Chunk* chunk = AllocChunk();
      (bucket.size == 0 ? bucket.head : bucket.tail->next) = chunk;
      bucket.tail = chunk;
    }
    bucket.tail->entries[offset] = e;
    ++bucket.size;
    SetOccupied(idx, true);
    ++in_bucket_count_;
  }

  // Collects buckets until every entry that could fire at or before `bound`
  // (given what is already ready) is in the run or the low heap. Must be
  // called before ReadyTime()/ReadySeq()/PopReadyTaggedRun(). Collecting a
  // bucket may make entries later than `bound` ready early — harmless, since
  // the run and the low heap both order by (time, seq).
  void CollectDue(TimePs bound) {
    if (in_bucket_count_ == 0) {
      return;
    }
    for (;;) {
      const TimePs target = HasReady() ? std::min(bound, Front().time) : bound;
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

  bool HasReady() const { return run_pos_ < run_end_ || !low_.empty(); }

  // Pre: HasReady().
  TimePs ReadyTime() const { return Front().time; }
  uint64_t ReadySeq() const { return Front().seq; }

  // Drains the maximal run of ready entries firing exactly at `t` with seq
  // strictly below `seq_bound` into `tags`/`seqs` (parallel arrays, capacity
  // `max_n`). Stops at a tick change or a bound crossing, so the run is
  // exactly the events a scalar pop loop would fire consecutively. Returns
  // the run length.
  size_t PopReadyTaggedRun(TimePs t, uint64_t seq_bound, uint64_t* tags, uint64_t* seqs,
                           size_t max_n) {
    size_t n = 0;
    while (n < max_n && HasReady()) {
      const Entry& front = Front();
      if (front.time != t || front.seq >= seq_bound) {
        break;
      }
      tags[n] = front.tag;
      seqs[n] = front.seq;
      PopFront();
      ++n;
    }
    return n;
  }

  // Puts a popped-but-not-dispatched entry back, keeping its original
  // (time, seq) so a later pop replays the exact scalar order. Used when
  // Stop() lands mid-burst.
  void RestoreReady(TimePs t, uint64_t seq, uint64_t tag) {
    PushLow(Entry{t, seq, tag});
  }

  size_t pending() const { return in_bucket_count_ + (run_end_ - run_pos_) + low_.size(); }

 private:
  static constexpr uint32_t kChunkEntries = 32;

  // POD key: what buckets, the run and the low heap hold. Padded and aligned
  // to 32 bytes so that no key straddles two cache lines. With malloc's
  // 16-byte alignment, half the keys of a badly placed chunk or buffer did,
  // and bench_sim_hotpath's later fig1 runs read ~12 % slower.
  struct alignas(32) Entry {
    TimePs time;
    uint64_t seq;
    uint64_t tag;  // dispatcher-decoded port event
  };

  // A pool chunk. `next` links a bucket's chunks, or the free list.
  struct Chunk {
    Entry entries[kChunkEntries];
    Chunk* next;
  };

  // Entries in append order: chunk `head` first, `tail` takes the next one.
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    uint32_t size = 0;
  };

  // Max-comparator for std::push_heap/pop_heap (min-heap by (time, seq)).
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  // Pre: HasReady(). True if the run's next entry precedes the low heap's top.
  bool RunFirst() const {
    return low_.empty() || (run_pos_ < run_end_ && After{}(low_.front(), run_[run_pos_]));
  }

  // Pre: HasReady().
  const Entry& Front() const { return RunFirst() ? run_[run_pos_] : low_.front(); }

  // Pre: HasReady().
  Entry PopFront() {
    if (RunFirst()) {
      return run_[run_pos_++];
    }
    std::pop_heap(low_.begin(), low_.end(), After{});
    const Entry e = low_.back();
    low_.pop_back();
    return e;
  }

  void PushLow(const Entry& e) {
    low_.push_back(e);
    std::push_heap(low_.begin(), low_.end(), After{});
  }

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

  Chunk* AllocChunk() {
    if (free_chunks_ == nullptr) {
      chunks_.push_back(std::make_unique<Chunk>());
      return chunks_.back().get();
    }
    Chunk* chunk = free_chunks_;
    free_chunks_ = chunk->next;
    return chunk;
  }

  // Calls `f` on each entry of `bucket` in append order.
  template <typename F>
  static void ForEachEntry(const Bucket& bucket, F&& f) {
    uint32_t left = bucket.size;
    for (const Chunk* chunk = bucket.head; left > 0; chunk = chunk->next) {
      const uint32_t n = std::min(left, kChunkEntries);
      for (uint32_t i = 0; i < n; ++i) {
        f(chunk->entries[i]);
      }
      left -= n;
    }
  }

  void CollectBucket(size_t idx) {
    Bucket& bucket = buckets_[idx];
    in_bucket_count_ -= bucket.size;
    if (run_pos_ == run_end_) {
      SortIntoRun(bucket);
    } else {
      // A re-anchor moved the cursor back below the live run: merge through
      // the low heap instead.
      ForEachEntry(bucket, [this](const Entry& e) { PushLow(e); });
    }
    bucket.tail->next = free_chunks_;
    free_chunks_ = bucket.head;
    bucket = Bucket{};
    SetOccupied(idx, false);
  }

  // Replaces the (consumed) run with `bucket` in (time, seq) order: a stable
  // sort on the time offset within the bucket's window, since the bucket is
  // already in seq order.
  void SortIntoRun(const Bucket& bucket) {
    const uint32_t n = bucket.size;
    if (run_.size() < n) {
      run_.resize(n);
      pass_buffer_.resize(n);
    }
    run_pos_ = 0;
    run_end_ = n;
    // Two LSD passes: bucket -> buffer by the low digit of the offset, then
    // buffer -> run by the high digit.
    const uint64_t offset_mask = (uint64_t{1} << width_bits_) - 1;
    const uint64_t digit_mask = (uint64_t{1} << digit_bits_) - 1;
    auto low = [&](const Entry& e) { return static_cast<uint64_t>(e.time) & digit_mask; };
    auto high = [&](const Entry& e) {
      return (static_cast<uint64_t>(e.time) & offset_mask) >> digit_bits_;
    };
    uint32_t* low_count = histogram_.data();
    uint32_t* high_count = low_count + (size_t{1} << digit_bits_);
    std::fill(histogram_.begin(), histogram_.end(), 0);
    ForEachEntry(bucket, [&](const Entry& e) {
      ++low_count[low(e)];
      ++high_count[high(e)];
    });
    uint32_t low_sum = 0;
    uint32_t high_sum = 0;
    for (size_t d = 0; d <= digit_mask; ++d) {  // counts -> first output index
      low_sum += std::exchange(low_count[d], low_sum);
      high_sum += std::exchange(high_count[d], high_sum);
    }
    Entry* buffer = pass_buffer_.data();
    Entry* run = run_.data();
    ForEachEntry(bucket, [&](const Entry& e) { buffer[low_count[low(e)]++] = e; });
    for (uint32_t i = 0; i < n; ++i) {
      run[high_count[high(buffer[i])]++] = buffer[i];
    }
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
  int digit_bits_ = 0;           // radix digit: ceil(width_bits_ / 2)
  uint64_t mask_ = 0;            // bucket_count - 1
  TimePs horizon_ = 0;           // bucket_count * bucket_width
  TimePs cal_time_ = 0;          // start of the cursor's bucket window
  size_t in_bucket_count_ = 0;   // entries currently in buckets
  std::vector<Bucket> buckets_;
  std::vector<uint64_t> occupancy_;  // one bit per bucket, for slot skipping
  std::vector<std::unique_ptr<Chunk>> chunks_;  // owns every chunk ever allocated
  Chunk* free_chunks_ = nullptr;     // LIFO, linked through Chunk::next
  std::vector<Entry> run_;           // [run_pos_, run_end_): sorted, not yet popped
  size_t run_pos_ = 0;
  size_t run_end_ = 0;
  std::vector<Entry> pass_buffer_;   // first radix pass output, as large as run_
  std::vector<uint32_t> histogram_;  // low then high digit counts
  std::vector<Entry> low_;           // the low heap: min-heap by (time, seq)
};

}  // namespace themis

#endif  // THEMIS_SRC_SIM_CALENDAR_QUEUE_H_
