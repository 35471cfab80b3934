// Event-engine hot-path microbenchmark: the current engine (line-rate
// calendar + indexed callback heap) against a replica of the seed engine.
//
// Workloads:
//  1. Synthetic churn — 256 "flows", each packet event re-arms its flow's
//     RTO-style timer (and every 7th cancels a neighbour's), then schedules
//     the next packet 0–2 us out. This is the Simulator's timer access
//     pattern distilled: tiny captures, constant timer arm/cancel churn, a
//     queue depth of a few hundred entries, all on the callback heap.
//  2. A real Fig.-1-scale collective (2x4x8 hosts, RandomSpray + NIC-SR +
//     DCQCN), measuring end-to-end events/sec through the full model stack.
//
// "legacy" below is a faithful replica of the seed engine (std::function
// events in a single binary heap; Timer via generation counting, so every
// cancel/re-arm leaves a no-op event to pop), compiled into this binary so
// both engines run in one process on the same workload. The churn workload
// runs on both and prints the ratio; the Fig.-1 run uses the real engine
// (the models only speak the current Simulator API) and is compared against
// the seed numbers recorded in EXPERIMENTS.md.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/experiment.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace themis {
namespace legacy {

// --- Seed engine replica -----------------------------------------------------

class EventQueue {
 public:
  using Callback = std::function<void()>;

  void ScheduleAt(TimePs at, Callback cb) {
    heap_.push_back(Entry{at, next_seq_++, std::move(cb)});
    SiftUp(heap_.size() - 1);
  }

  bool empty() const { return heap_.empty(); }
  TimePs NextTime() const { return heap_.front().time; }

  Callback Pop(TimePs* time_out) {
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

 private:
  struct Entry {
    TimePs time;
    uint64_t seq;
    Callback callback;

    bool Before(const Entry& other) const {
      return time < other.time || (time == other.time && seq < other.seq);
    }
  };

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
  uint64_t next_seq_ = 0;
};

class Simulator {
 public:
  TimePs now() const { return now_; }

  void Schedule(TimePs delay, EventQueue::Callback cb) {
    queue_.ScheduleAt(now_ + delay, std::move(cb));
  }

  uint64_t Run() {
    stopped_ = false;
    uint64_t executed = 0;
    while (!queue_.empty() && !stopped_) {
      TimePs t = 0;
      EventQueue::Callback cb = queue_.Pop(&t);
      now_ = t;
      cb();
      ++executed;
    }
    events_executed_ += executed;
    return executed;
  }

  void Stop() { stopped_ = true; }
  uint64_t events_executed() const { return events_executed_; }

 private:
  TimePs now_ = 0;
  bool stopped_ = false;
  uint64_t events_executed_ = 0;
  EventQueue queue_;
};

// Seed Timer: cancel/re-arm via generation counting. Superseded events stay
// in the heap and pop as no-ops — the cost this refactor removes.
class Timer {
 public:
  Timer(Simulator* sim, std::function<void()> cb) : sim_(sim), callback_(std::move(cb)) {}

  void Arm(TimePs delay) {
    const uint64_t generation = ++generation_;
    armed_ = true;
    sim_->Schedule(delay, [this, generation] {
      if (generation != generation_ || !armed_) {
        return;
      }
      armed_ = false;
      callback_();
    });
  }

  void Cancel() {
    ++generation_;
    armed_ = false;
  }

 private:
  Simulator* sim_;
  std::function<void()> callback_;
  uint64_t generation_ = 0;
  bool armed_ = false;
};

}  // namespace legacy

namespace {

// --- Synthetic churn workload, templated over the engine ---------------------

struct ChurnStats {
  uint64_t packets = 0;
  uint64_t executed = 0;
  double wall_seconds = 0.0;
};

template <typename SimT, typename TimerT>
ChurnStats RunChurn(int num_flows, uint64_t budget) {
  struct Flow {
    uint64_t fires = 0;
  };

  SimT sim;
  Rng rng(7);
  std::vector<Flow> flows(static_cast<size_t>(num_flows));
  std::vector<std::unique_ptr<TimerT>> timers;
  timers.reserve(flows.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    timers.push_back(std::make_unique<TimerT>(&sim, [&flows, i] { ++flows[i].fires; }));
  }

  uint64_t sent = 0;
  std::function<void(size_t)> packet_event = [&](size_t i) {
    if (++sent >= budget) {
      sim.Stop();
      return;
    }
    // RTO-style churn: every "packet" re-arms the flow's timer; it rarely
    // fires. Every 7th packet cancels a neighbour's timer.
    timers[i]->Arm(100 * kMicrosecond);
    if (sent % 7 == 0) {
      timers[(i + 1) % timers.size()]->Cancel();
    }
    const TimePs delay = 1 + static_cast<TimePs>(rng.Below(2 * kMicrosecond));
    sim.Schedule(delay, [&packet_event, i] { packet_event(i); });
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < flows.size(); ++i) {
    sim.Schedule(static_cast<TimePs>(i), [&packet_event, i] { packet_event(i); });
  }
  sim.Run();
  const auto t1 = std::chrono::steady_clock::now();

  ChurnStats stats;
  stats.packets = sent;
  stats.executed = sim.events_executed();
  stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return stats;
}

template <typename SimT, typename TimerT>
double BestChurnRate(const char* label, int num_flows, uint64_t budget, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const ChurnStats stats = RunChurn<SimT, TimerT>(num_flows, budget);
    const double rate = stats.packets / stats.wall_seconds / 1e6;
    best = rate > best ? rate : best;
    std::printf("  %-12s rep=%d packets=%llu executed=%llu wall=%.3fs -> %.2f M packet-events/s\n",
                label, r, static_cast<unsigned long long>(stats.packets),
                static_cast<unsigned long long>(stats.executed), stats.wall_seconds, rate);
  }
  return best;
}

// --- Real Fig.-1-scale run ---------------------------------------------------

// Per-tier schedule counts and burst shape of the last rep, for the CI
// artifact and the burst-on/off ablation.
struct TierBreakdown {
  uint64_t heap = 0;
  uint64_t wheel = 0;
  uint64_t calendar = 0;
  double best_events_per_sec = 0.0;
  uint64_t events_executed = 0;  // determinism anchor: identical across reps & modes
  SimBurstStats burst;
};

TierBreakdown RunFig1Scale(int reps, bool burst_enabled) {
  const char* label = burst_enabled ? "fig1/burst-on " : "fig1/burst-off";
  TierBreakdown breakdown;
  for (int r = 0; r < reps; ++r) {
    ExperimentConfig config;
    config.num_tors = 2;
    config.num_spines = 4;
    config.hosts_per_tor = 4;
    config.link_rate = Rate::Gbps(100);
    config.scheme = Scheme::kRandomSpray;
    config.transport = TransportKind::kNicSr;
    config.cc = CcKind::kDcqcn;
    config.dcqcn_ti = 10 * kMicrosecond;
    config.dcqcn_td = 200 * kMicrosecond;
    config.fabric_delay_skew = 200 * kNanosecond;
    Experiment exp(config);
    exp.sim().set_burst_enabled(burst_enabled);
    const std::vector<std::vector<int>> rings = {{0, 4, 1, 5}, {2, 6, 3, 7}};
    const auto t0 = std::chrono::steady_clock::now();
    auto result =
        exp.RunCollective(CollectiveKind::kNeighborRing, rings, 8ull << 20, 60 * kSecond);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double rate = exp.sim().events_executed() / secs / 1e6;
    std::printf("  %s rep=%d done=%d sim_ms=%.3f executed=%llu wall=%.3fs -> "
                "%.2f M events/s\n",
                label, r, result.all_done ? 1 : 0, ToMilliseconds(result.tail_completion),
                static_cast<unsigned long long>(exp.sim().events_executed()), secs, rate);
    const EventQueue& q = exp.sim().queue();
    const double best = rate > breakdown.best_events_per_sec ? rate
                                                             : breakdown.best_events_per_sec;
    breakdown = TierBreakdown{q.heap_scheduled(),     q.wheel_scheduled(),
                              q.calendar_scheduled(), best,
                              exp.sim().events_executed(), exp.sim().burst_stats()};
  }
  std::printf("  per-tier scheduled: heap=%llu wheel=%llu calendar=%llu "
              "(calendar share %.1f%%)\n",
              static_cast<unsigned long long>(breakdown.heap),
              static_cast<unsigned long long>(breakdown.wheel),
              static_cast<unsigned long long>(breakdown.calendar),
              100.0 * static_cast<double>(breakdown.calendar) /
                  static_cast<double>(breakdown.heap + breakdown.wheel + breakdown.calendar));
  if (burst_enabled && breakdown.burst.bursts > 0) {
    const SimBurstStats& b = breakdown.burst;
    std::printf("  bursts=%llu burst_events=%llu (%.1f%% of executed, mean len %.2f)\n",
                static_cast<unsigned long long>(b.bursts),
                static_cast<unsigned long long>(b.burst_events),
                100.0 * static_cast<double>(b.burst_events) /
                    static_cast<double>(breakdown.events_executed),
                static_cast<double>(b.burst_events) / static_cast<double>(b.bursts));
    std::printf("  burst length histogram:");
    for (size_t k = 0; k < SimBurstStats::kLenBuckets; ++k) {
      std::printf(" le%llu=%llu",
                  static_cast<unsigned long long>(SimBurstStats::BucketCeiling(k)),
                  static_cast<unsigned long long>(b.len_hist[k]));
    }
    std::printf("\n");
  }
  return breakdown;
}

// Churn rates (best of kReps, M packet-events/s) of both engines.
struct ChurnRates {
  double legacy = 0.0;
  double engine = 0.0;
};

// Writes the per-tier breakdown, the burst-on/off ablation and the churn
// rates as CSV when THEMIS_HOTPATH_CSV names a path; CI uploads it as an
// artifact and gates on the burst and churn ratios.
void MaybeWriteTierCsv(const TierBreakdown& on, const TierBreakdown& off,
                       const ChurnRates& churn) {
  const char* path = std::getenv("THEMIS_HOTPATH_CSV");
  if (path == nullptr || path[0] == '\0') {
    return;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "tier,events_scheduled\nheap,%llu\nwheel,%llu\ncalendar,%llu\n",
               static_cast<unsigned long long>(on.heap),
               static_cast<unsigned long long>(on.wheel),
               static_cast<unsigned long long>(on.calendar));
  std::fprintf(f, "fig1_best_events_per_sec,%.0f\n", on.best_events_per_sec * 1e6);
  std::fprintf(f, "fig1_burst_off_events_per_sec,%.0f\n", off.best_events_per_sec * 1e6);
  std::fprintf(f, "fig1_burst_speedup,%.3f\n",
               on.best_events_per_sec / off.best_events_per_sec);
  std::fprintf(f, "fig1_events_executed_on,%llu\n",
               static_cast<unsigned long long>(on.events_executed));
  std::fprintf(f, "fig1_events_executed_off,%llu\n",
               static_cast<unsigned long long>(off.events_executed));
  std::fprintf(f, "churn_legacy_packet_events_per_sec,%.0f\n", churn.legacy * 1e6);
  std::fprintf(f, "churn_packet_events_per_sec,%.0f\n", churn.engine * 1e6);
  std::fprintf(f, "churn_speedup,%.3f\n", churn.engine / churn.legacy);
  std::fclose(f);
}

// Per-burst-length breakdown (burst-on run) as its own CSV when
// THEMIS_BURST_CSV names a path.
void MaybeWriteBurstCsv(const TierBreakdown& on) {
  const char* path = std::getenv("THEMIS_BURST_CSV");
  if (path == nullptr || path[0] == '\0') {
    return;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "len_ceiling,bursts\n");
  for (size_t k = 0; k < SimBurstStats::kLenBuckets; ++k) {
    std::fprintf(f, "%llu,%llu\n",
                 static_cast<unsigned long long>(SimBurstStats::BucketCeiling(k)),
                 static_cast<unsigned long long>(on.burst.len_hist[k]));
  }
  std::fprintf(f, "total_bursts,%llu\ntotal_burst_events,%llu\n",
               static_cast<unsigned long long>(on.burst.bursts),
               static_cast<unsigned long long>(on.burst.burst_events));
  std::fclose(f);
}

}  // namespace
}  // namespace themis

int main() {
  using namespace themis;
  constexpr int kFlows = 256;
  constexpr uint64_t kBudget = 4'000'000;
  constexpr int kReps = 3;

  std::printf("churn workload (%d flows, %llu packet events):\n", kFlows,
              static_cast<unsigned long long>(kBudget));
  ChurnRates churn;
  churn.legacy =
      BestChurnRate<legacy::Simulator, legacy::Timer>("legacy", kFlows, kBudget, kReps);
  churn.engine = BestChurnRate<Simulator, Timer>("two-tier", kFlows, kBudget, kReps);
  std::printf("churn speedup (two-tier / legacy, best of %d): %.2fx\n\n", kReps,
              churn.engine / churn.legacy);

  std::printf("Fig.1-scale collective (2 tors x 4 spines x 4 hosts, RandomSpray/NIC-SR/DCQCN):\n");
  const TierBreakdown off = RunFig1Scale(kReps, /*burst_enabled=*/false);
  const TierBreakdown on = RunFig1Scale(kReps, /*burst_enabled=*/true);
  std::printf("fig1 burst ablation (best of %d): off=%.2f on=%.2f M events/s -> %.2fx",
              kReps, off.best_events_per_sec, on.best_events_per_sec,
              on.best_events_per_sec / off.best_events_per_sec);
  std::printf(off.events_executed == on.events_executed
                  ? " (identical %llu events executed)\n"
                  : " (EVENT COUNT DIVERGED: off=%llu on=%llu)\n",
              static_cast<unsigned long long>(off.events_executed),
              static_cast<unsigned long long>(on.events_executed));
  MaybeWriteTierCsv(on, off, churn);
  MaybeWriteBurstCsv(on);
  return 0;
}
