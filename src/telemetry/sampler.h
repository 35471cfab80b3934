// Periodic snapshotting of a CounterRegistry, one row per tick.
//
// A CounterSampler rides a PeriodicTimer: every `period` of simulation time
// it reads every registered counter/gauge, in registry order, into one
// exactly sized row of doubles. A cell costs 8 bytes; the tick's time is
// stored once, in sample_times(), not per cell. Sampling only *reads* model
// state — it schedules its own timer events but never perturbs packets, the
// RNG, or component state, so determinism hashes over model state are
// unchanged by attaching one.
//
// Entries may be registered mid-run (per-flow counters appear when the flow
// table provisions the flow). A row is as wide as the registry was at its
// tick, so a late entry has no cell in the rows from before it existed; the
// CSV exporter (export.h) zero-fills those.

#ifndef THEMIS_SRC_TELEMETRY_SAMPLER_H_
#define THEMIS_SRC_TELEMETRY_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/telemetry/counters.h"

namespace themis {

class CounterSampler {
 public:
  CounterSampler(Simulator* sim, CounterRegistry* registry)
      : sim_(sim), registry_(registry), timer_(sim, [this] { SampleNow(); }) {}

  CounterSampler(const CounterSampler&) = delete;
  CounterSampler& operator=(const CounterSampler&) = delete;

  void Start(TimePs period) { timer_.Start(period); }
  void Stop() { timer_.Cancel(); }
  bool running() const { return timer_.running(); }

  // Takes one snapshot at sim->now(). Called by the timer; also callable
  // directly (e.g. once after the run for a final row).
  void SampleNow() {
    sample_times_.push_back(sim_->now());
    std::vector<double>& row = rows_.emplace_back(registry_->size());
    for (size_t i = 0; i < row.size(); ++i) {
      row[i] = registry_->Read(i);
    }
  }

  const std::vector<TimePs>& sample_times() const { return sample_times_; }
  // rows()[k] holds the values read at sample_times()[k], in registry order;
  // its width is the registry size at that tick.
  const std::vector<std::vector<double>>& rows() const { return rows_; }
  const CounterRegistry& registry() const { return *registry_; }

 private:
  Simulator* sim_;
  CounterRegistry* registry_;
  PeriodicTimer timer_;
  std::vector<TimePs> sample_times_;
  std::vector<std::vector<double>> rows_;  // parallel to sample_times_
};

}  // namespace themis

#endif  // THEMIS_SRC_TELEMETRY_SAMPLER_H_
