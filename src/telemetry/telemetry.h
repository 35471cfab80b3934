// The telemetry bundle: one object that owns the trace ring, the counter
// registry, and the periodic sampler, and knows how to export all of it.
//
// Usage:
//   Simulator sim;
//   Telemetry telemetry(&sim);            // attaches the sink to the sim
//   Experiment exp(...);
//   exp.AttachTelemetry(&telemetry);      // registers counters, names nodes
//   telemetry.StartSampling();
//   ... run ...
//   telemetry.WriteTrace("out.trace.json");
//   telemetry.WriteCounters("out.counters.csv");
//
// Construction attaches the TraceSink to the Simulator; destruction detaches
// it, so the bundle's lifetime brackets the traced window. Everything here
// is observation only — attaching a Telemetry never changes packet-level
// behaviour or determinism hashes (the sampler's timer events interleave
// with model events but only read state).

#ifndef THEMIS_SRC_TELEMETRY_TELEMETRY_H_
#define THEMIS_SRC_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/telemetry/counters.h"
#include "src/telemetry/export.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/trace.h"

namespace themis {

struct TelemetryConfig {
  size_t trace_capacity = 1 << 18;             // ring slots (40 B each)
  uint32_t category_mask = kTraceAllCategories;
  TimePs sample_period = 10 * kMicrosecond;    // counter snapshot cadence
};

class Telemetry {
 public:
  explicit Telemetry(Simulator* sim, TelemetryConfig config = {})
      : sim_(sim),
        config_(config),
        trace_(config.trace_capacity),
        sampler_(sim, &counters_) {
    trace_.set_category_mask(config.category_mask);
    sim_->set_trace_sink(&trace_);
  }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  ~Telemetry() {
    if (sim_->trace_sink() == &trace_) {
      sim_->set_trace_sink(nullptr);
    }
  }

  TraceSink& trace() { return trace_; }
  const TraceSink& trace() const { return trace_; }
  CounterRegistry& counters() { return counters_; }
  const CounterRegistry& counters() const { return counters_; }
  CounterSampler& sampler() { return sampler_; }
  const CounterSampler& sampler() const { return sampler_; }
  Simulator* sim() const { return sim_; }

  void StartSampling() { sampler_.Start(config_.sample_period); }
  void StopSampling() { sampler_.Stop(); }

  // Display name for a node id in the Chrome-trace process list.
  void SetNodeName(uint16_t node, std::string name) {
    node_names_[node] = std::move(name);
  }

  NodeNamer MakeNodeNamer() const {
    return [this](uint16_t node) -> std::string {
      auto it = node_names_.find(node);
      return it != node_names_.end() ? it->second : std::string();
    };
  }

  bool WriteTrace(const std::string& path) const {
    return WriteChromeTraceFile(trace_, path, MakeNodeNamer());
  }

  bool WriteCounters(const std::string& path) const {
    return WriteCountersCsvFile(sampler_, path);
  }

 private:
  Simulator* sim_;
  TelemetryConfig config_;
  TraceSink trace_;
  CounterRegistry counters_;
  CounterSampler sampler_;
  std::unordered_map<uint16_t, std::string> node_names_;
};

}  // namespace themis

#endif  // THEMIS_SRC_TELEMETRY_TELEMETRY_H_
