// FlowDriver: runs an open-loop flow workload on an Experiment and measures
// flow-completion-time slowdown.
//
// Each generated flow becomes its own QP pair (sender on src, receiver on
// dst) with its own ECMP entropy, created at the flow's arrival time — the
// open-loop contract: arrivals never wait for the fabric. Completion is
// observed through SenderQp's flow-completion hook (last byte acked), and
// the FCT clock starts at the flow's *scheduled* arrival, so host-side
// queueing counts against the fabric, as in open-loop methodology.
//
// Slowdown = FCT / ideal-FCT, where ideal-FCT is the same flow's completion
// time on an idle fabric at full line rate: store-and-forward delivery of
// every packet along the shortest path plus the final ACK's return. A
// slowdown of 1.0 is therefore the best any scheme can do.

#ifndef THEMIS_SRC_WORKLOAD_FLOW_DRIVER_H_
#define THEMIS_SRC_WORKLOAD_FLOW_DRIVER_H_

#include <vector>

#include "src/core/experiment.h"
#include "src/stats/time_series.h"
#include "src/traffic/trace_model.h"
#include "src/workload/flow_generator.h"

namespace themis {

struct FlowRecord {
  FlowSpec spec;
  TimePs ideal_fct = 0;
  TimePs completion = -1;  // absolute sim time; -1 = not finished
  bool started = false;

  bool completed() const { return completion >= 0; }
  TimePs Fct() const { return completion - spec.start_time; }
  double Slowdown() const {
    return ideal_fct > 0 ? static_cast<double>(Fct()) / static_cast<double>(ideal_fct) : 0.0;
  }
};

struct FctWorkloadResult {
  // Foreground (measured) flows; background ballast is counted separately.
  size_t flows_total = 0;
  size_t flows_completed = 0;
  // Background flows of a full-fidelity hybrid reference run (0/0 normally).
  size_t background_total = 0;
  size_t background_completed = 0;
  PercentileSummary slowdown;      // over completed foreground flows
  double goodput_gbps = 0.0;       // completed foreground payload / makespan
  TimePs makespan = 0;             // last foreground completion
  std::vector<FlowRecord> records;
  TimeSeries slowdown_series;      // (completion time, slowdown) per fg flow

  // Fabric-side aggregates snapshotted after the run.
  double rtx_ratio = 0.0;
  uint64_t drops = 0;
  uint64_t nacks = 0;
  uint64_t timeouts = 0;
  uint64_t pfc_pauses = 0;
  ThemisDStats themis;  // all-zero unless the scheme is kThemis
  // Telemetry run summary (zero unless FctTelemetryOptions::enabled).
  uint64_t trace_events = 0;
  uint64_t trace_overwritten = 0;
  // Whether FctTelemetryOptions::trace_path / counters_path was written;
  // false when the path is empty or the export failed.
  bool trace_written = false;
  bool counters_written = false;

  // Chaos campaign (empty unless ExperimentConfig::scenario is set): one
  // record per injected fault occurrence, with recovery-time endpoints,
  // drop counts, and victim-flow tallies (see RecoveryTracker).
  std::vector<FaultRecord> scenario_faults;

  // Slowdowns of completed *foreground* flows, record order.
  std::vector<double> Slowdowns() const;
};

class FlowDriver {
 public:
  // The driver registers flow starts on `exp`'s simulator; `exp` must
  // outlive it. Flow QPs use ids from a high base so they can coexist with
  // ConnectionManager-created collectives.
  FlowDriver(Experiment* exp, std::vector<FlowSpec> flows);

  // Schedules every flow arrival. Call exactly once, before running the
  // simulator; when the last flow completes the driver Stop()s it.
  void Post();

  size_t flows_completed() const { return completed_; }
  bool AllDone() const { return completed_ == records_.size(); }

  // Idle-fabric line-rate completion time for `spec` (see header comment).
  TimePs IdealFct(const FlowSpec& spec) const;

  // Builds the result snapshot (percentiles, goodput, fabric aggregates).
  FctWorkloadResult Collect() const;

 private:
  void StartFlow(size_t i);
  void OnFlowComplete(size_t i);

  static constexpr uint32_t kFlowIdBase = 0x40000000;

  Experiment* exp_;
  std::vector<FlowRecord> records_;
  size_t completed_ = 0;
  bool posted_ = false;
};

// Optional observability for RunFctWorkload: when `enabled`, a Telemetry
// bundle is attached to the experiment for the whole run (trace ring +
// counter sampling), and non-empty paths are written after the run
// (Chrome-trace JSON / counters CSV).
struct FctTelemetryOptions {
  bool enabled = false;
  TelemetryConfig config;
  std::string trace_path;     // empty = keep in memory only
  std::string counters_path;  // empty = keep in memory only
};

// Extended harness knobs for hybrid-fidelity comparisons (all default-off:
// RunFctWorkloadEx with a default FctRunOptions == RunFctWorkload).
struct FctRunOptions {
  TimePs deadline = kTimeInfinity;
  FctTelemetryOptions telemetry;
  // Full-fidelity reference: also generate this background workload and run
  // it as real packet-level flows tagged background (excluded from the
  // measured statistics). Give it a seed different from the foreground's.
  bool background_flows = false;
  WorkloadSpec background;
  // Calibration: sample every fabric port's (occupancy, utilization) at this
  // cadence into *calibration after the run — feed it to a TraceTrafficModel
  // for the trace-calibrated hybrid variant. 0 / null = off.
  TimePs record_period = 0;
  PortPressureTrace* calibration = nullptr;
  // Hybrid replay: attach a TraceTrafficModel over this recorded pressure
  // trace (epoch period = the trace's own cadence). Overrides any engine the
  // ExperimentConfig would build. Must outlive the call.
  const PortPressureTrace* replay = nullptr;
};

// One-call harness: builds the Experiment, generates the flow list, runs to
// completion (or `deadline`), and returns the collected result.
FctWorkloadResult RunFctWorkload(const ExperimentConfig& exp_config, const WorkloadSpec& workload,
                                 const FlowSizeCdf& cdf, TimePs deadline = kTimeInfinity,
                                 const FctTelemetryOptions& telemetry = {});

// The hybrid-aware harness: RunFctWorkload plus background packet flows,
// occupancy-trace calibration, and trace-model replay per `options`.
FctWorkloadResult RunFctWorkloadEx(const ExperimentConfig& exp_config,
                                   const WorkloadSpec& workload, const FlowSizeCdf& cdf,
                                   const FctRunOptions& options);

}  // namespace themis

#endif  // THEMIS_SRC_WORKLOAD_FLOW_DRIVER_H_
