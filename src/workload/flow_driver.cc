#include "src/workload/flow_driver.h"

#include <cassert>
#include <cstdio>
#include <memory>

namespace themis {

std::vector<double> FctWorkloadResult::Slowdowns() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const FlowRecord& r : records) {
    if (r.completed() && !r.spec.background) {
      out.push_back(r.Slowdown());
    }
  }
  return out;
}

FlowDriver::FlowDriver(Experiment* exp, std::vector<FlowSpec> flows) : exp_(exp) {
  records_.reserve(flows.size());
  for (FlowSpec& spec : flows) {
    FlowRecord record;
    record.spec = spec;
    record.ideal_fct = IdealFct(spec);
    records_.push_back(record);
  }
}

void FlowDriver::Post() {
  assert(!posted_ && "FlowDriver::Post called twice");
  posted_ = true;
  Simulator& sim = exp_->sim();
  for (size_t i = 0; i < records_.size(); ++i) {
    sim.ScheduleAt(records_[i].spec.start_time, [this, i] { StartFlow(i); });
  }
}

void FlowDriver::StartFlow(size_t i) {
  FlowRecord& record = records_[i];
  const FlowSpec& spec = record.spec;
  const uint32_t flow_id = kFlowIdBase + spec.index;

  QpConfig config = exp_->qp_config();
  // Per-flow ECMP entropy, same ephemeral-range hash ConnectionManager uses:
  // under flow-level ECMP each flow must be able to land on its own path.
  config.udp_sport = static_cast<uint16_t>(0xC000u | ((flow_id * 2654435761u) & 0x3FFFu));

  RnicHost* src = exp_->host(spec.src);
  RnicHost* dst = exp_->host(spec.dst);
  SenderQp* tx = src->CreateSenderQp(flow_id, dst->id(), config);
  dst->CreateReceiverQp(flow_id, src->id(), config);

  record.started = true;
  tx->set_flow_completion_hook([this, i](SenderQp&) { OnFlowComplete(i); });
  tx->PostMessage(spec.bytes, nullptr);
}

void FlowDriver::OnFlowComplete(size_t i) {
  FlowRecord& record = records_[i];
  assert(!record.completed() && "flow completed twice");
  record.completion = exp_->sim().now();
  ++completed_;
  if (completed_ == records_.size()) {
    exp_->sim().Stop();  // workload drained; no need to run the clock dry
  }
}

TimePs FlowDriver::IdealFct(const FlowSpec& spec) const {
  const ExperimentConfig& config = exp_->config();
  const Rate rate = config.link_rate;
  // Shortest-path hop count from the experiment's fabric (2 intra-rack,
  // 4 across a leaf-spine or within a fat-tree pod, 6 across pods).
  const int hops = exp_->PathHops(spec.src, spec.dst);

  const uint64_t payload_per_packet = exp_->qp_config().PayloadPerPacket();
  const uint64_t packets = (spec.bytes + payload_per_packet - 1) / payload_per_packet;
  const uint64_t wire_bytes = spec.bytes + packets * kHeaderBytes;
  const uint64_t last_payload = spec.bytes - (packets - 1) * payload_per_packet;
  const uint64_t last_wire = last_payload + kHeaderBytes;

  // Store-and-forward pipeline at line rate: the source serializes the whole
  // flow; each further hop adds one serialization of the trailing packet;
  // propagation accrues per hop. The measured FCT ends when the final ACK
  // reaches the sender, so the ideal includes the ACK's return trip too.
  TimePs ideal = rate.SerializationTime(static_cast<int64_t>(wire_bytes));
  ideal += (hops - 1) * rate.SerializationTime(static_cast<int64_t>(last_wire));
  ideal += hops * config.link_delay;                                   // data propagation
  ideal += hops * config.link_delay;                                   // ACK propagation
  ideal += hops * rate.SerializationTime(kControlPacketBytes);         // ACK serialization
  return ideal;
}

FctWorkloadResult FlowDriver::Collect() const {
  FctWorkloadResult result;
  result.records = records_;

  // Measured statistics cover foreground flows only; background ballast (a
  // full-fidelity hybrid reference) is counted but never enters slowdown,
  // goodput, or makespan. Without background flows this is the plain path.
  uint64_t delivered_bytes = 0;
  for (const FlowRecord& r : records_) {
    if (r.spec.background) {
      ++result.background_total;
      result.background_completed += r.completed() ? 1 : 0;
      continue;
    }
    ++result.flows_total;
    if (!r.completed()) {
      continue;
    }
    ++result.flows_completed;
    delivered_bytes += r.spec.bytes;
    result.makespan = std::max(result.makespan, r.completion);
    result.slowdown_series.Record(r.completion, r.Slowdown());
  }
  result.slowdown = PercentileSummary::Of(result.Slowdowns());
  if (result.makespan > 0) {
    result.goodput_gbps =
        static_cast<double>(delivered_bytes) * 8.0 / ToSeconds(result.makespan) / 1e9;
  }

  result.rtx_ratio = exp_->AggregateRetransmissionRatio();
  result.drops = exp_->TotalPortDrops();
  result.nacks = exp_->TotalNacksReceived();
  result.timeouts = exp_->TotalTimeouts();
  result.pfc_pauses = exp_->TotalPfcPauses();
  if (exp_->themis() != nullptr) {
    result.themis = exp_->themis()->AggregateDStats();
  }
  return result;
}

FctWorkloadResult RunFctWorkload(const ExperimentConfig& exp_config,
                                 const WorkloadSpec& workload, const FlowSizeCdf& cdf,
                                 TimePs deadline, const FctTelemetryOptions& telemetry) {
  FctRunOptions options;
  options.deadline = deadline;
  options.telemetry = telemetry;
  return RunFctWorkloadEx(exp_config, workload, cdf, options);
}

FctWorkloadResult RunFctWorkloadEx(const ExperimentConfig& exp_config,
                                   const WorkloadSpec& workload, const FlowSizeCdf& cdf,
                                   const FctRunOptions& options) {
  const FctTelemetryOptions& telemetry = options.telemetry;
  Experiment exp(exp_config);
  if (options.replay != nullptr) {
    // Trace-calibrated hybrid: replay the recorded pressure series at its
    // own cadence (replacing any config-built engine).
    exp.AttachTrafficModel(std::make_unique<TraceTrafficModel>(*options.replay),
                           options.replay->epoch_period);
  }
  std::unique_ptr<Telemetry> bundle;
  if (telemetry.enabled) {
    bundle = std::make_unique<Telemetry>(&exp.sim(), telemetry.config);
    exp.AttachTelemetry(bundle.get());
    bundle->StartSampling();
  }
  std::vector<FlowSpec> flows =
      GenerateFlows(workload, cdf, exp.host_count(), exp.edge_rate());
  if (options.background_flows) {
    flows = MergeBackgroundFlows(
        std::move(flows),
        GenerateFlows(options.background, cdf, exp.host_count(), exp.edge_rate()));
  }
  // Calibration recorder: observation-only (reads port state, never touches
  // the RNG), so the reference run's packet behaviour is unperturbed.
  std::unique_ptr<OccupancyRecorder> recorder;
  if (options.record_period > 0 && options.calibration != nullptr) {
    recorder = std::make_unique<OccupancyRecorder>(&exp.sim(), exp.FabricPorts(),
                                                   options.record_period);
    recorder->Start();
  }
  FlowDriver driver(&exp, std::move(flows));
  driver.Post();
  exp.sim().RunUntil(options.deadline);
  if (exp.scenario() != nullptr) {
    exp.scenario()->Finalize();
  }
  FctWorkloadResult result = driver.Collect();
  if (exp.scenario() != nullptr) {
    result.scenario_faults = exp.scenario()->tracker().records();
  }
  if (recorder != nullptr) {
    recorder->Stop();
    *options.calibration = recorder->Harvest();
  }
  if (bundle != nullptr) {
    bundle->StopSampling();
    bundle->sampler().SampleNow();  // closing row at end-of-run state
    result.trace_events = bundle->trace().recorded();
    result.trace_overwritten = bundle->trace().overwritten();
    if (!telemetry.trace_path.empty()) {
      result.trace_written = bundle->WriteTrace(telemetry.trace_path);
      if (!result.trace_written) {
        std::fprintf(stderr, "RunFctWorkload: could not write %s\n",
                     telemetry.trace_path.c_str());
      }
    }
    if (!telemetry.counters_path.empty()) {
      result.counters_written = bundle->WriteCounters(telemetry.counters_path);
      if (!result.counters_written) {
        std::fprintf(stderr, "RunFctWorkload: could not write %s\n",
                     telemetry.counters_path.c_str());
      }
    }
  }
  return result;
}

}  // namespace themis
