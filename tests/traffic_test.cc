// Tests for the src/traffic hybrid-fidelity subsystem: fluid + trace
// background models, the epoch engine, the Port exogenous-pressure hook
// (effective depth, slot stealing, model-induced ECN), and the hybrid
// validation contract (hybrid slowdown CDFs track a full packet-level run;
// results independent of sweep threading).

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/core/sweep_runner.h"
#include "src/lb/policies.h"
#include "src/net/network.h"
#include "src/stats/time_series.h"
#include "src/telemetry/telemetry.h"
#include "src/traffic/background_engine.h"
#include "src/traffic/fluid_model.h"
#include "src/traffic/trace_model.h"
#include "src/workload/flow_driver.h"

namespace themis {
namespace {

// --------------------------------------------------------------------------
// FluidTrafficModel: pure function of (config, port, epoch)

std::vector<PortPressure> FluidSeries(const FluidModelConfig& config, size_t port,
                                      uint64_t epochs) {
  FluidTrafficModel model(config);
  model.Bind(port + 1, 5 * kMicrosecond);
  std::vector<PortPressure> out;
  for (uint64_t e = 0; e < epochs; ++e) {
    out.push_back(model.Update(port, e));
  }
  return out;
}

TEST(FluidModelTest, SeriesIsDeterministicPerSeed) {
  FluidModelConfig config;
  config.load = 0.5;
  config.seed = 7;
  const auto a = FluidSeries(config, 3, 64);
  const auto b = FluidSeries(config, 3, 64);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].occupancy_bytes, b[i].occupancy_bytes) << "epoch " << i;
    EXPECT_DOUBLE_EQ(a[i].utilization, b[i].utilization) << "epoch " << i;
  }

  config.seed = 8;
  const auto c = FluidSeries(config, 3, 64);
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a[i].occupancy_bytes != c[i].occupancy_bytes;
  }
  EXPECT_TRUE(any_diff) << "different seeds must decorrelate the modulation";
}

TEST(FluidModelTest, PortsUseIndependentStreams) {
  FluidModelConfig config;
  config.load = 0.5;
  FluidTrafficModel model(config);
  model.Bind(2, 5 * kMicrosecond);
  bool any_diff = false;
  for (uint64_t e = 0; e < 32; ++e) {
    const PortPressure p0 = model.Update(0, e);
    const PortPressure p1 = model.Update(1, e);
    any_diff = any_diff || p0.occupancy_bytes != p1.occupancy_bytes;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FluidModelTest, ZeroLoadMeansZeroPressure) {
  FluidModelConfig config;
  config.load = 0.0;
  const auto series = FluidSeries(config, 0, 16);
  for (const PortPressure& p : series) {
    EXPECT_EQ(p.occupancy_bytes, 0);
    EXPECT_DOUBLE_EQ(p.utilization, 0.0);
  }
}

TEST(FluidModelTest, OccupancyGrowsWithLoadAndStaysClamped) {
  FluidModelConfig config;
  config.burstiness = 0.0;  // frozen at the stationary point
  auto mm1_occupancy = [&config](double load) {
    config.load = load;
    return FluidSeries(config, 0, 1)[0];
  };
  const PortPressure lo = mm1_occupancy(0.3);
  const PortPressure hi = mm1_occupancy(0.8);
  EXPECT_LT(lo.occupancy_bytes, hi.occupancy_bytes);
  // M/M/1 waiting queue at the stationary point: rho^2/(1-rho) packets.
  const double lq = 0.8 * 0.8 / (1.0 - 0.8);
  EXPECT_NEAR(static_cast<double>(hi.occupancy_bytes),
              lq * static_cast<double>(config.mean_packet_bytes), 1.0);
  // Over-unity offered load clamps at kMaxUtilization, never diverges.
  const PortPressure clamped = mm1_occupancy(1.7);
  EXPECT_DOUBLE_EQ(clamped.utilization, TrafficModel::kMaxUtilization);
  EXPECT_GT(clamped.occupancy_bytes, 0);
}

TEST(FluidModelTest, PerPortOverridesBeatTheGlobalLoad) {
  FluidModelConfig config;
  config.load = 0.5;
  config.per_port_load = {0.1, -1.0};  // port 0 overridden, port 1 falls back
  FluidTrafficModel model(config);
  model.Bind(3, 5 * kMicrosecond);
  EXPECT_DOUBLE_EQ(model.PortLoad(0), 0.1);
  EXPECT_DOUBLE_EQ(model.PortLoad(1), 0.5);  // negative override = unset
  EXPECT_DOUBLE_EQ(model.PortLoad(2), 0.5);  // beyond the vector
}

// --------------------------------------------------------------------------
// TraceTrafficModel: replay semantics

PortPressureTrace TwoPortTrace(TimePs period) {
  PortPressureTrace trace;
  trace.epoch_period = period;
  trace.series = {
      {{1000, 0.1}, {2000, 0.2}, {3000, 0.3}},
      {{500, 0.5}, {600, 0.6}, {700, 0.7}},
  };
  return trace;
}

TEST(TraceModelTest, ReplaysRecordedSeriesAndHoldsLastSample) {
  TraceTrafficModel model(TwoPortTrace(5 * kMicrosecond));
  model.Bind(2, 5 * kMicrosecond);
  EXPECT_EQ(model.Update(0, 0).occupancy_bytes, 1000);
  EXPECT_EQ(model.Update(0, 1).occupancy_bytes, 2000);
  EXPECT_EQ(model.Update(1, 2).occupancy_bytes, 700);
  // Beyond the recording: the background regime persists (hold-last).
  EXPECT_EQ(model.Update(0, 99).occupancy_bytes, 3000);
  EXPECT_DOUBLE_EQ(model.Update(1, 99).utilization, 0.7);
}

TEST(TraceModelTest, PortsBeyondRecordingReadZero) {
  TraceTrafficModel model(TwoPortTrace(5 * kMicrosecond));
  model.Bind(4, 5 * kMicrosecond);
  EXPECT_EQ(model.Update(3, 1).occupancy_bytes, 0);
  EXPECT_DOUBLE_EQ(model.Update(3, 1).utilization, 0.0);
}

TEST(TraceModelTest, RescalesEpochsWhenEnginePeriodDiffers) {
  // Recording at 10 us replayed on a 5 us engine: two engine epochs per
  // recorded sample.
  TraceTrafficModel model(TwoPortTrace(10 * kMicrosecond));
  model.Bind(2, 5 * kMicrosecond);
  EXPECT_EQ(model.Update(0, 0).occupancy_bytes, 1000);
  EXPECT_EQ(model.Update(0, 1).occupancy_bytes, 1000);
  EXPECT_EQ(model.Update(0, 2).occupancy_bytes, 2000);
  EXPECT_EQ(model.Update(0, 3).occupancy_bytes, 2000);
  EXPECT_EQ(model.Update(0, 4).occupancy_bytes, 3000);
}

// --------------------------------------------------------------------------
// Port hook: effective depth, slot stealing, model-induced ECN

class SinkNode : public Node {
 public:
  SinkNode(Simulator* sim, int id, std::string name = "sink")
      : Node(sim, id, NodeKind::kSwitch, std::move(name)) {}
  void ReceivePacket(const Packet&, int) override { arrivals.push_back(sim()->now()); }
  std::vector<TimePs> arrivals;
};

struct PortHarness {
  Simulator sim;
  Network net{&sim};
  SinkNode* a = nullptr;
  SinkNode* b = nullptr;
  Port* port = nullptr;  // a -> b

  PortHarness() {
    a = net.MakeNode<SinkNode>("a");
    b = net.MakeNode<SinkNode>("b");
    DuplexLink link =
        net.Connect(a, b, LinkSpec{Rate::Gbps(100), 1 * kMicrosecond, 1 << 20});
    port = a->port(link.a.port);
  }
};

TEST(PortPressureTest, EffectiveDepthIsRealPlusExogenous) {
  PortHarness h;
  EXPECT_EQ(h.port->EffectiveQueueBytes(), h.port->queued_data_bytes());
  h.port->SetBackgroundPressure(48'000, 0.4);
  EXPECT_EQ(h.port->exogenous_bytes(), 48'000);
  EXPECT_EQ(h.port->EffectiveQueueBytes(), h.port->queued_data_bytes() + 48'000);
  h.port->SetBackgroundPressure(0, 0.0);
  EXPECT_EQ(h.port->EffectiveQueueBytes(), h.port->queued_data_bytes());
  // Negative occupancy clamps to zero instead of un-queueing real bytes.
  h.port->SetBackgroundPressure(-5, 0.0);
  EXPECT_EQ(h.port->exogenous_bytes(), 0);
}

TEST(PortPressureTest, SlotStealingStretchesDataSerializationExactly) {
  // util = 0.5 -> steal factor util/(1-util) = 1.0 -> serialization doubles.
  const Packet pkt = MakeDataPacket(1, 0, 1, 0, 1436, 0);
  TimePs base_arrival = 0;
  {
    PortHarness h;
    h.port->Send(pkt);
    h.sim.RunUntil(kSecond);
    ASSERT_EQ(h.b->arrivals.size(), 1u);
    base_arrival = h.b->arrivals[0];
  }
  {
    PortHarness h;
    h.port->SetBackgroundPressure(0, 0.5);
    h.port->Send(pkt);
    h.sim.RunUntil(kSecond);
    ASSERT_EQ(h.b->arrivals.size(), 1u);
    const TimePs serialization = h.port->rate().SerializationTime(pkt.wire_bytes);
    EXPECT_EQ(h.b->arrivals[0], base_arrival + serialization);
  }
}

TEST(PortPressureTest, SlotStealingSparesControlPackets) {
  const Packet ack = MakeControlPacket(PacketType::kAck, 1, 0, 1, 0, 0);
  TimePs base_arrival = 0;
  {
    PortHarness h;
    h.port->Send(ack);
    h.sim.RunUntil(kSecond);
    ASSERT_EQ(h.b->arrivals.size(), 1u);
    base_arrival = h.b->arrivals[0];
  }
  {
    PortHarness h;
    h.port->SetBackgroundPressure(0, 0.5);
    h.port->Send(ack);
    h.sim.RunUntil(kSecond);
    ASSERT_EQ(h.b->arrivals.size(), 1u);
    EXPECT_EQ(h.b->arrivals[0], base_arrival);  // control class is not stolen
  }
}

TEST(PortPressureTest, ExogenousOccupancyForcesEcnAndIsAttributed) {
  PortHarness h;
  h.port->ecn() = EcnProfile{.kmin_bytes = 10'000, .kmax_bytes = 20'000, .pmax = 1.0};
  // Real queue empty, exogenous depth above kmax: deterministic mark that
  // exists only because of the model.
  h.port->SetBackgroundPressure(30'000, 0.0);
  h.port->Send(MakeDataPacket(1, 0, 1, 0, 1436, 0));
  EXPECT_EQ(h.port->stats().ecn_marks, 1u);
  EXPECT_EQ(h.port->stats().ecn_marks_exogenous, 1u);
  // With no exogenous bytes and an empty queue, no mark at all.
  h.port->SetBackgroundPressure(0, 0.0);
  h.port->Send(MakeDataPacket(1, 0, 1, 1, 1436, 0));
  EXPECT_EQ(h.port->stats().ecn_marks, 1u);
}

// Satellite: adaptive routing reads the same EffectiveQueueBytes() accessor
// as everything else, so exogenous pressure steers it exactly like real
// queued bytes do — one code path for both modes.
TEST(AdaptiveRoutingEffectiveDepthTest, ExogenousPressureSteersSelection) {
  Simulator sim;
  Network net{&sim};
  SinkNode* sw = net.MakeNode<SinkNode>("sw");
  SinkNode* peer = net.MakeNode<SinkNode>("peer");
  std::vector<Port*> candidates;
  for (int i = 0; i < 4; ++i) {
    DuplexLink link = net.Connect(sw, peer, LinkSpec{});
    candidates.push_back(sw->port(link.a.port));
  }
  LbContext ctx{.switch_salt = 0x1234, .hash_shift = 0, .now = 0, .rng = &sim.rng()};
  const std::span<Port* const> span{candidates.data(), candidates.size()};

  // Model pressure on ports 0-2; port 3 stays clean.
  for (int p = 0; p < 3; ++p) {
    candidates[static_cast<size_t>(p)]->SetBackgroundPressure(50'000, 0.0);
  }
  AdaptiveRoutingLb lb;
  Packet pkt = MakeDataPacket(2, 1, 2, 0, 1000, 0);
  for (int trial = 0; trial < 32; ++trial) {
    EXPECT_EQ(lb.Select(pkt, span, ctx), 3u);
  }

  // Real bytes on port 3 above the others' exogenous depth flips the choice
  // back: both kinds of depth flow through the one accessor.
  for (int i = 0; i < 40; ++i) {
    candidates[3]->Send(MakeDataPacket(1, 0, 1, 0, 1436, 0));
  }
  ASSERT_GT(candidates[3]->EffectiveQueueBytes(), 50'000);
  std::set<size_t> used;
  for (int trial = 0; trial < 64; ++trial) {
    used.insert(lb.Select(pkt, span, ctx));
  }
  EXPECT_EQ(used.count(3u), 0u);
}

// --------------------------------------------------------------------------
// BackgroundTrafficEngine: epoch cadence, stats, stop semantics

TEST(BackgroundEngineTest, AppliesEpochZeroOnStartAndTicksEveryEpoch) {
  PortHarness h;
  auto model = std::make_unique<FluidTrafficModel>([] {
    FluidModelConfig c;
    c.load = 0.6;
    c.burstiness = 0.0;
    return c;
  }());
  BackgroundTrafficEngine engine(&h.sim, std::move(model), {h.port}, 5 * kMicrosecond);
  EXPECT_EQ(h.port->exogenous_bytes(), 0);
  engine.Start();
  EXPECT_TRUE(engine.running());
  EXPECT_GT(h.port->exogenous_bytes(), 0) << "epoch 0 applies synchronously";
  EXPECT_EQ(engine.stats().epochs, 1u);

  h.sim.RunUntil(21 * kMicrosecond);  // timer fires at 5, 10, 15, 20 us
  EXPECT_EQ(engine.stats().epochs, 5u);
  EXPECT_EQ(engine.stats().port_updates, 5u);
  EXPECT_GT(engine.stats().exo_bytes_total, 0u);
  EXPECT_GE(engine.stats().exo_bytes_peak, static_cast<uint64_t>(h.port->exogenous_bytes()));
  EXPECT_EQ(engine.TotalExogenousBytes(), h.port->exogenous_bytes());

  engine.Stop();
  EXPECT_FALSE(engine.running());
  EXPECT_EQ(h.port->exogenous_bytes(), 0) << "Stop() clears pressure";
  h.sim.RunUntil(100 * kMicrosecond);
  EXPECT_EQ(engine.stats().epochs, 5u) << "no further epochs after Stop()";
}

TEST(BackgroundEngineTest, SwitchEgressPortEnumerationIsDeterministic) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  Experiment exp(config);
  const std::vector<Port*> ports = exp.FabricPorts();
  // 2 ToRs x (2 host + 2 uplink) + 2 spines x 2 downlinks = 12 egress ports.
  ASSERT_EQ(ports.size(), 12u);
  EXPECT_EQ(ports, exp.FabricPorts()) << "enumeration must be stable";
  for (Port* p : ports) {
    EXPECT_TRUE(p->connected());
  }
}

// --------------------------------------------------------------------------
// OccupancyRecorder -> TraceTrafficModel calibration loop

TEST(OccupancyRecorderTest, HarvestsPerPortSeriesFromALiveRun) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  config.link_rate = Rate::Gbps(100);

  const FlowSizeCdf cdf = FlowSizeCdf::FromPoints("small", {{2'000, 0.5}, {32'000, 1.0}});
  WorkloadSpec workload;
  workload.load = 0.5;
  workload.window = 100 * kMicrosecond;
  workload.max_flows = 60;

  FctRunOptions options;
  options.record_period = 5 * kMicrosecond;
  PortPressureTrace trace;
  options.calibration = &trace;
  const FctWorkloadResult result = RunFctWorkloadEx(config, workload, cdf, options);
  ASSERT_EQ(result.flows_completed, result.flows_total);

  ASSERT_EQ(trace.num_ports(), 12u);
  EXPECT_EQ(trace.epoch_period, 5 * kMicrosecond);
  ASSERT_GT(trace.num_epochs(), 4u);
  double max_util = 0.0;
  for (const auto& row : trace.series) {
    for (const PortPressure& p : row) {
      EXPECT_GE(p.occupancy_bytes, 0);
      EXPECT_GE(p.utilization, 0.0);
      EXPECT_LE(p.utilization, 1.0);
      max_util = std::max(max_util, p.utilization);
    }
  }
  EXPECT_GT(max_util, 0.0) << "a loaded run must show nonzero utilization";
}

// --------------------------------------------------------------------------
// Hybrid validation: fluid/trace runs track the full packet-level reference

struct HybridConfig {
  ExperimentConfig exp;
  WorkloadSpec foreground;
  FlowSizeCdf cdf = FlowSizeCdf::FromPoints("small", {{2'000, 0.5}, {32'000, 1.0}});

  HybridConfig() {
    exp.num_tors = 2;
    exp.num_spines = 2;
    exp.hosts_per_tor = 2;
    exp.link_rate = Rate::Gbps(100);
    exp.scheme = Scheme::kRandomSpray;
    foreground.load = 0.3;
    foreground.window = 200 * kMicrosecond;
    foreground.seed = 1;
  }
};

TEST(HybridFidelityTest, FluidAndTraceRunsTrackFullPacketLevelReference) {
  HybridConfig h;

  // Full-fidelity reference: background as real packet flows.
  FctRunOptions full_options;
  full_options.background_flows = true;
  full_options.background.load = 0.3;
  full_options.background.seed = 99;
  full_options.background.window = h.foreground.window;
  const FctWorkloadResult full =
      RunFctWorkloadEx(h.exp, h.foreground, h.cdf, full_options);
  ASSERT_GT(full.flows_total, 20u);
  ASSERT_EQ(full.flows_completed, full.flows_total);
  ASSERT_GT(full.background_total, 0u);

  // Calibration: record what the background does to each port *on its own* —
  // recording during the fg+bg run would fold the foreground's utilization
  // into the trace and double-count it at replay time.
  PortPressureTrace trace;
  {
    FctRunOptions calibrate;
    calibrate.record_period = 5 * kMicrosecond;
    calibrate.calibration = &trace;
    WorkloadSpec bg_only = h.foreground;
    bg_only.load = 0.3;
    bg_only.seed = 99;
    RunFctWorkloadEx(h.exp, bg_only, h.cdf, calibrate);
  }
  ASSERT_GT(trace.num_epochs(), 0u);

  // Hybrid A: analytical fluid background at the same offered load.
  ExperimentConfig fluid_config = h.exp;
  fluid_config.traffic_model = TrafficModelKind::kFluid;
  fluid_config.background_load = 0.3;
  const FctWorkloadResult fluid = RunFctWorkload(fluid_config, h.foreground, h.cdf);
  ASSERT_EQ(fluid.flows_completed, fluid.flows_total);
  EXPECT_EQ(fluid.background_total, 0u);

  // Hybrid B: replay of the reference run's recorded pressure.
  FctRunOptions replay_options;
  replay_options.replay = &trace;
  const FctWorkloadResult traced =
      RunFctWorkloadEx(h.exp, h.foreground, h.cdf, replay_options);
  ASSERT_EQ(traced.flows_completed, traced.flows_total);

  // Identical foreground spec everywhere: flow-by-flow comparable.
  ASSERT_EQ(fluid.flows_total, full.flows_total);
  ASSERT_EQ(traced.flows_total, full.flows_total);

  // Both hybrids must (a) actually slow the foreground down relative to an
  // idle fabric and (b) stay distribution-close to the packet-level truth.
  const std::vector<double> ref = full.Slowdowns();
  for (const FctWorkloadResult* hybrid : {&fluid, &traced}) {
    const std::vector<double> got = hybrid->Slowdowns();
    EXPECT_GT(hybrid->slowdown.p99, 1.0);
    EXPECT_LE(KsStatistic(ref, got), 0.45);
    EXPECT_GT(hybrid->slowdown.p50, 0.5 * full.slowdown.p50);
    EXPECT_LT(hybrid->slowdown.p50, 2.0 * full.slowdown.p50);
    EXPECT_GT(hybrid->slowdown.p99, 0.33 * full.slowdown.p99);
    EXPECT_LT(hybrid->slowdown.p99, 3.0 * full.slowdown.p99);
  }
}

TEST(HybridFidelityTest, HybridSweepIndependentOfThreadCount) {
  struct Point {
    double load;
    uint64_t seed;
  };
  const std::vector<Point> points = {{0.2, 1}, {0.5, 1}, {0.5, 2}};
  auto run_point = [](const Point& p) {
    HybridConfig h;
    h.exp.traffic_model = TrafficModelKind::kFluid;
    h.exp.background_load = p.load;
    h.exp.seed = p.seed;
    h.foreground.window = 100 * kMicrosecond;
    h.foreground.max_flows = 40;
    const FctWorkloadResult r = RunFctWorkload(h.exp, h.foreground, h.cdf);
    std::ostringstream out;
    out << r.makespan << ":" << r.flows_completed;
    for (const FlowRecord& rec : r.records) {
      out << "," << rec.completion;
    }
    return out.str();
  };
  const auto serial = SweepRunner(1).Map(points, run_point);
  const auto parallel = SweepRunner(4).Map(points, run_point);
  ASSERT_EQ(serial.size(), points.size());
  EXPECT_EQ(serial, parallel);
  EXPECT_GT(serial[0].size(), 0u);
}

// --------------------------------------------------------------------------
// Experiment wiring + telemetry surface

TEST(ExperimentTrafficTest, ConfigBuildsAndStartsFluidEngine) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  config.traffic_model = TrafficModelKind::kFluid;
  config.background_load = 0.5;
  Experiment exp(config);
  ASSERT_NE(exp.traffic(), nullptr);
  EXPECT_TRUE(exp.traffic()->running());
  EXPECT_EQ(exp.traffic()->num_ports(), 12u);
  EXPECT_STREQ(exp.traffic()->model()->name(), "fluid");
  EXPECT_GT(exp.traffic()->TotalExogenousBytes(), 0);
}

TEST(ExperimentTrafficTest, ModelOffMeansNoEngine) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  Experiment exp(config);
  EXPECT_EQ(exp.traffic(), nullptr);
  for (Port* p : exp.FabricPorts()) {
    EXPECT_EQ(p->exogenous_bytes(), 0);
  }
}

TEST(ExperimentTrafficTest, TrafficCountersRegisteredThroughTelemetry) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  config.traffic_model = TrafficModelKind::kFluid;
  config.background_load = 0.5;
  Experiment exp(config);
  Telemetry telemetry(&exp.sim());
  exp.AttachTelemetry(&telemetry);
  const CounterRegistry& registry = telemetry.counters();
  EXPECT_GE(registry.Find("traffic.epochs"), 0);
  EXPECT_GE(registry.Find("traffic.port_updates"), 0);
  EXPECT_GE(registry.Find("traffic.exo_bytes_total"), 0);
  EXPECT_GE(registry.Find("traffic.exo_bytes"), 0);
}

}  // namespace
}  // namespace themis
