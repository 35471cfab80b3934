#include "src/core/experiment.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/traffic/fluid_model.h"

namespace themis {

bool ValidateConfig(const ExperimentConfig& config, std::string* error) {
  struct Check {
    bool failed;
    const char* field;
    const char* reason;
  };
  const Check checks[] = {
      {config.fabric == FabricKind::kFatTree &&
           (config.fat_tree_k < 2 || config.fat_tree_k % 2 != 0),
       "fat_tree_k", "must be even and >= 2 on a fat-tree"},
      {!(std::isfinite(config.themis_queue_expansion) && config.themis_queue_expansion > 0.0),
       "themis_queue_expansion", "must be finite and > 0"},
      {config.traffic_epoch <= 0, "traffic_epoch", "must be a positive time"},
      {config.dcqcn_ti <= 0, "dcqcn_ti", "must be a positive time"},
      {config.retransmit_timeout <= 0, "retransmit_timeout", "must be a positive time"},
  };
  for (const Check& check : checks) {
    if (check.failed) {
      if (error != nullptr) {
        *error = std::string(check.field) + ": " + check.reason;
      }
      return false;
    }
  }
  return ValidateScenario(config.scenario, error);
}

Experiment::Experiment(const ExperimentConfig& config) : config_(config), sim_(config.seed) {
  network_ = std::make_unique<Network>(&sim_);

  // Fat-tree: normalize the leaf-spine triple from the arity so every
  // ordinal-based helper (HostTorIndex, load units, group builders) keeps
  // working. A k-ary fat-tree has k^2/2 edge switches with k/2 hosts each,
  // and k/2 uplinks per edge switch (num_spines doubles as "ToR uplink
  // count" below: port-queue split and Themis path count).
  if (config_.fabric == FabricKind::kFatTree) {
    assert(config.fat_tree_k >= 2 && config.fat_tree_k % 2 == 0);
    const int half = config.fat_tree_k / 2;
    config_.hosts_per_tor = half;
    config_.num_tors = config.fat_tree_k * half;
    config_.num_spines = half;
  }

  // Per-port queue: explicit override, or the switch's shared buffer split
  // across its ports (a ToR has hosts_per_tor + num_spines ports).
  int64_t port_queue = config.port_queue_bytes;
  if (port_queue == 0) {
    port_queue = config.switch_buffer_bytes /
                 (config_.hosts_per_tor + config_.num_spines);
  }
  config_.port_queue_bytes = port_queue;

  // ECN thresholds scale with link speed (reference: 100/400 KB at 400G).
  if (config_.ecn.kmin_bytes == 0) {
    config_.ecn.kmin_bytes = std::max<int64_t>(
        100 * 1024 * config.link_rate.bps() / Rate::Gbps(400).bps(), 4 * 1500);
  }
  if (config_.ecn.kmax_bytes == 0) {
    config_.ecn.kmax_bytes = std::max<int64_t>(
        400 * 1024 * config.link_rate.bps() / Rate::Gbps(400).bps(), 16 * 1500);
  }

  const HostFactory make_host = [this](Network& net, int ordinal, const std::string& name) {
    (void)ordinal;
    RnicHost* host = net.MakeNode<RnicHost>(name);
    hosts_.push_back(host);
    return host;
  };

  if (config_.fabric == FabricKind::kFatTree) {
    FatTreeConfig topo_config;
    topo_config.k = config.fat_tree_k;
    topo_config.host_link = LinkSpec{config.link_rate, config.link_delay, port_queue};
    topo_config.fabric_link = LinkSpec{config.link_rate, config.link_delay, port_queue};
    topo_config.core_delay_skew = config.fabric_delay_skew;
    topo_config.ecn = config_.ecn;
    topology_ = BuildFatTree(*network_, topo_config, make_host);
  } else {
    LeafSpineConfig topo_config;
    topo_config.num_tors = config.num_tors;
    topo_config.num_spines = config.num_spines;
    topo_config.hosts_per_tor = config.hosts_per_tor;
    topo_config.host_link = LinkSpec{config.link_rate, config.link_delay, port_queue};
    topo_config.fabric_link = LinkSpec{config.link_rate, config.link_delay, port_queue};
    topo_config.spine_delay_skew = config.fabric_delay_skew;
    topo_config.ecn = config_.ecn;
    topology_ = BuildLeafSpine(*network_, topo_config, make_host);
  }

  // PFC: lossless data class, thresholds scaled with link speed.
  PfcConfig pfc;
  pfc.enabled = config.pfc_enabled;
  const int64_t rate_scale_num = config.link_rate.bps();
  const int64_t rate_scale_den = Rate::Gbps(400).bps();
  pfc.xoff_bytes = config.pfc_xoff_bytes != 0
                       ? config.pfc_xoff_bytes
                       : std::max<int64_t>(150 * 1024 * rate_scale_num / rate_scale_den,
                                           8 * config.mtu_bytes);
  pfc.xon_bytes = config.pfc_xon_bytes != 0
                      ? config.pfc_xon_bytes
                      : std::max<int64_t>(100 * 1024 * rate_scale_num / rate_scale_den,
                                          4 * config.mtu_bytes);
  config_.pfc_xoff_bytes = pfc.xoff_bytes;
  config_.pfc_xon_bytes = pfc.xon_bytes;
  for (Switch* sw : topology_.switches) {
    sw->ConfigurePfc(pfc);
  }

  // Load-balancing scheme.
  switch (config.scheme) {
    case Scheme::kEcmp:
      InstallLoadBalancer(topology_, LbKind::kEcmp);
      break;
    case Scheme::kAdaptiveRouting:
      InstallLoadBalancer(topology_, LbKind::kAdaptive);
      break;
    case Scheme::kRandomSpray:
      InstallLoadBalancer(topology_, LbKind::kRandomSpray);
      break;
    case Scheme::kFlowlet: {
      LbParams params;
      params.flowlet_gap = config.flowlet_gap;
      InstallLoadBalancer(topology_, LbKind::kFlowlet, params);
      break;
    }
    case Scheme::kSprayReorder: {
      InstallLoadBalancer(topology_, LbKind::kRandomSpray);
      for (Switch* tor : topology_.tors) {
        auto hook = std::make_unique<InNetworkReorderHook>(&sim_, config.reorder);
        tor->AddHook(hook.get());
        reorder_hooks_.push_back(std::move(hook));
      }
      break;
    }
    case Scheme::kThemis: {
      ThemisDeploymentConfig themis_config;
      themis_config.spray_mode = config.themis_spray_mode;
      // Eq. 1's N: ToR-egress spraying spreads over the ToR's uplinks;
      // sport rewriting spreads over the full equal-cost path set (for
      // leaf-spine the two coincide at num_spines).
      themis_config.themis_d.num_paths = static_cast<uint32_t>(
          config.themis_spray_mode == SprayMode::kSportRewrite
              ? topology_.equal_cost_paths
              : config_.num_spines);
      if (config_.fabric == FabricKind::kFatTree &&
          config.themis_spray_mode == SprayMode::kSportRewrite) {
        // Two decorrelated ECMP stages: edge->agg consults hash bits [0, ..)
        // and agg->core bits [8, ..) (matches the builder's hash_shift).
        const uint32_t half = static_cast<uint32_t>(config.fat_tree_k / 2);
        themis_config.ecmp_stages = {EcmpStage{.shift = 0, .group_size = half},
                                     EcmpStage{.shift = 8, .group_size = half}};
      }
      themis_config.themis_d.compensation_enabled = config.themis_compensation;
      themis_config.themis_d.truncate_entries = config.themis_truncate_queue_entries;
      // Last-hop RTT: two propagation delays plus one MTU serialization on
      // each direction of the ToR<->NIC hop (ACK/NACK are tiny).
      const TimePs rtt_last = 2 * config.link_delay +
                              config.link_rate.SerializationTime(config.mtu_bytes) +
                              config.link_rate.SerializationTime(kControlPacketBytes);
      themis_config.themis_d.queue_capacity = PsnQueueCapacity(
          config.link_rate, rtt_last, config.themis_queue_expansion, config.mtu_bytes);
      // Pause-aware grace window: a pause-delayed packet surfaces at most
      // one xoff-buffer drain (plus a fabric hop) after the pause it sat
      // behind, so auto-derive lookback/slack from the PFC headroom — the
      // paper's buffer-headroom assumption, computed instead of hard-coded.
      themis_config.themis_d.pause_grace = config.pfc_enabled && config.themis_pause_grace;
      const TimePs xoff_drain = config.link_rate.SerializationTime(
          static_cast<uint32_t>(config_.pfc_xoff_bytes));
      themis_config.themis_d.grace_lookback_ps = config.themis_grace_lookback != 0
                                                     ? config.themis_grace_lookback
                                                     : xoff_drain + 2 * config.link_delay;
      themis_config.themis_d.grace_slack_ps = config.themis_grace_slack != 0
                                                  ? config.themis_grace_slack
                                                  : xoff_drain + config.link_delay;
      // Register-array realism (§4): capacity 0 keeps the legacy unbounded
      // table. entry_bytes stays 0 — ThemisD derives the §4 width
      // (20 B + queue_capacity) from its own ring sizing above.
      themis_config.themis_d.flow_table.capacity = config.themis_flow_capacity;
      themis_config.themis_d.flow_table.policy = config.themis_aging;
      themis_config.themis_d.flow_table.idle_timeout = config.themis_idle_timeout;
      themis_ = ThemisDeployment::Install(topology_, themis_config);
      break;
    }
  }

  // Re-size the calendar tier with the experiment's actual MTU (the builder
  // sized it for the 1500 B default); no-op when they agree.
  network_->AutoSizeScheduler(config.mtu_bytes);

  // Transport / CC defaults for every QP.
  qp_config_.transport = config.transport;
  qp_config_.cc = config.cc;
  qp_config_.mtu_bytes = config.mtu_bytes;
  qp_config_.retransmit_timeout = config.retransmit_timeout;
  qp_config_.dcqcn.line_rate = config.link_rate;
  qp_config_.dcqcn.rate_increase_period = config.dcqcn_ti;
  qp_config_.dcqcn.rate_decrease_interval = config.dcqcn_td;
  qp_config_.fixed_rate = config.fixed_rate.IsZero() ? config.link_rate : config.fixed_rate;

  connections_ = std::make_unique<ConnectionManager>(hosts_, qp_config_);

  // Hybrid background engine from config. kNone schedules nothing — the
  // existing determinism goldens hold by construction. Trace-calibrated
  // models (kTrace) carry data and attach via AttachTrafficModel().
  if (config_.traffic_model == TrafficModelKind::kFluid) {
    FluidModelConfig fluid;
    fluid.load = config_.background_load;
    fluid.burstiness = config_.traffic_burstiness;
    fluid.seed = config_.seed;
    AttachTrafficModel(std::make_unique<FluidTrafficModel>(fluid), config_.traffic_epoch);
  }

  // Chaos engine from config. An empty script builds nothing — no engine, no
  // timers — so scenario-free runs are bit-exact by construction. A target
  // typo aborts loudly: a campaign that silently faults nothing would report
  // meaningless recovery numbers.
  if (!config_.scenario.empty()) {
    scenario_ = std::make_unique<ScenarioEngine>(&sim_, config_.scenario, config_.seed);
    std::string error;
    if (!scenario_->Attach(topology_, themis_.get(), hosts_, &error)) {
      std::fprintf(stderr, "scenario attach failed: %s\n", error.c_str());
      std::abort();
    }
    scenario_->Start();
  }
}

std::vector<Port*> Experiment::FabricPorts() const {
  return SwitchEgressPorts(topology_.switches);
}

void Experiment::AttachTrafficModel(std::unique_ptr<TrafficModel> model,
                                    TimePs epoch_period) {
  if (epoch_period <= 0) {
    epoch_period = config_.traffic_epoch;
  }
  traffic_ = std::make_unique<BackgroundTrafficEngine>(&sim_, std::move(model),
                                                       FabricPorts(), epoch_period);
  traffic_->Start();
}

int Experiment::PathHops(int src, int dst) const {
  if (SameTor(src, dst)) {
    return 2;  // host -> ToR -> host
  }
  if (config_.fabric == FabricKind::kFatTree) {
    // hosts_per_tor is k/2 after normalization, so a pod holds (k/2)^2 hosts.
    const int hosts_per_pod = config_.hosts_per_tor * config_.hosts_per_tor;
    if (src / hosts_per_pod == dst / hosts_per_pod) {
      return 4;  // host -> edge -> agg -> edge -> host
    }
    return 6;  // host -> edge -> agg -> core -> agg -> edge -> host
  }
  return 4;  // host -> ToR -> spine -> ToR -> host
}

std::vector<std::vector<int>> Experiment::MakeCrossRackGroups(int num_groups) const {
  assert(num_groups <= config_.hosts_per_tor);
  std::vector<std::vector<int>> groups;
  groups.reserve(static_cast<size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    std::vector<int> ranks;
    ranks.reserve(static_cast<size_t>(config_.num_tors));
    for (int t = 0; t < config_.num_tors; ++t) {
      ranks.push_back(t * config_.hosts_per_tor + g);
    }
    groups.push_back(std::move(ranks));
  }
  return groups;
}

std::vector<std::unique_ptr<CollectiveOp>> Experiment::MakeCollectives(
    CollectiveKind kind, const std::vector<std::vector<int>>& groups, uint64_t bytes) {
  std::vector<std::unique_ptr<CollectiveOp>> ops;
  ops.reserve(groups.size());
  for (const std::vector<int>& group : groups) {
    switch (kind) {
      case CollectiveKind::kAllreduce:
        ops.push_back(std::make_unique<RingCollective>(&sim_, connections_.get(), group, bytes,
                                                       RingCollective::Kind::kAllreduce));
        break;
      case CollectiveKind::kAllGather:
        ops.push_back(std::make_unique<RingCollective>(&sim_, connections_.get(), group, bytes,
                                                       RingCollective::Kind::kAllGather));
        break;
      case CollectiveKind::kReduceScatter:
        ops.push_back(std::make_unique<RingCollective>(&sim_, connections_.get(), group, bytes,
                                                       RingCollective::Kind::kReduceScatter));
        break;
      case CollectiveKind::kNeighborRing:
        ops.push_back(std::make_unique<RingCollective>(&sim_, connections_.get(), group, bytes,
                                                       RingCollective::Kind::kNeighborSend));
        break;
      case CollectiveKind::kAlltoall:
        ops.push_back(std::make_unique<Alltoall>(&sim_, connections_.get(), group, bytes));
        break;
      case CollectiveKind::kHalvingDoublingAllreduce:
        ops.push_back(
            std::make_unique<HalvingDoublingAllreduce>(&sim_, connections_.get(), group, bytes));
        break;
      case CollectiveKind::kBroadcast:
        ops.push_back(
            std::make_unique<BinomialBroadcast>(&sim_, connections_.get(), group, bytes));
        break;
    }
  }
  return ops;
}

CollectiveRunResult Experiment::RunCollective(CollectiveKind kind,
                                              const std::vector<std::vector<int>>& groups,
                                              uint64_t bytes, TimePs deadline) {
  auto ops = MakeCollectives(kind, groups, bytes);
  return RunCollectives(sim_, ops, deadline);
}

double Experiment::AggregateRetransmissionRatio() const {
  const uint64_t total = TotalDataBytesSent();
  return total == 0 ? 0.0
                    : static_cast<double>(TotalRtxBytes()) / static_cast<double>(total);
}

uint64_t Experiment::TotalDataBytesSent() const {
  uint64_t total = 0;
  for (const RnicHost* host : hosts_) {
    for (const SenderQp* qp : host->sender_qps()) {
      total += qp->stats().data_bytes_sent;
    }
  }
  return total;
}

uint64_t Experiment::TotalRtxBytes() const {
  uint64_t total = 0;
  for (const RnicHost* host : hosts_) {
    for (const SenderQp* qp : host->sender_qps()) {
      total += qp->stats().rtx_bytes;
    }
  }
  return total;
}

uint64_t Experiment::TotalNacksReceived() const {
  uint64_t total = 0;
  for (const RnicHost* host : hosts_) {
    for (const SenderQp* qp : host->sender_qps()) {
      total += qp->stats().nacks_received;
    }
  }
  return total;
}

uint64_t Experiment::TotalTimeouts() const {
  uint64_t total = 0;
  for (const RnicHost* host : hosts_) {
    for (const SenderQp* qp : host->sender_qps()) {
      total += qp->stats().timeouts;
    }
  }
  return total;
}

ReorderHookStats Experiment::ReorderStats() const {
  ReorderHookStats total;
  for (const auto& hook : reorder_hooks_) {
    const ReorderHookStats& s = hook->stats();
    total.packets_held += s.packets_held;
    total.packets_released_in_order += s.packets_released_in_order;
    total.timeout_flushes += s.timeout_flushes;
    total.overflow_flushes += s.overflow_flushes;
    total.max_buffered_bytes = std::max(total.max_buffered_bytes, s.max_buffered_bytes);
    total.max_total_buffered_bytes =
        std::max(total.max_total_buffered_bytes, s.max_total_buffered_bytes);
  }
  return total;
}

std::vector<double> Experiment::FlowCompletionTimesMs() const {
  std::vector<double> times;
  for (const RnicHost* host : hosts_) {
    for (const SenderQp* qp : host->sender_qps()) {
      const SenderQpStats& s = qp->stats();
      if (s.first_post_time >= 0 && s.last_completion_time > s.first_post_time) {
        times.push_back(ToMilliseconds(s.last_completion_time - s.first_post_time));
      }
    }
  }
  return times;
}

std::vector<uint64_t> Experiment::SpineDataBytes() const {
  std::vector<uint64_t> bytes;
  for (const Switch* sw : topology_.switches) {
    // The fabric-core tier: "spine*" in leaf-spine, "core*" in fat-tree.
    if (sw->name().rfind("spine", 0) != 0 && sw->name().rfind("core", 0) != 0) {
      continue;
    }
    uint64_t total = 0;
    for (int p = 0; p < sw->port_count(); ++p) {
      total += sw->port(p)->stats().tx_data_bytes;
    }
    bytes.push_back(total);
  }
  return bytes;
}

double Experiment::SprayBalanceIndex() const {
  const std::vector<uint64_t> loads = SpineDataBytes();
  if (loads.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (uint64_t load : loads) {
    sum += static_cast<double>(load);
    sum_sq += static_cast<double>(load) * static_cast<double>(load);
  }
  if (sum_sq == 0.0) {
    return 1.0;
  }
  return sum * sum / (static_cast<double>(loads.size()) * sum_sq);
}

uint64_t Experiment::TotalPfcPauses() const {
  uint64_t total = 0;
  for (const Switch* sw : topology_.switches) {
    total += sw->stats().pfc_pauses_sent;
  }
  return total;
}

uint64_t Experiment::TotalPortDrops() const {
  uint64_t total = 0;
  for (const DuplexLink& link : network_->links()) {
    total += link.a.node->port(link.a.port)->stats().drops;
    total += link.b.node->port(link.b.port)->stats().drops;
  }
  return total;
}

namespace {

// Registers the standard per-port column set under "<node>.p<index>.*".
void RegisterPortCounters(CounterRegistry* registry, const std::string& node_name,
                          Port* port) {
  const std::string prefix = node_name + ".p" + std::to_string(port->index());
  registry->RegisterGauge(prefix + ".queue_bytes", [port] {
    return static_cast<double>(port->queued_data_bytes());
  });
  registry->RegisterCounter(prefix + ".drops", &port->stats().drops);
  registry->RegisterCounter(prefix + ".ecn_marks", &port->stats().ecn_marks);
  registry->RegisterCounter(prefix + ".pause_transitions", &port->stats().pause_transitions);
  registry->RegisterGauge(prefix + ".pause_us",
                          [port] { return ToMicroseconds(port->PausedTimePs()); });
  // Hybrid-fidelity columns: exogenous (background-model) occupancy and the
  // ECN marks it induced. Constant zero unless an engine drives this port.
  registry->RegisterGauge(prefix + ".exo_bytes", [port] {
    return static_cast<double>(port->exogenous_bytes());
  });
  registry->RegisterCounter(prefix + ".exo_ecn_marks", &port->stats().ecn_marks_exogenous);
}

}  // namespace

void Experiment::AttachTelemetry(Telemetry* telemetry) {
  CounterRegistry* registry = &telemetry->counters();

  // Event-queue occupancy by kind: pending one-shots and cancellable timers
  // (both on the callback heap; the "wheel" name predates it) and calendar
  // line-rate events. Shows up as sim.*_pending columns in --counters output.
  const Simulator* sim = &sim_;
  registry->RegisterGauge("sim.heap_pending",
                          [sim] { return static_cast<double>(sim->queue().heap_pending()); });
  registry->RegisterGauge("sim.wheel_pending",
                          [sim] { return static_cast<double>(sim->queue().wheel_pending()); });
  registry->RegisterGauge("sim.calendar_pending", [sim] {
    return static_cast<double>(sim->queue().calendar_pending());
  });

  // Burst drain-loop shape: cumulative tagged events dispatched in bursts
  // and the number of bursts. With burst mode off every run has length 1;
  // both zero when no dispatcher is installed.
  const SimBurstStats* burst = &sim_.burst_stats();
  registry->RegisterGauge("sim.burst_events", [burst] {
    return static_cast<double>(burst->burst_events);
  });
  registry->RegisterCounter("sim.bursts", &burst->bursts);

  // Node names for the Chrome-trace process list.
  for (const Switch* sw : topology_.switches) {
    telemetry->SetNodeName(static_cast<uint16_t>(sw->id()), sw->name());
  }
  for (const Node* host : topology_.hosts) {
    telemetry->SetNodeName(static_cast<uint16_t>(host->id()), host->name());
  }

  // Per-port queue depth / drops / ECN marks / PFC pause time, for every
  // connected switch port and every host uplink.
  for (Switch* sw : topology_.switches) {
    for (int p = 0; p < sw->port_count(); ++p) {
      Port* port = sw->port(p);
      if (port->connected()) {
        RegisterPortCounters(registry, sw->name(), port);
      }
    }
  }
  for (RnicHost* host : hosts_) {
    if (host->uplink()->connected()) {
      RegisterPortCounters(registry, host->name(), host->uplink());
    }
    // Per-QP counters register lazily as QPs are created.
    host->set_counter_registry(registry);
  }

  if (themis_ != nullptr) {
    themis_->AttachTelemetry(registry);
  }

  // Background-engine aggregates: traffic.epochs / port_updates /
  // exo_bytes_total / exo_bytes_peak counters plus the live traffic.exo_bytes
  // gauge. Absent (no columns) when no model is attached.
  if (traffic_ != nullptr) {
    traffic_->RegisterCounters(*registry, "traffic");
  }

  // Chaos-engine aggregates (scenario.faults_applied / gray_drops / ... plus
  // the live scenario.open_faults gauge) and the per-host CRC-drop counter
  // gray corruption feeds. Absent when no scenario is configured.
  if (scenario_ != nullptr) {
    scenario_->RegisterCounters(*registry, "scenario");
    for (RnicHost* host : hosts_) {
      registry->RegisterCounter(host->name() + ".corrupt_rx", &host->stats().corrupt_rx);
    }
  }
}

}  // namespace themis
