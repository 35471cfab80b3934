// The public facade: one object that assembles a full experiment — fabric,
// RNICs, load-balancing scheme, congestion control, Themis — and runs
// collective workloads on it. Examples and benchmarks talk to this API.
//
//   ExperimentConfig cfg;
//   cfg.scheme = Scheme::kThemis;
//   Experiment exp(cfg);
//   auto result = exp.RunCollective(CollectiveKind::kAllreduce,
//                                   exp.MakeCrossRackGroups(16), 300_MB);

#ifndef THEMIS_SRC_CORE_EXPERIMENT_H_
#define THEMIS_SRC_CORE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/collective/alltoall.h"
#include "src/scenario/scenario_engine.h"
#include "src/collective/broadcast.h"
#include "src/collective/connections.h"
#include "src/collective/halving_doubling.h"
#include "src/collective/ring.h"
#include "src/telemetry/telemetry.h"
#include "src/themis/deployment.h"
#include "src/themis/reorder_buffer.h"
#include "src/topo/fat_tree.h"
#include "src/topo/leaf_spine.h"
#include "src/traffic/background_engine.h"
#include "src/traffic/traffic_model.h"

namespace themis {

// The load-balancing scheme under evaluation (Fig. 5 compares the first
// three; the others are extra baselines this repo provides).
enum class Scheme : uint8_t {
  kEcmp = 0,             // flow-level ECMP
  kAdaptiveRouting = 1,  // per-packet least-queue + commodity NIC-SR
  kThemis = 2,           // PSN spraying + NACK filtering (this paper)
  kRandomSpray = 3,      // naive RPS + commodity NIC-SR (Fig. 1 motivation)
  kFlowlet = 4,          // flowlet switching
  kSprayReorder = 5,     // RPS + in-network reordering at the dst ToR
                         // (ConWeave-style baseline, Section 2.3)
};

constexpr const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kEcmp:
      return "ECMP";
    case Scheme::kAdaptiveRouting:
      return "AdaptiveRouting";
    case Scheme::kThemis:
      return "Themis";
    case Scheme::kRandomSpray:
      return "RandomSpray";
    case Scheme::kFlowlet:
      return "Flowlet";
    case Scheme::kSprayReorder:
      return "SprayReorder";
  }
  return "?";
}

enum class CollectiveKind : uint8_t {
  kAllreduce = 0,  // ring
  kAlltoall = 1,
  kAllGather = 2,
  kReduceScatter = 3,
  kNeighborRing = 4,           // Fig. 1 motivation pattern
  kHalvingDoublingAllreduce = 5,  // recursive halving-doubling
  kBroadcast = 6,              // binomial tree from ranks[0]
};

// Which fabric the experiment assembles. kFatTree normalizes the
// num_tors/num_spines/hosts_per_tor triple from `fat_tree_k` so placement
// helpers (HostTorIndex, edge_rate, load definitions) keep working.
enum class FabricKind : uint8_t {
  kLeafSpine = 0,  // 2-tier Clos (Fig. 1 / Fig. 5 setup)
  kFatTree = 1,    // 3-tier k-ary fat-tree (k^3/4 hosts; Section 4 topology)
};

constexpr const char* FabricKindName(FabricKind fabric) {
  switch (fabric) {
    case FabricKind::kLeafSpine:
      return "leaf-spine";
    case FabricKind::kFatTree:
      return "fat-tree";
  }
  return "?";
}

struct ExperimentConfig {
  uint64_t seed = 1;

  // --- Fabric (defaults: the Fig. 5 16x16 leaf-spine at 400 Gbps) ---------
  FabricKind fabric = FabricKind::kLeafSpine;
  // kFatTree only: switch arity (even). k=16 -> 1024 hosts. Overrides
  // num_tors/num_spines/hosts_per_tor, which are normalized to k^2/2, k/2,
  // k/2 respectively so ordinal/placement helpers stay correct.
  int fat_tree_k = 8;
  int num_tors = 16;
  int num_spines = 16;
  int hosts_per_tor = 16;
  Rate link_rate = Rate::Gbps(400);
  TimePs link_delay = 1 * kMicrosecond;
  // Per-spine extra propagation delay (spine s adds s * skew): multi-path
  // delay variation. 0 = perfectly symmetric fabric.
  TimePs fabric_delay_skew = 0;
  // Paper setup: each switch has a 64 MB (shared) buffer. Per-port capacity
  // is derived as switch_buffer_bytes / ports-per-ToR unless
  // port_queue_bytes is set explicitly (non-zero).
  int64_t switch_buffer_bytes = 64 * 1024 * 1024;
  int64_t port_queue_bytes = 0;
  // WRED/ECN marking profile. kmin/kmax of 0 = auto: the DCQCN reference
  // thresholds (100 KB / 400 KB at 400 Gbps) scaled linearly with link rate.
  EcnProfile ecn{.kmin_bytes = 0, .kmax_bytes = 0, .pmax = 0.2, .enabled = true};
  // PFC (lossless RoCE fabric). Thresholds of 0 = auto: 150/100 KB at
  // 400 Gbps, scaled linearly with link rate.
  bool pfc_enabled = true;
  int64_t pfc_xoff_bytes = 0;
  int64_t pfc_xon_bytes = 0;

  // --- Scheme --------------------------------------------------------------
  Scheme scheme = Scheme::kThemis;
  SprayMode themis_spray_mode = SprayMode::kTorEgress;
  bool themis_compensation = true;
  bool themis_truncate_queue_entries = true;
  double themis_queue_expansion = 1.5;  // F of Section 4
  // Pause-aware grace window for Themis-D NACK validity (PFC-aware Eq. 3;
  // see ThemisDConfig::pause_grace). On by default — it is inert unless a
  // pause actually overlaps a suspect window. Lookback/slack of 0 = auto:
  // derived from the PFC headroom (xoff drain time + link delays), i.e. the
  // paper's buffer-headroom assumption instead of a hard-coded constant.
  bool themis_pause_grace = true;
  TimePs themis_grace_lookback = 0;
  TimePs themis_grace_slack = 0;
  // Register-array realism (§4): bound each ToR's Themis-D flow table.
  // capacity 0 (default) keeps the legacy unbounded table — bit-identical,
  // goldens pinned. With a capacity, themis_aging picks the reclamation
  // policy and themis_idle_timeout its quiet threshold (kIdleTimeout only).
  size_t themis_flow_capacity = 0;
  EvictionPolicy themis_aging = EvictionPolicy::kNone;
  TimePs themis_idle_timeout = 0;
  TimePs flowlet_gap = 50 * kMicrosecond;
  ReorderHookConfig reorder;  // kSprayReorder baseline knobs

  // --- Hybrid background traffic (src/traffic) -----------------------------
  // kNone leaves the packet-level hot path untouched (no engine, no epoch
  // events — determinism goldens are unchanged by construction). kFluid
  // builds a FluidTrafficModel from the knobs below and starts it on every
  // connected switch egress port. Trace-calibrated models attach through
  // AttachTrafficModel() instead.
  TrafficModelKind traffic_model = TrafficModelKind::kNone;
  double background_load = 0.0;       // offered background load per port
  double traffic_burstiness = 0.25;   // AR(1) modulation amplitude
  TimePs traffic_epoch = 5 * kMicrosecond;  // engine epoch period

  // --- Fault-injection campaign (src/scenario) -----------------------------
  // An empty script (the default) constructs no engine, arms no timers, and
  // leaves every run bit-exactly identical to a scenario-free build — the
  // same absent-when-off contract as traffic_model == kNone, pinned by the
  // determinism goldens. A non-empty script is resolved against the topology
  // at construction (std::abort on a target that matches nothing) and starts
  // with the experiment.
  ScenarioScript scenario;

  // --- Transport & CC ------------------------------------------------------
  TransportKind transport = TransportKind::kNicSr;
  CcKind cc = CcKind::kDcqcn;
  TimePs dcqcn_ti = 900 * kMicrosecond;  // rate increase timer TI
  TimePs dcqcn_td = 4 * kMicrosecond;    // rate decrease interval TD
  Rate fixed_rate = Rate();              // 0 -> line rate (kFixedRate only)
  uint32_t mtu_bytes = 1500;
  TimePs retransmit_timeout = 100 * kMicrosecond;
};

// The range checks a config set field by field (the CLIs' `--set`) must pass
// before an Experiment is built from it: fat_tree_k even and >= 2 on a
// fat-tree, themis_queue_expansion finite and > 0 (the PSN queue needs at
// least one entry), positive dcqcn_ti, traffic_epoch and retransmit_timeout
// (a zero period re-arms its timer at the same tick forever), then
// ValidateScenario on the scenario. On failure fills `error` (if non-null)
// with "<field>: reason".
bool ValidateConfig(const ExperimentConfig& config, std::string* error);

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);

  // --- Building blocks -----------------------------------------------------
  Simulator& sim() { return sim_; }
  Network& network() { return *network_; }
  Topology& topology() { return topology_; }
  ConnectionManager& connections() { return *connections_; }
  RnicHost* host(int ordinal) { return hosts_[static_cast<size_t>(ordinal)]; }
  int host_count() const { return static_cast<int>(hosts_.size()); }
  ThemisDeployment* themis() { return themis_.get(); }  // null unless kThemis
  // Aggregate reorder-buffer stats (kSprayReorder only; zeros otherwise).
  ReorderHookStats ReorderStats() const;

  // Wires a Telemetry bundle (constructed on this experiment's sim()) into
  // the whole stack: names every node for the trace exporter, registers
  // per-port queue/drop/ECN/pause counters for all switch and host-uplink
  // ports, arms per-QP counter registration on every host (QPs created
  // afterwards register lazily), and attaches Themis-D per-flow verdict
  // counters. Purely observational: determinism hashes are unchanged.
  void AttachTelemetry(Telemetry* telemetry);
  const ExperimentConfig& config() const { return config_; }
  const QpConfig& qp_config() const { return qp_config_; }

  // --- Hybrid background traffic -------------------------------------------
  // Adopts `model` as this experiment's background engine over every
  // connected switch egress port and starts it (epoch 0 applies
  // immediately). epoch_period <= 0 uses config().traffic_epoch. Replaces
  // any engine built from config (e.g. kFluid). Call before running.
  void AttachTrafficModel(std::unique_ptr<TrafficModel> model, TimePs epoch_period = 0);
  // The running engine; null when traffic_model == kNone and nothing was
  // attached explicitly.
  BackgroundTrafficEngine* traffic() { return traffic_.get(); }
  // The deterministic switch-egress-port enumeration the engine drives —
  // also the port order OccupancyRecorder should record for calibration.
  std::vector<Port*> FabricPorts() const;

  // --- Fault injection -----------------------------------------------------
  // The running chaos engine; null when config().scenario is empty.
  ScenarioEngine* scenario() { return scenario_.get(); }

  // --- Workload helpers ----------------------------------------------------
  // Paper Section 5 grouping: group g contains the g-th host of every ToR,
  // so every group spans all racks and all its traffic crosses the fabric.
  std::vector<std::vector<int>> MakeCrossRackGroups(int num_groups) const;

  // Placement helpers for flow-level workloads (src/workload): hosts are
  // created ToR-major, so rack locality is derivable from the ordinal.
  int HostTorIndex(int ordinal) const { return ordinal / config_.hosts_per_tor; }
  bool SameTor(int a, int b) const { return HostTorIndex(a) == HostTorIndex(b); }
  // Store-and-forward hop count of the packet path src -> dst: 2 under one
  // ToR, 4 across a leaf-spine fabric or within a fat-tree pod, 6 across
  // fat-tree pods. Feeds FlowDriver's ideal-FCT model.
  int PathHops(int src, int dst) const;
  // Edge (host<->ToR) bandwidth — the load unit for open-loop generators.
  Rate edge_rate() const { return config_.link_rate; }

  // Creates (unstarted) collective ops, one per group.
  std::vector<std::unique_ptr<CollectiveOp>> MakeCollectives(
      CollectiveKind kind, const std::vector<std::vector<int>>& groups, uint64_t bytes);

  // Starts all groups simultaneously and runs to completion (or deadline).
  CollectiveRunResult RunCollective(CollectiveKind kind,
                                    const std::vector<std::vector<int>>& groups,
                                    uint64_t bytes, TimePs deadline = kTimeInfinity);

  // --- Aggregated metrics --------------------------------------------------
  // Across all sender QPs: retransmitted wire bytes / sent wire bytes.
  double AggregateRetransmissionRatio() const;
  uint64_t TotalDataBytesSent() const;
  uint64_t TotalRtxBytes() const;
  uint64_t TotalNacksReceived() const;
  uint64_t TotalTimeouts() const;
  uint64_t TotalPortDrops() const;
  uint64_t TotalPfcPauses() const;

  // Per-flow completion times (first post -> last completion), milliseconds,
  // for every sender QP that carried traffic.
  std::vector<double> FlowCompletionTimesMs() const;
  // Data bytes forwarded by each spine switch — the fabric-core load split.
  std::vector<uint64_t> SpineDataBytes() const;
  // Jain's fairness index over the spine load split: 1.0 = perfectly
  // balanced core (ideal spraying), 1/num_spines = everything on one spine.
  double SprayBalanceIndex() const;

 private:
  ExperimentConfig config_;
  Simulator sim_;
  std::unique_ptr<Network> network_;
  Topology topology_;
  std::vector<RnicHost*> hosts_;
  QpConfig qp_config_;
  std::unique_ptr<ConnectionManager> connections_;
  std::unique_ptr<ThemisDeployment> themis_;
  std::vector<std::unique_ptr<InNetworkReorderHook>> reorder_hooks_;
  // Declared last: the engine's destructor clears pressure on ports owned by
  // network_, which must still be alive.
  std::unique_ptr<BackgroundTrafficEngine> traffic_;
  // After traffic_: the scenario dtor uninstalls gray-fault hooks from ports
  // owned by network_, which must still be alive.
  std::unique_ptr<ScenarioEngine> scenario_;
};

}  // namespace themis

#endif  // THEMIS_SRC_CORE_EXPERIMENT_H_
