// workload_cli — run an open-loop FCT workload (src/workload) from the
// command line: pick a traffic pattern, a flow-size distribution (builtin or
// a CDF file), a load level, and a load-balancing scheme; get the slowdown
// percentiles and, optionally, a per-flow CSV.
//
//   $ ./build/examples/workload_cli --pattern=incastmix --cdf=websearch
//         --load=0.6 --scheme=themis --spray=tor --window-us=1000
//         --tors=4 --spines=4 --hosts-per-tor=4 --rate-gbps=100 --csv=flows.csv
//   (one line in the shell; split here for readability)
//
// Run with --help for the full flag list.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/stats/report.h"
#include "src/workload/flow_driver.h"

namespace {

using namespace themis;

struct CliOptions {
  Scheme scheme = Scheme::kThemis;
  SprayMode spray = SprayMode::kTorEgress;
  TrafficPattern pattern = TrafficPattern::kIncastMix;
  std::string cdf = "websearch";
  double load = 0.5;
  int64_t window_us = 1000;
  int fanin = 8;
  double incast_fraction = 0.5;
  FabricKind topo = FabricKind::kLeafSpine;
  int fat_tree_k = 8;
  int tors = 4;
  int spines = 4;
  int hosts_per_tor = 4;
  int64_t rate_gbps = 100;
  TrafficModelKind traffic_model = TrafficModelKind::kNone;
  double background_load = 0.0;
  double traffic_burstiness = 0.25;
  int64_t traffic_epoch_us = 5;
  uint64_t seed = 1;
  uint64_t max_flows = 0;
  uint64_t themis_flow_capacity = 0;
  EvictionPolicy themis_aging = EvictionPolicy::kNone;
  int64_t themis_idle_timeout_us = 0;
  std::string scenario;  // preset name or script path; empty = no faults
  bool pfc = true;
  bool compensation = true;
  bool grace = true;
  std::string csv_path;
  std::string trace_path;
  std::string counters_path;
};

[[noreturn]] void Usage(int code) {
  std::printf(
      "workload_cli — run an open-loop FCT workload and report slowdown\n\n"
      "  --pattern=uniform|permutation|incast|incastmix  traffic matrix (default incastmix)\n"
      "  --cdf=websearch|hadoop|alistorage|PATH  flow sizes: builtin or CDF file\n"
      "  --load=F             offered load as fraction of edge bandwidth (default 0.5)\n"
      "  --scheme=ecmp|ar|rps|flowlet|reorder|themis  load balancing (default themis)\n"
      "  --spray=tor|sport    Themis spray point: ToR egress (D) or sport rewrite (S)\n"
      "  --window-us=N        arrival window (default 1000)\n"
      "  --fanin=N            incast fan-in (default 8)\n"
      "  --incast-fraction=F  incastmix: share of load carried by bursts (default 0.5)\n"
      "  --topo=leafspine|fattree  fabric kind (default leafspine)\n"
      "  --fat-tree-k=N       fat-tree arity (even; 8 -> 128 hosts, 16 -> 1024 hosts)\n"
      "  --tors=N --spines=N --hosts-per-tor=N    leaf-spine shape (default 4x4x4)\n"
      "  --rate-gbps=N        link speed (default 100)\n"
      "  --traffic-model=none|fluid  hybrid background model (default none)\n"
      "  --background-load=F  modelled background load per fabric port (default 0)\n"
      "  --traffic-burstiness=F  AR(1) modulation amplitude (default 0.25)\n"
      "  --traffic-epoch-us=N    background epoch period (default 5)\n"
      "  --scenario=NAME|PATH fault-injection campaign: a preset (tor-uplink-flap,\n"
      "                       gray-spine) or a .scn script file (see examples/scenarios/)\n"
      "  --seed=N             RNG seed (default 1)\n"
      "  --max-flows=N        truncate the generated flow list (default: no cap)\n"
      "  --themis-flow-capacity=N  bound each ToR's Themis-D flow table to N register-\n"
      "                       array entries (default 0 = unbounded, the paper's §4\n"
      "                       provisioned case)\n"
      "  --themis-aging=none|lru|idle  reclamation policy for a bounded table\n"
      "                       (default none: a full table refuses new flows)\n"
      "  --themis-idle-timeout-us=N  idle aging threshold for --themis-aging=idle\n"
      "  --no-pfc             disable priority flow control\n"
      "  --no-burst           scalar event dispatch (same as THEMIS_BURST=0; A/B, bisection)\n"
      "  --no-compensation    disable Themis NACK compensation\n"
      "  --no-grace           disable the pause-aware NACK grace window\n"
      "  --csv=PATH           write one row per flow (sizes, FCT, slowdown)\n"
      "  --trace=PATH         write a Chrome trace_event JSON (chrome://tracing, Perfetto)\n"
      "  --counters=PATH      write the sampled counter time series as CSV\n");
  std::exit(code);
}

bool ParseValue(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

CliOptions Parse(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage(0);
    } else if (std::strcmp(arg, "--no-pfc") == 0) {
      opts.pfc = false;
    } else if (std::strcmp(arg, "--no-burst") == 0) {
      // The Simulator reads THEMIS_BURST at construction, wherever it is
      // built; firing order is bit-identical either way (DESIGN.md).
      setenv("THEMIS_BURST", "0", 1);
    } else if (std::strcmp(arg, "--no-compensation") == 0) {
      opts.compensation = false;
    } else if (std::strcmp(arg, "--no-grace") == 0) {
      opts.grace = false;
    } else if (ParseValue(arg, "--pattern", &value)) {
      if (value == "uniform") {
        opts.pattern = TrafficPattern::kUniform;
      } else if (value == "permutation") {
        opts.pattern = TrafficPattern::kPermutation;
      } else if (value == "incast") {
        opts.pattern = TrafficPattern::kIncast;
      } else if (value == "incastmix") {
        opts.pattern = TrafficPattern::kIncastMix;
      } else {
        std::fprintf(stderr, "unknown pattern '%s'\n", value.c_str());
        Usage(1);
      }
    } else if (ParseValue(arg, "--cdf", &value)) {
      opts.cdf = value;
    } else if (ParseValue(arg, "--scheme", &value)) {
      if (value == "ecmp") {
        opts.scheme = Scheme::kEcmp;
      } else if (value == "ar" || value == "adaptive") {
        opts.scheme = Scheme::kAdaptiveRouting;
      } else if (value == "rps" || value == "spray") {
        opts.scheme = Scheme::kRandomSpray;
      } else if (value == "flowlet") {
        opts.scheme = Scheme::kFlowlet;
      } else if (value == "reorder") {
        opts.scheme = Scheme::kSprayReorder;
      } else if (value == "themis") {
        opts.scheme = Scheme::kThemis;
      } else {
        std::fprintf(stderr, "unknown scheme '%s'\n", value.c_str());
        Usage(1);
      }
    } else if (ParseValue(arg, "--spray", &value)) {
      if (value == "tor") {
        opts.spray = SprayMode::kTorEgress;
      } else if (value == "sport") {
        opts.spray = SprayMode::kSportRewrite;
      } else {
        std::fprintf(stderr, "unknown spray mode '%s'\n", value.c_str());
        Usage(1);
      }
    } else if (ParseValue(arg, "--load", &value)) {
      opts.load = std::strtod(value.c_str(), nullptr);
    } else if (ParseValue(arg, "--window-us", &value)) {
      opts.window_us = std::atoll(value.c_str());
    } else if (ParseValue(arg, "--fanin", &value)) {
      opts.fanin = std::atoi(value.c_str());
    } else if (ParseValue(arg, "--incast-fraction", &value)) {
      opts.incast_fraction = std::strtod(value.c_str(), nullptr);
    } else if (ParseValue(arg, "--topo", &value)) {
      if (value == "leafspine" || value == "leaf-spine") {
        opts.topo = FabricKind::kLeafSpine;
      } else if (value == "fattree" || value == "fat-tree") {
        opts.topo = FabricKind::kFatTree;
      } else {
        std::fprintf(stderr, "unknown topology '%s'\n", value.c_str());
        Usage(1);
      }
    } else if (ParseValue(arg, "--fat-tree-k", &value)) {
      opts.fat_tree_k = std::atoi(value.c_str());
    } else if (ParseValue(arg, "--traffic-model", &value)) {
      if (value == "none") {
        opts.traffic_model = TrafficModelKind::kNone;
      } else if (value == "fluid") {
        opts.traffic_model = TrafficModelKind::kFluid;
      } else {
        std::fprintf(stderr, "unknown traffic model '%s'\n", value.c_str());
        Usage(1);
      }
    } else if (ParseValue(arg, "--background-load", &value)) {
      opts.background_load = std::strtod(value.c_str(), nullptr);
    } else if (ParseValue(arg, "--traffic-burstiness", &value)) {
      opts.traffic_burstiness = std::strtod(value.c_str(), nullptr);
    } else if (ParseValue(arg, "--traffic-epoch-us", &value)) {
      opts.traffic_epoch_us = std::atoll(value.c_str());
    } else if (ParseValue(arg, "--tors", &value)) {
      opts.tors = std::atoi(value.c_str());
    } else if (ParseValue(arg, "--spines", &value)) {
      opts.spines = std::atoi(value.c_str());
    } else if (ParseValue(arg, "--hosts-per-tor", &value)) {
      opts.hosts_per_tor = std::atoi(value.c_str());
    } else if (ParseValue(arg, "--rate-gbps", &value)) {
      opts.rate_gbps = std::atoll(value.c_str());
    } else if (ParseValue(arg, "--scenario", &value)) {
      opts.scenario = value;
    } else if (ParseValue(arg, "--seed", &value)) {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseValue(arg, "--max-flows", &value)) {
      opts.max_flows = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseValue(arg, "--themis-flow-capacity", &value)) {
      opts.themis_flow_capacity = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseValue(arg, "--themis-aging", &value)) {
      if (value == "none") {
        opts.themis_aging = EvictionPolicy::kNone;
      } else if (value == "lru") {
        opts.themis_aging = EvictionPolicy::kLruClock;
      } else if (value == "idle") {
        opts.themis_aging = EvictionPolicy::kIdleTimeout;
      } else {
        std::fprintf(stderr, "unknown aging policy '%s'\n", value.c_str());
        Usage(1);
      }
    } else if (ParseValue(arg, "--themis-idle-timeout-us", &value)) {
      opts.themis_idle_timeout_us = std::atoll(value.c_str());
    } else if (ParseValue(arg, "--csv", &value)) {
      opts.csv_path = value;
    } else if (ParseValue(arg, "--trace", &value)) {
      opts.trace_path = value;
    } else if (ParseValue(arg, "--counters", &value)) {
      opts.counters_path = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      Usage(1);
    }
  }
  if (opts.load <= 0.0 || opts.load >= 1.5) {
    std::fprintf(stderr, "--load must be in (0, 1.5)\n");
    Usage(1);
  }
  if (opts.topo == FabricKind::kFatTree &&
      (opts.fat_tree_k < 2 || opts.fat_tree_k % 2 != 0)) {
    std::fprintf(stderr, "--fat-tree-k must be even and >= 2\n");
    Usage(1);
  }
  if (opts.background_load > 0.0 && opts.traffic_model == TrafficModelKind::kNone) {
    opts.traffic_model = TrafficModelKind::kFluid;  // load implies the model
  }
  return opts;
}

// Builtin name or a CDF file path (see examples/cdfs/README.md).
const FlowSizeCdf* ResolveCdf(const std::string& name, FlowSizeCdf* storage) {
  if (name == "websearch") {
    return &FlowSizeCdf::WebSearch();
  }
  if (name == "hadoop") {
    return &FlowSizeCdf::Hadoop();
  }
  if (name == "alistorage") {
    return &FlowSizeCdf::AliStorage();
  }
  std::string error;
  if (!FlowSizeCdf::LoadFile(name, storage, &error)) {
    std::fprintf(stderr, "cannot load CDF '%s': %s\n", name.c_str(), error.c_str());
    std::exit(1);
  }
  return storage;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opts = Parse(argc, argv);

  FlowSizeCdf file_cdf;
  const FlowSizeCdf* cdf = ResolveCdf(opts.cdf, &file_cdf);

  ExperimentConfig config;
  config.seed = opts.seed;
  config.fabric = opts.topo;
  config.fat_tree_k = opts.fat_tree_k;
  config.num_tors = opts.tors;
  config.num_spines = opts.spines;
  config.hosts_per_tor = opts.hosts_per_tor;
  config.link_rate = Rate::Gbps(opts.rate_gbps);
  config.scheme = opts.scheme;
  config.themis_spray_mode = opts.spray;
  config.pfc_enabled = opts.pfc;
  config.themis_compensation = opts.compensation;
  config.themis_pause_grace = opts.grace;
  config.themis_flow_capacity = static_cast<size_t>(opts.themis_flow_capacity);
  config.themis_aging = opts.themis_aging;
  config.themis_idle_timeout = opts.themis_idle_timeout_us * kMicrosecond;
  config.traffic_model = opts.traffic_model;
  config.background_load = opts.background_load;
  config.traffic_burstiness = opts.traffic_burstiness;
  config.traffic_epoch = opts.traffic_epoch_us * kMicrosecond;

  if (!opts.scenario.empty()) {
    // Preset name first, then script file.
    if (!ScenarioPreset(opts.scenario, &config.scenario)) {
      std::string error;
      if (!LoadScenarioFile(opts.scenario, &config.scenario, &error)) {
        std::fprintf(stderr, "--scenario: %s\n", error.c_str());
        return 1;
      }
    }
  }

  WorkloadSpec workload;
  workload.pattern = opts.pattern;
  workload.load = opts.load;
  workload.window = opts.window_us * kMicrosecond;
  workload.incast_fanin = opts.fanin;
  workload.incast_fraction = opts.incast_fraction;
  workload.seed = opts.seed;
  workload.max_flows = opts.max_flows;

  const TimePs deadline = workload.window * 40;
  FctTelemetryOptions telemetry;
  telemetry.enabled = !opts.trace_path.empty() || !opts.counters_path.empty();
  telemetry.trace_path = opts.trace_path;
  telemetry.counters_path = opts.counters_path;
  const FctWorkloadResult result = RunFctWorkload(config, workload, *cdf, deadline, telemetry);

  if (opts.topo == FabricKind::kFatTree) {
    std::printf("pattern=%s cdf=%s (mean %.0f B) load=%.2f scheme=%s fabric=fat-tree(k=%d) "
                "rate=%lldG window=%lldus seed=%llu\n",
                TrafficPatternName(opts.pattern), cdf->name().c_str(), cdf->MeanBytes(),
                opts.load, SchemeName(opts.scheme), opts.fat_tree_k,
                static_cast<long long>(opts.rate_gbps),
                static_cast<long long>(opts.window_us),
                static_cast<unsigned long long>(opts.seed));
  } else {
    std::printf("pattern=%s cdf=%s (mean %.0f B) load=%.2f scheme=%s fabric=%dx%dx%d "
                "rate=%lldG window=%lldus seed=%llu\n",
                TrafficPatternName(opts.pattern), cdf->name().c_str(), cdf->MeanBytes(),
                opts.load, SchemeName(opts.scheme), opts.tors, opts.spines,
                opts.hosts_per_tor, static_cast<long long>(opts.rate_gbps),
                static_cast<long long>(opts.window_us),
                static_cast<unsigned long long>(opts.seed));
  }
  if (opts.traffic_model != TrafficModelKind::kNone) {
    std::printf("background:         %s model, load %.2f, burstiness %.2f, epoch %lld us\n",
                TrafficModelKindName(opts.traffic_model), opts.background_load,
                opts.traffic_burstiness, static_cast<long long>(opts.traffic_epoch_us));
  }
  std::printf("flows:              %zu generated, %zu completed\n", result.flows_total,
              result.flows_completed);
  if (result.flows_completed == 0) {
    std::printf("NO FLOW FINISHED before the deadline\n");
    return 2;
  }
  std::printf("slowdown:           p50 %.2f  p90 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
              result.slowdown.p50, result.slowdown.p90, result.slowdown.p95,
              result.slowdown.p99, result.slowdown.max);
  std::printf("goodput:            %.2f Gbps (makespan %.3f ms)\n", result.goodput_gbps,
              ToMilliseconds(result.makespan));
  std::printf("retransmissions:    %.4f of sent bytes\n", result.rtx_ratio);
  std::printf("drops/NACKs/timeouts: %llu / %llu / %llu, PFC pauses %llu\n",
              static_cast<unsigned long long>(result.drops),
              static_cast<unsigned long long>(result.nacks),
              static_cast<unsigned long long>(result.timeouts),
              static_cast<unsigned long long>(result.pfc_pauses));
  if (opts.scheme == Scheme::kThemis) {
    std::printf("Themis-D:           %llu NACKs seen, %llu blocked, %llu valid "
                "(%llu spurious / %llu genuine), %llu unmatched, %llu compensated\n",
                static_cast<unsigned long long>(result.themis.nacks_seen),
                static_cast<unsigned long long>(result.themis.nacks_blocked),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_valid),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_spurious),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_genuine),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_unmatched),
                static_cast<unsigned long long>(result.themis.compensated_nacks));
    if (opts.themis_flow_capacity > 0) {
      std::printf("flow table:         cap %llu/ToR (%s), %llu evicted, %llu aged out, "
                  "%llu rejected, %llu grace + %llu compensations resolved at eviction\n",
                  static_cast<unsigned long long>(opts.themis_flow_capacity),
                  EvictionPolicyName(opts.themis_aging),
                  static_cast<unsigned long long>(result.themis.flows_evicted),
                  static_cast<unsigned long long>(result.themis.flows_aged_out),
                  static_cast<unsigned long long>(result.themis.flows_rejected),
                  static_cast<unsigned long long>(result.themis.grace_evicted),
                  static_cast<unsigned long long>(result.themis.compensations_evicted));
    }
  }
  if (!result.scenario_faults.empty()) {
    std::printf("scenario:           %zu fault(s) injected (%s)\n",
                result.scenario_faults.size(), opts.scenario.c_str());
    for (size_t i = 0; i < result.scenario_faults.size(); ++i) {
      const FaultRecord& f = result.scenario_faults[i];
      const TimePs recovery = f.RecoveryTimePs();
      std::printf("  fault %zu: %-7s applied %.1f us, cleared %s, first drop %s, "
                  "recovery %s, %llu drops, %llu victim flow(s)\n",
                  i, FaultKindName(f.kind), ToMicroseconds(f.applied),
                  f.cleared >= 0 ? (FormatDouble(ToMicroseconds(f.cleared), 1) + " us").c_str()
                                 : "never",
                  f.first_drop >= 0
                      ? (FormatDouble(ToMicroseconds(f.first_drop), 1) + " us").c_str()
                      : "none",
                  recovery >= 0 ? (FormatDouble(ToMicroseconds(recovery), 1) + " us").c_str()
                                : "n/a",
                  static_cast<unsigned long long>(f.drops_during),
                  static_cast<unsigned long long>(f.victim_flows));
    }
  }
  // A failed telemetry export (reported on stderr by RunFctWorkload) makes
  // the run exit non-zero once the remaining output is written.
  int status = 0;
  if (telemetry.enabled) {
    std::printf("telemetry:          %llu trace events recorded (%llu evicted by ring wrap)\n",
                static_cast<unsigned long long>(result.trace_events),
                static_cast<unsigned long long>(result.trace_overwritten));
    if (!opts.trace_path.empty()) {
      if (result.trace_written) {
        std::printf("wrote Chrome trace to %s\n", opts.trace_path.c_str());
      } else {
        status = 1;
      }
    }
    if (!opts.counters_path.empty()) {
      if (result.counters_written) {
        std::printf("wrote counters CSV to %s\n", opts.counters_path.c_str());
      } else {
        status = 1;
      }
    }
  }

  if (!opts.csv_path.empty()) {
    Table table({"flow", "src", "dst", "bytes", "start_us", "fct_us", "ideal_us", "slowdown"});
    for (const FlowRecord& r : result.records) {
      if (!r.completed()) {
        continue;
      }
      table.AddRow({std::to_string(r.spec.index), std::to_string(r.spec.src),
                    std::to_string(r.spec.dst), std::to_string(r.spec.bytes),
                    FormatDouble(static_cast<double>(r.spec.start_time) / kMicrosecond, 3),
                    FormatDouble(static_cast<double>(r.Fct()) / kMicrosecond, 3),
                    FormatDouble(static_cast<double>(r.ideal_fct) / kMicrosecond, 3),
                    FormatDouble(r.Slowdown(), 3)});
    }
    if (!table.WriteCsv(opts.csv_path)) {
      std::fprintf(stderr, "could not write %s\n", opts.csv_path.c_str());
      return 1;
    }
    std::printf("wrote per-flow CSV to %s\n", opts.csv_path.c_str());
  }
  return status;
}
