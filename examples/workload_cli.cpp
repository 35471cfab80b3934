// workload_cli — run an open-loop FCT workload (src/workload) from the
// command line: pick a flow-size distribution (builtin or a CDF file) and set
// any config field; get the slowdown percentiles and, optionally, a per-flow
// CSV.
//
//   $ ./build/examples/workload_cli --cdf=websearch --set workload.load=0.6
//         --set scheme=Themis --set workload.window=1000us --csv=flows.csv
//   (one line in the shell; split here for readability)
//
// Run with --help for the flags and every settable field with its default.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "examples/config_flags.h"
#include "src/stats/report.h"
#include "src/workload/flow_driver.h"

namespace {

using namespace themis;

// What --set starts from, with cli::SmallLeafSpine(): an incast-heavy mix.
WorkloadSpec BaseWorkload() {
  WorkloadSpec workload;
  workload.pattern = TrafficPattern::kIncastMix;
  workload.window = 1000 * kMicrosecond;
  workload.incast_fanin = 8;
  return workload;
}

// The config structs plus the flags that are not a single field.
struct CliRun {
  ExperimentConfig config = cli::SmallLeafSpine();
  WorkloadSpec workload = BaseWorkload();
  std::string cdf = "websearch";
  std::string scenario;  // preset name or script path; empty = none
  std::string csv_path;
  std::string trace_path;
  std::string counters_path;
};

[[noreturn]] void Usage(int code) {
  std::printf(
      "workload_cli — run an open-loop FCT workload and report slowdown\n\n"
      "  --set NAME=VALUE     set a config field (listed below)\n"
      "  --cdf=websearch|hadoop|alistorage|PATH  flow sizes: builtin or CDF file\n"
      "  --scenario=NAME|PATH fault-injection campaign: a preset (tor-uplink-flap,\n"
      "                       gray-spine) or a .scn script file (see examples/scenarios/)\n"
      "  --seed=N             set both seed and workload.seed\n"
      "  --csv=PATH           write one row per flow (sizes, FCT, slowdown)\n"
      "  --trace=PATH         write a Chrome trace_event JSON (chrome://tracing, Perfetto)\n"
      "  --counters=PATH      write the sampled counter time series as CSV\n");
  const WorkloadSpec workload = BaseWorkload();
  cli::PrintFields(cli::SmallLeafSpine(), &workload);
  std::exit(code);
}

CliRun Parse(int argc, char** argv) {
  CliRun run;
  std::vector<std::string> sets;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (cli::SetFlag(argc, argv, &i, &sets)) {
      continue;
    }
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage(0);
    } else if (cli::FlagValue(arg, "--cdf", &value)) {
      run.cdf = value;
    } else if (cli::FlagValue(arg, "--scenario", &value)) {
      // Preset name first, then script file.
      run.scenario = value;
      std::string error;
      if (!ScenarioPreset(value, &run.config.scenario) &&
          !LoadScenarioFile(value, &run.config.scenario, &error)) {
        cli::Fail("--scenario: " + error);
      }
    } else if (cli::FlagValue(arg, "--seed", &value)) {
      run.config.seed = run.workload.seed = cli::IntFlag<uint64_t>("--seed", value);
    } else if (cli::FlagValue(arg, "--csv", &value)) {
      run.csv_path = value;
    } else if (cli::FlagValue(arg, "--trace", &value)) {
      run.trace_path = value;
    } else if (cli::FlagValue(arg, "--counters", &value)) {
      run.counters_path = value;
    } else {
      cli::Fail(std::string("unknown flag '") + arg + "' (see --help)");
    }
  }
  cli::ApplySets(sets, run.config, &run.workload);
  if (run.workload.load <= 0.0 || run.workload.load >= 1.5) {
    cli::Fail("workload.load must be in (0, 1.5)");
  }
  if (run.config.background_load > 0.0 && run.config.traffic_model == TrafficModelKind::kNone) {
    cli::Fail("background_load needs traffic_model=fluid");
  }
  return run;
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
    cli::Fail("cannot load CDF '" + name + "': " + error);
  }
  return storage;
}

}  // namespace

int main(int argc, char** argv) {
  const CliRun run = Parse(argc, argv);
  const ExperimentConfig& config = run.config;
  const WorkloadSpec& workload = run.workload;

  FlowSizeCdf file_cdf;
  const FlowSizeCdf* cdf = ResolveCdf(run.cdf, &file_cdf);

  FctRunOptions options;
  options.deadline = workload.window * 40;
  FctTelemetryOptions& telemetry = options.telemetry;
  telemetry.enabled = !run.trace_path.empty() || !run.counters_path.empty();
  telemetry.trace_path = run.trace_path;
  telemetry.counters_path = run.counters_path;
  const FctWorkloadResult result = RunFctWorkload(config, workload, *cdf, options);

  const std::string fabric =
      config.fabric == FabricKind::kFatTree
          ? "fat-tree(k=" + std::to_string(config.fat_tree_k) + ")"
          : std::to_string(config.num_tors) + "x" + std::to_string(config.num_spines) + "x" +
                std::to_string(config.hosts_per_tor);
  std::printf("pattern=%s cdf=%s (mean %.0f B) load=%.2f scheme=%s fabric=%s rate=%lldG "
              "window=%lldus seed=%llu\n",
              TrafficPatternName(workload.pattern), cdf->name().c_str(), cdf->MeanBytes(),
              workload.load, SchemeName(config.scheme), fabric.c_str(),
              static_cast<long long>(config.link_rate.bps() / 1'000'000'000),
              static_cast<long long>(workload.window / kMicrosecond),
              static_cast<unsigned long long>(config.seed));
  if (config.traffic_model != TrafficModelKind::kNone) {
    std::printf("background:         %s model, load %.2f, burstiness %.2f, epoch %lld us\n",
                TrafficModelKindName(config.traffic_model), config.background_load,
                config.traffic_burstiness,
                static_cast<long long>(config.traffic_epoch / kMicrosecond));
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
  if (config.scheme == Scheme::kThemis) {
    std::printf("Themis-D:           %llu NACKs seen, %llu blocked, %llu valid "
                "(%llu spurious / %llu genuine), %llu unmatched, %llu compensated\n",
                static_cast<unsigned long long>(result.themis.nacks_seen),
                static_cast<unsigned long long>(result.themis.nacks_blocked),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_valid),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_spurious),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_genuine),
                static_cast<unsigned long long>(result.themis.nacks_forwarded_unmatched),
                static_cast<unsigned long long>(result.themis.compensated_nacks));
    if (config.themis_flow_capacity > 0) {
      std::printf("flow table:         cap %llu/ToR (%s), %llu evicted, %llu aged out, "
                  "%llu rejected, %llu grace + %llu compensations resolved at eviction\n",
                  static_cast<unsigned long long>(config.themis_flow_capacity),
                  EvictionPolicyName(config.themis_aging),
                  static_cast<unsigned long long>(result.themis.flows_evicted),
                  static_cast<unsigned long long>(result.themis.flows_aged_out),
                  static_cast<unsigned long long>(result.themis.flows_rejected),
                  static_cast<unsigned long long>(result.themis.grace_evicted),
                  static_cast<unsigned long long>(result.themis.compensations_evicted));
    }
  }
  if (!result.scenario_faults.empty()) {
    std::printf("scenario:           %zu fault(s) injected (%s)\n",
                result.scenario_faults.size(),
                run.scenario.empty() ? "--set" : run.scenario.c_str());
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
    if (!run.trace_path.empty()) {
      if (result.trace_written) {
        std::printf("wrote Chrome trace to %s\n", run.trace_path.c_str());
      } else {
        status = 1;
      }
    }
    if (!run.counters_path.empty()) {
      if (result.counters_written) {
        std::printf("wrote counters CSV to %s\n", run.counters_path.c_str());
      } else {
        status = 1;
      }
    }
  }

  if (!run.csv_path.empty()) {
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
    if (!table.WriteCsv(run.csv_path)) {
      std::fprintf(stderr, "could not write %s\n", run.csv_path.c_str());
      return 1;
    }
    std::printf("wrote per-flow CSV to %s\n", run.csv_path.c_str());
  }
  return status;
}
