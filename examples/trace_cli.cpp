// trace_cli — replay a small canned scenario with full telemetry attached
// and dump both exporter formats. The quickest way to get a Perfetto-loadable
// trace out of the simulator without composing a workload config:
//
//   $ ./build/examples/trace_cli --out=run
//   wrote run.trace.json (load at https://ui.perfetto.dev)
//   wrote run.counters.csv
//
// The scenario is an incast-flavoured FCT workload on a small leaf-spine
// fabric under Themis spraying — enough churn to exercise every trace
// category (port queueing/ECN/PFC, RNIC send/ack/NACK/retransmit, Themis-D
// flow-table and ring ops, DCQCN rate cuts).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/telemetry/trace.h"
#include "src/workload/flow_driver.h"

namespace {

using namespace themis;

struct CliOptions {
  std::string out_prefix = "trace_cli";
  uint64_t seed = 1;
  double load = 0.6;
  int flows = 200;
  bool pfc = true;
  uint32_t category_mask = kTraceAllCategories;
};

[[noreturn]] void Usage(int code) {
  std::printf(
      "trace_cli — replay a canned scenario and dump telemetry\n\n"
      "  --out=PREFIX     output prefix; writes PREFIX.trace.json and\n"
      "                   PREFIX.counters.csv (default trace_cli)\n"
      "  --seed=N         RNG seed (default 1)\n"
      "  --load=F         offered load fraction of edge rate (default 0.6)\n"
      "  --flows=N        number of flows to generate (default 200)\n"
      "  --no-pfc         disable priority flow control\n"
      "  --categories=S   comma list of port,rnic,themis,cc (default all)\n");
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

uint32_t ParseCategoryMask(const std::string& spec) {
  uint32_t mask = 0;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string item = spec.substr(pos, comma - pos);
    if (item == "port") {
      mask |= TraceCategoryBit(TraceCategory::kPort);
    } else if (item == "rnic") {
      mask |= TraceCategoryBit(TraceCategory::kRnic);
    } else if (item == "themis") {
      mask |= TraceCategoryBit(TraceCategory::kThemis);
    } else if (item == "cc") {
      mask |= TraceCategoryBit(TraceCategory::kCc);
    } else if (!item.empty()) {
      std::fprintf(stderr, "unknown trace category '%s'\n", item.c_str());
      Usage(1);
    }
    pos = comma + 1;
  }
  return mask;
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
    } else if (ParseValue(arg, "--out", &value)) {
      opts.out_prefix = value;
    } else if (ParseValue(arg, "--seed", &value)) {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseValue(arg, "--load", &value)) {
      opts.load = std::atof(value.c_str());
    } else if (ParseValue(arg, "--flows", &value)) {
      opts.flows = std::atoi(value.c_str());
    } else if (ParseValue(arg, "--categories", &value)) {
      opts.category_mask = ParseCategoryMask(value);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      Usage(1);
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opts = Parse(argc, argv);

  if (!kTraceCompiledIn) {
    std::fprintf(stderr,
                 "trace_cli: built with THEMIS_TRACE=OFF; the trace will be "
                 "empty (counters still work)\n");
  }

  // Small fabric so the trace stays readable in a viewer: 4 ToRs x 4 spines
  // with 4 hosts each, 100G links.
  ExperimentConfig config;
  config.seed = opts.seed;
  config.num_tors = 4;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = Scheme::kThemis;
  config.transport = TransportKind::kNicSr;
  config.cc = CcKind::kDcqcn;
  config.pfc_enabled = opts.pfc;

  WorkloadSpec workload;
  workload.seed = opts.seed;
  workload.max_flows = static_cast<size_t>(opts.flows);
  workload.window = 500 * kMicrosecond;
  workload.load = opts.load;

  FctTelemetryOptions telemetry;
  telemetry.enabled = true;
  telemetry.config.category_mask = opts.category_mask;
  telemetry.config.sample_period = 5 * kMicrosecond;
  telemetry.trace_path = opts.out_prefix + ".trace.json";
  telemetry.counters_path = opts.out_prefix + ".counters.csv";

  const FctWorkloadResult result =
      RunFctWorkload(config, workload, FlowSizeCdf::WebSearch(), kTimeInfinity, telemetry);

  std::printf("flows: %zu/%zu completed, makespan %.3f ms, p99 slowdown %.2f\n",
              result.flows_completed, result.flows_total, ToMilliseconds(result.makespan),
              result.slowdown.p99);
  std::printf("trace: %llu events recorded, %llu evicted (ring full)\n",
              static_cast<unsigned long long>(result.trace_events),
              static_cast<unsigned long long>(result.trace_overwritten));
  if (result.trace_written) {
    std::printf("wrote %s (load at https://ui.perfetto.dev)\n", telemetry.trace_path.c_str());
  }
  if (result.counters_written) {
    std::printf("wrote %s\n", telemetry.counters_path.c_str());
  }
  // RunFctWorkload already named any file it could not write on stderr.
  return result.trace_written && result.counters_written ? 0 : 1;
}
