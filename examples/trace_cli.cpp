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

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "examples/config_flags.h"
#include "src/telemetry/trace.h"
#include "src/workload/flow_driver.h"

namespace {

using namespace themis;

// What --set starts from, with cli::SmallLeafSpine(): 200 uniform flows.
WorkloadSpec BaseWorkload() {
  WorkloadSpec workload;
  workload.max_flows = 200;
  workload.window = 500 * kMicrosecond;
  workload.load = 0.6;
  return workload;
}

// The config structs plus the flags that are not a single field.
struct CliRun {
  ExperimentConfig config = cli::SmallLeafSpine();
  WorkloadSpec workload = BaseWorkload();
  std::string out_prefix = "trace_cli";
  uint32_t category_mask = kTraceAllCategories;
};

[[noreturn]] void Usage(int code) {
  std::printf(
      "trace_cli — replay a canned scenario and dump telemetry\n\n"
      "  --set NAME=VALUE  set a config field (listed below)\n"
      "  --out=PREFIX      output prefix; writes PREFIX.trace.json and\n"
      "                    PREFIX.counters.csv (default trace_cli)\n"
      "  --categories=S    comma list of port,rnic,themis,cc,traffic,scenario\n"
      "                    (default all)\n");
  const WorkloadSpec workload = BaseWorkload();
  cli::PrintFields(cli::SmallLeafSpine(), &workload);
  std::exit(code);
}

// A comma list of trace category names, as TraceCategoryName prints them.
uint32_t ParseCategoryMask(const std::string& spec) {
  uint32_t mask = 0;
  for (size_t pos = 0; pos <= spec.size();) {
    const size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    uint32_t bit = 0;
    for (uint32_t c = 0; c < static_cast<uint32_t>(TraceCategory::kCount); ++c) {
      bit |= item == TraceCategoryName(static_cast<TraceCategory>(c)) ? 1u << c : 0;
    }
    if (bit == 0 && !item.empty()) {
      cli::Fail("unknown trace category '" + item + "'");
    }
    mask |= bit;
  }
  return mask;
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
    } else if (cli::FlagValue(arg, "--out", &value)) {
      run.out_prefix = value;
    } else if (cli::FlagValue(arg, "--categories", &value)) {
      run.category_mask = ParseCategoryMask(value);
    } else {
      cli::Fail(std::string("unknown flag '") + arg + "' (see --help)");
    }
  }
  cli::ApplySets(sets, run.config, &run.workload);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const CliRun run = Parse(argc, argv);

  FctRunOptions options;
  FctTelemetryOptions& telemetry = options.telemetry;
  telemetry.enabled = true;
  telemetry.config.category_mask = run.category_mask;
  telemetry.config.sample_period = 5 * kMicrosecond;
  telemetry.trace_path = run.out_prefix + ".trace.json";
  telemetry.counters_path = run.out_prefix + ".counters.csv";

  const FctWorkloadResult result =
      RunFctWorkload(run.config, run.workload, FlowSizeCdf::WebSearch(), options);

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
