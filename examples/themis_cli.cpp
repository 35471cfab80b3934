// themis_cli — run any experiment the library supports from the command
// line, print a human summary, and optionally append a CSV row. This is the
// "swiss-army knife" a downstream user drives parameter studies with.
//
//   $ ./build/examples/themis_cli --collective=alltoall --size-mb=16 --groups=8
//         --set num_tors=8 --set num_spines=8 --set hosts_per_tor=8 --csv=out.csv
//   (one line in the shell; split here for readability)
//
// Run with --help for the flags and every settable field with its default.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "examples/config_flags.h"
#include "src/core/experiment.h"
#include "src/stats/report.h"
#include "src/stats/summary.h"
#include "src/telemetry/telemetry.h"

namespace {

using namespace themis;

// What --set starts from: the paper's 16x16x16 leaf-spine at 400G running
// Themis, with DCQCN at TI=55us, TD=50us.
ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.dcqcn_ti = 55 * kMicrosecond;
  config.dcqcn_td = 50 * kMicrosecond;
  return config;
}

// Indexed by CollectiveKind; --collective takes the name the run prints.
constexpr std::string_view kCollectiveNames[] = {
    "allreduce", "alltoall", "allgather", "reducescatter", "ring", "hd-allreduce", "broadcast"};
static_assert(std::size(kCollectiveNames) == static_cast<size_t>(CollectiveKind::kBroadcast) + 1);

const char* CollectiveName(CollectiveKind kind) {
  return kCollectiveNames[static_cast<size_t>(kind)].data();
}

// The config plus the flags that are not a single field.
struct CliRun {
  ExperimentConfig config = BaseConfig();
  CollectiveKind collective = CollectiveKind::kAllreduce;
  uint64_t size_mb = 8;
  int groups = 16;
  std::string csv_path;
  std::string trace_path;
  std::string counters_path;
};

[[noreturn]] void Usage(int code) {
  std::printf(
      "themis_cli — run a Themis packet-spraying experiment\n\n"
      "  --set NAME=VALUE     set a config field (listed below)\n"
      "  --collective=allreduce|alltoall|allgather|reducescatter|ring|hd-allreduce|broadcast\n"
      "  --size-mb=N          bytes per collective (default 8)\n"
      "  --groups=N           communication groups, at most hosts_per_tor (default 16)\n"
      "  --csv=PATH           append one result row to a CSV file\n"
      "  --trace=PATH         write a Chrome-trace JSON of sim events (load in Perfetto)\n"
      "  --counters=PATH      write sampled per-port/per-QP counters as CSV\n");
  cli::PrintFields(BaseConfig(), nullptr);
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
    } else if (cli::FlagValue(arg, "--collective", &value)) {
      const auto* name = std::find(std::begin(kCollectiveNames), std::end(kCollectiveNames),
                                   value);
      if (name == std::end(kCollectiveNames)) {
        cli::Fail("unknown collective '" + value + "'");
      }
      run.collective = static_cast<CollectiveKind>(name - std::begin(kCollectiveNames));
    } else if (cli::FlagValue(arg, "--size-mb", &value)) {
      run.size_mb = cli::IntFlag<uint64_t>("--size-mb", value);
    } else if (cli::FlagValue(arg, "--groups", &value)) {
      run.groups = cli::IntFlag<int>("--groups", value);
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
  cli::ApplySets(sets, run.config, nullptr);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const CliRun run = Parse(argc, argv);
  Experiment exp(run.config);
  const ExperimentConfig& config = exp.config();  // a fat-tree's shape filled in
  if (run.groups > config.hosts_per_tor) {
    cli::Fail("--groups must be <= hosts_per_tor");
  }
  std::unique_ptr<Telemetry> telemetry;
  if (!run.trace_path.empty() || !run.counters_path.empty()) {
    telemetry = std::make_unique<Telemetry>(&exp.sim());
    exp.AttachTelemetry(telemetry.get());
    telemetry->StartSampling();
  }
  auto groups = exp.MakeCrossRackGroups(run.groups);
  auto result =
      exp.RunCollective(run.collective, groups, run.size_mb << 20, 300 * kSecond);
  if (telemetry != nullptr) {
    telemetry->StopSampling();
    telemetry->sampler().SampleNow();  // closing row at end-of-run state
  }

  const long long rate_gbps = config.link_rate.bps() / 1'000'000'000;
  const long long ti_us = config.dcqcn_ti / kMicrosecond;
  const long long td_us = config.dcqcn_td / kMicrosecond;
  std::printf("scheme=%s collective=%s transport=%s fabric=%dx%dx%d rate=%lldG size=%lluMiB "
              "groups=%d DCQCN(TI=%lldus,TD=%lldus) seed=%llu\n",
              SchemeName(config.scheme), CollectiveName(run.collective),
              TransportKindName(config.transport), config.num_tors, config.num_spines,
              config.hosts_per_tor, rate_gbps, static_cast<unsigned long long>(run.size_mb),
              run.groups, ti_us, td_us, static_cast<unsigned long long>(config.seed));
  if (!result.all_done) {
    std::printf("DID NOT FINISH before deadline\n");
    return 2;
  }

  const auto fct = ScalarSummary::Of(exp.FlowCompletionTimesMs());
  std::printf("tail completion:    %.3f ms\n", ToMilliseconds(result.tail_completion));
  std::printf("flow completion:    mean %.3f ms, max %.3f ms (%zu flows)\n", fct.mean, fct.max,
              fct.count);
  std::printf("retransmissions:    %.4f of sent bytes\n", exp.AggregateRetransmissionRatio());
  std::printf("NACKs at senders:   %llu\n",
              static_cast<unsigned long long>(exp.TotalNacksReceived()));
  std::printf("drops / timeouts:   %llu / %llu\n",
              static_cast<unsigned long long>(exp.TotalPortDrops()),
              static_cast<unsigned long long>(exp.TotalTimeouts()));
  std::printf("PFC pauses:         %llu\n",
              static_cast<unsigned long long>(exp.TotalPfcPauses()));
  std::printf("spray balance:      %.4f (Jain index across %d spines)\n",
              exp.SprayBalanceIndex(), config.num_spines);
  if (config.scheme == Scheme::kSprayReorder) {
    const ReorderHookStats r = exp.ReorderStats();
    std::printf("ToR reorder buffer:  %llu held, peak %lld B/flow, %lld B/switch, "
                "%llu timeout + %llu overflow flushes\n",
                static_cast<unsigned long long>(r.packets_held),
                static_cast<long long>(r.max_buffered_bytes),
                static_cast<long long>(r.max_total_buffered_bytes),
                static_cast<unsigned long long>(r.timeout_flushes),
                static_cast<unsigned long long>(r.overflow_flushes));
  }
  if (exp.themis() != nullptr) {
    const ThemisDStats t = exp.themis()->AggregateDStats();
    std::printf("Themis-D:           %llu NACKs seen, %llu blocked, %llu valid "
                "(%llu spurious / %llu genuine), %llu compensated\n",
                static_cast<unsigned long long>(t.nacks_seen),
                static_cast<unsigned long long>(t.nacks_blocked),
                static_cast<unsigned long long>(t.nacks_forwarded_valid),
                static_cast<unsigned long long>(t.nacks_forwarded_spurious),
                static_cast<unsigned long long>(t.nacks_forwarded_genuine),
                static_cast<unsigned long long>(t.compensated_nacks));
  }

  // A failed telemetry export makes the run exit non-zero once the
  // remaining output is written.
  int status = 0;
  if (telemetry != nullptr) {
    std::printf("telemetry:          %llu events recorded, %llu evicted\n",
                static_cast<unsigned long long>(telemetry->trace().recorded()),
                static_cast<unsigned long long>(telemetry->trace().overwritten()));
    if (!run.trace_path.empty()) {
      if (telemetry->WriteTrace(run.trace_path)) {
        std::printf("wrote trace to %s\n", run.trace_path.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", run.trace_path.c_str());
        status = 1;
      }
    }
    if (!run.counters_path.empty()) {
      if (telemetry->WriteCounters(run.counters_path)) {
        std::printf("wrote counters to %s\n", run.counters_path.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", run.counters_path.c_str());
        status = 1;
      }
    }
  }

  if (!run.csv_path.empty()) {
    const bool fresh = !std::ifstream(run.csv_path).good();
    std::ofstream csv(run.csv_path, std::ios::app);
    if (fresh) {
      csv << "scheme,collective,transport,tors,spines,hosts_per_tor,rate_gbps,size_mb,groups,"
             "ti_us,td_us,seed,tail_ms,rtx_ratio,nacks,drops,balance\n";
    }
    csv << SchemeName(config.scheme) << ',' << CollectiveName(run.collective) << ','
        << TransportKindName(config.transport) << ',' << config.num_tors << ','
        << config.num_spines << ',' << config.hosts_per_tor << ',' << rate_gbps << ','
        << run.size_mb << ',' << run.groups << ',' << ti_us << ',' << td_us << ','
        << config.seed << ','
        << ToMilliseconds(result.tail_completion) << ',' << exp.AggregateRetransmissionRatio()
        << ',' << exp.TotalNacksReceived() << ',' << exp.TotalPortDrops() << ','
        << exp.SprayBalanceIndex() << '\n';
    csv.flush();
    if (csv) {
      std::printf("appended row to %s\n", run.csv_path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", run.csv_path.c_str());
      status = 1;
    }
  }
  return status;
}
