// themis_cli — run any experiment the library supports from the command
// line, print a human summary, and optionally append a CSV row. This is the
// "swiss-army knife" a downstream user drives parameter studies with.
//
//   $ ./build/examples/themis_cli --scheme=themis --collective=alltoall \
//         --size-mb=16 --tors=8 --spines=8 --hosts-per-tor=8 \
//         --rate-gbps=400 --ti-us=55 --td-us=50 --groups=8 --csv=out.csv
//
// Run with --help for the full flag list.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "src/core/experiment.h"
#include "src/stats/report.h"
#include "src/stats/time_series.h"
#include "src/telemetry/telemetry.h"

namespace {

using namespace themis;

struct CliOptions {
  Scheme scheme = Scheme::kThemis;
  CollectiveKind collective = CollectiveKind::kAllreduce;
  TransportKind transport = TransportKind::kNicSr;
  uint64_t size_mb = 8;
  int tors = 16;
  int spines = 16;
  int hosts_per_tor = 16;
  int groups = 16;
  int64_t rate_gbps = 400;
  int64_t ti_us = 55;
  int64_t td_us = 50;
  int64_t skew_ns = 0;
  uint64_t seed = 1;
  bool pfc = true;
  bool compensation = true;
  bool grace = true;
  std::string csv_path;
  std::string trace_path;
  std::string counters_path;
};

[[noreturn]] void Usage(int code) {
  std::printf(
      "themis_cli — run a Themis packet-spraying experiment\n\n"
      "  --scheme=ecmp|ar|rps|flowlet|reorder|themis  load balancing (default themis)\n"
      "  --collective=allreduce|alltoall|allgather|reducescatter|ring|hd|broadcast\n"
      "  --transport=nic-sr|gbn|ideal|irn|multipath (default nic-sr)\n"
      "  --size-mb=N          bytes per collective (default 8)\n"
      "  --tors=N --spines=N --hosts-per-tor=N    fabric shape (default 16x16x16)\n"
      "  --groups=N           communication groups (default 16)\n"
      "  --rate-gbps=N        link speed (default 400)\n"
      "  --ti-us=N --td-us=N  DCQCN rate-increase timer / decrease interval\n"
      "  --skew-ns=N          per-spine delay skew (default 0)\n"
      "  --seed=N             RNG seed (default 1)\n"
      "  --no-pfc             disable priority flow control\n"
      "  --no-burst           scalar event dispatch (same as THEMIS_BURST=0; A/B, bisection)\n"
      "  --no-compensation    disable Themis NACK compensation\n"
      "  --no-grace           disable the pause-aware NACK grace window\n"
      "  --csv=PATH           append one result row to a CSV file\n"
      "  --trace=PATH         write a Chrome-trace JSON of sim events (load in Perfetto)\n"
      "  --counters=PATH      write sampled per-port/per-QP counters as CSV\n");
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
    } else if (ParseValue(arg, "--scheme", &value)) {
      if (value == "ecmp") {
        opts.scheme = Scheme::kEcmp;
      } else if (value == "ar" || value == "adaptive") {
        opts.scheme = Scheme::kAdaptiveRouting;
      } else if (value == "rps" || value == "spray") {
        opts.scheme = Scheme::kRandomSpray;
      } else if (value == "flowlet") {
        opts.scheme = Scheme::kFlowlet;
      } else if (value == "themis") {
        opts.scheme = Scheme::kThemis;
      } else if (value == "reorder") {
        opts.scheme = Scheme::kSprayReorder;
      } else {
        std::fprintf(stderr, "unknown scheme '%s'\n", value.c_str());
        Usage(1);
      }
    } else if (ParseValue(arg, "--collective", &value)) {
      if (value == "allreduce") {
        opts.collective = CollectiveKind::kAllreduce;
      } else if (value == "alltoall") {
        opts.collective = CollectiveKind::kAlltoall;
      } else if (value == "allgather") {
        opts.collective = CollectiveKind::kAllGather;
      } else if (value == "reducescatter") {
        opts.collective = CollectiveKind::kReduceScatter;
      } else if (value == "ring") {
        opts.collective = CollectiveKind::kNeighborRing;
      } else if (value == "hd") {
        opts.collective = CollectiveKind::kHalvingDoublingAllreduce;
      } else if (value == "broadcast") {
        opts.collective = CollectiveKind::kBroadcast;
      } else {
        std::fprintf(stderr, "unknown collective '%s'\n", value.c_str());
        Usage(1);
      }
    } else if (ParseValue(arg, "--transport", &value)) {
      if (value == "nic-sr") {
        opts.transport = TransportKind::kNicSr;
      } else if (value == "gbn") {
        opts.transport = TransportKind::kGoBackN;
      } else if (value == "ideal") {
        opts.transport = TransportKind::kIdeal;
      } else if (value == "irn") {
        opts.transport = TransportKind::kIrn;
      } else if (value == "multipath") {
        opts.transport = TransportKind::kMultipath;
      } else {
        std::fprintf(stderr, "unknown transport '%s'\n", value.c_str());
        Usage(1);
      }
    } else if (ParseValue(arg, "--size-mb", &value)) {
      opts.size_mb = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseValue(arg, "--tors", &value)) {
      opts.tors = std::atoi(value.c_str());
    } else if (ParseValue(arg, "--spines", &value)) {
      opts.spines = std::atoi(value.c_str());
    } else if (ParseValue(arg, "--hosts-per-tor", &value)) {
      opts.hosts_per_tor = std::atoi(value.c_str());
    } else if (ParseValue(arg, "--groups", &value)) {
      opts.groups = std::atoi(value.c_str());
    } else if (ParseValue(arg, "--rate-gbps", &value)) {
      opts.rate_gbps = std::atoll(value.c_str());
    } else if (ParseValue(arg, "--ti-us", &value)) {
      opts.ti_us = std::atoll(value.c_str());
    } else if (ParseValue(arg, "--td-us", &value)) {
      opts.td_us = std::atoll(value.c_str());
    } else if (ParseValue(arg, "--skew-ns", &value)) {
      opts.skew_ns = std::atoll(value.c_str());
    } else if (ParseValue(arg, "--seed", &value)) {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
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
  if (opts.groups > opts.hosts_per_tor) {
    std::fprintf(stderr, "--groups must be <= --hosts-per-tor\n");
    Usage(1);
  }
  return opts;
}

const char* CollectiveName(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kAllreduce:
      return "allreduce";
    case CollectiveKind::kAlltoall:
      return "alltoall";
    case CollectiveKind::kAllGather:
      return "allgather";
    case CollectiveKind::kReduceScatter:
      return "reducescatter";
    case CollectiveKind::kNeighborRing:
      return "ring";
    case CollectiveKind::kHalvingDoublingAllreduce:
      return "hd-allreduce";
    case CollectiveKind::kBroadcast:
      return "broadcast";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opts = Parse(argc, argv);

  ExperimentConfig config;
  config.seed = opts.seed;
  config.num_tors = opts.tors;
  config.num_spines = opts.spines;
  config.hosts_per_tor = opts.hosts_per_tor;
  config.link_rate = Rate::Gbps(opts.rate_gbps);
  config.fabric_delay_skew = opts.skew_ns * kNanosecond;
  config.scheme = opts.scheme;
  config.transport = opts.transport;
  config.cc = CcKind::kDcqcn;
  config.dcqcn_ti = opts.ti_us * kMicrosecond;
  config.dcqcn_td = opts.td_us * kMicrosecond;
  config.pfc_enabled = opts.pfc;
  config.themis_compensation = opts.compensation;
  config.themis_pause_grace = opts.grace;

  Experiment exp(config);
  std::unique_ptr<Telemetry> telemetry;
  if (!opts.trace_path.empty() || !opts.counters_path.empty()) {
    telemetry = std::make_unique<Telemetry>(&exp.sim());
    exp.AttachTelemetry(telemetry.get());
    telemetry->StartSampling();
  }
  auto groups = exp.MakeCrossRackGroups(opts.groups);
  auto result =
      exp.RunCollective(opts.collective, groups, opts.size_mb << 20, 300 * kSecond);
  if (telemetry != nullptr) {
    telemetry->StopSampling();
    telemetry->sampler().SampleNow();  // closing row at end-of-run state
  }

  std::printf("scheme=%s collective=%s transport=%s fabric=%dx%dx%d rate=%lldG size=%lluMiB "
              "groups=%d DCQCN(TI=%lldus,TD=%lldus) seed=%llu\n",
              SchemeName(opts.scheme), CollectiveName(opts.collective),
              TransportKindName(opts.transport), opts.tors, opts.spines, opts.hosts_per_tor,
              static_cast<long long>(opts.rate_gbps),
              static_cast<unsigned long long>(opts.size_mb), opts.groups,
              static_cast<long long>(opts.ti_us), static_cast<long long>(opts.td_us),
              static_cast<unsigned long long>(opts.seed));
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
              exp.SprayBalanceIndex(), opts.spines);
  if (opts.scheme == Scheme::kSprayReorder) {
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
    if (!opts.trace_path.empty()) {
      if (telemetry->WriteTrace(opts.trace_path)) {
        std::printf("wrote trace to %s\n", opts.trace_path.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", opts.trace_path.c_str());
        status = 1;
      }
    }
    if (!opts.counters_path.empty()) {
      if (telemetry->WriteCounters(opts.counters_path)) {
        std::printf("wrote counters to %s\n", opts.counters_path.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", opts.counters_path.c_str());
        status = 1;
      }
    }
  }

  if (!opts.csv_path.empty()) {
    const bool fresh = !std::ifstream(opts.csv_path).good();
    std::ofstream csv(opts.csv_path, std::ios::app);
    if (fresh) {
      csv << "scheme,collective,transport,tors,spines,hosts_per_tor,rate_gbps,size_mb,groups,"
             "ti_us,td_us,seed,tail_ms,rtx_ratio,nacks,drops,balance\n";
    }
    csv << SchemeName(opts.scheme) << ',' << CollectiveName(opts.collective) << ','
        << TransportKindName(opts.transport) << ',' << opts.tors << ',' << opts.spines << ','
        << opts.hosts_per_tor << ',' << opts.rate_gbps << ',' << opts.size_mb << ','
        << opts.groups << ',' << opts.ti_us << ',' << opts.td_us << ',' << opts.seed << ','
        << ToMilliseconds(result.tail_completion) << ',' << exp.AggregateRetransmissionRatio()
        << ',' << exp.TotalNacksReceived() << ',' << exp.TotalPortDrops() << ','
        << exp.SprayBalanceIndex() << '\n';
    std::printf("appended row to %s\n", opts.csv_path.c_str());
  }
  return status;
}
