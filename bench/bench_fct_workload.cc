// FCT-slowdown benchmark: open-loop flow workloads (Poisson arrivals from an
// empirical flow-size CDF, incast-heavy mix) on a leaf-spine fabric, sweeping
// {ECMP, RandomSpray, Themis-S, Themis-D} x {load} x {distribution} and
// reporting p50/p95/p99 FCT slowdown plus goodput per case.
//
// Themis-S sprays by rewriting the UDP source port at the sender; Themis-D
// sprays at the ToR egress and filters the resulting out-of-order NACKs
// in-network. Both should tame RandomSpray's p99 slowdown: the raw spray
// baseline burns bandwidth on spurious retransmissions under incast.
//
// The case list, per-case config, and CSV cell formatting live in
// src/experiment_service/grids.cc so this bench, sweep_cli's sharded runs,
// and the shard-invariance tests all produce byte-identical tables. The
// bench adds the pretty-printed analyses on top.
//
// Env knobs:
//   THEMIS_FCT_SMOKE=1    tiny CI configuration (seconds, not minutes)
//   THEMIS_FCT_CSV=path   also write the slowdown table as CSV
//   THEMIS_SWEEP_THREADS  sweep parallelism; output is byte-identical for
//                         any value (cases are pure functions of their
//                         inputs, collected and printed in sweep order)
//
// To split the grid across machines, run it as `sweep_cli --grid=fct`.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/experiment_service/grids.h"
#include "src/workload/flow_driver.h"

namespace themis {
namespace {

struct FctOutcome {
  FctCaseSpec spec;
  FctWorkloadResult result;
};

bool SmokeMode() {
  const char* env = std::getenv("THEMIS_FCT_SMOKE");
  return env != nullptr && *env == '1';
}

int FctMain() {
  const bool smoke = SmokeMode();
  const std::vector<FctCaseSpec> cases = FctGridCases(smoke);
  std::printf("bench_fct_workload: %zu cases (incast-heavy mix, %s scale)\n", cases.size(),
              smoke ? "smoke" : "full");

  SweepRunner runner;
  const std::vector<FctOutcome> outcomes =
      runner.Map(cases, [](const FctCaseSpec& c) { return FctOutcome{c, RunFctGridCase(c)}; });

  Table table(SplitCsvHeader(kFctCsvHeader));
  int failures = 0;
  for (const FctOutcome& o : outcomes) {
    const FctWorkloadResult& r = o.result;
    if (r.flows_completed == 0) {
      std::printf("%-44s FAILED: no flow completed\n", o.spec.name.c_str());
      ++failures;
      continue;
    }
    std::printf("%-44s p99 slowdown %.2f (%zu/%zu flows)\n", o.spec.name.c_str(),
                r.slowdown.p99, r.flows_completed, r.flows_total);
    table.AddRow(FctCsvCells(o.spec, r));
  }

  std::printf("\n=== FCT slowdown — incast-heavy mix (p50/p95/p99, lower is better) ===\n");
  table.Print();

  // Per (dist, load): how much p99 slowdown each Themis variant saves over
  // the naive spray baseline (the paper's motivating comparison).
  std::printf("\np99 slowdown relative to RandomSpray (<1.0 = better):\n");
  for (const FctOutcome& base : outcomes) {
    if (base.spec.scheme.scheme != Scheme::kRandomSpray || base.result.slowdown.p99 <= 0.0) {
      continue;
    }
    for (const FctOutcome& o : outcomes) {
      if (o.spec.cdf == base.spec.cdf && o.spec.load == base.spec.load &&
          o.spec.scheme.scheme == Scheme::kThemis) {
        std::printf("  %-12s load=%.1f %-14s %.3f\n", o.spec.cdf->name().c_str(), o.spec.load,
                    o.spec.scheme.label, o.result.slowdown.p99 / base.result.slowdown.p99);
      }
    }
  }

  // Spurious-valid NACKs: forwarded as valid by the Eq. 3 filter but later
  // contradicted by the original packet arriving — a PFC-delay artefact.
  // Comparing Themis-D with and without PFC shows how much of the "valid"
  // NACK stream is really pause-induced delay, not loss.
  std::printf("\nspurious-valid NACKs (forwarded as loss, original arrived later):\n");
  for (const FctOutcome& o : outcomes) {
    if (o.spec.scheme.scheme != Scheme::kThemis ||
        o.spec.scheme.spray != SprayMode::kTorEgress) {
      continue;
    }
    const ThemisDStats& t = o.result.themis;
    std::printf(
        "  %-12s load=%.1f %-16s %llu spurious / %llu genuine of %llu valid"
        " (grace: %llu deferred, %llu cancelled, %llu expired)\n",
        o.spec.cdf->name().c_str(), o.spec.load, o.spec.scheme.label,
        static_cast<unsigned long long>(t.nacks_forwarded_spurious),
        static_cast<unsigned long long>(t.nacks_forwarded_genuine),
        static_cast<unsigned long long>(t.nacks_forwarded_valid),
        static_cast<unsigned long long>(t.grace_deferred),
        static_cast<unsigned long long>(t.grace_cancelled),
        static_cast<unsigned long long>(t.grace_expired));
  }

  if (const char* csv = std::getenv("THEMIS_FCT_CSV"); csv != nullptr && *csv != '\0') {
    if (table.WriteCsv(csv)) {
      std::printf("\nwrote %s\n", csv);
    } else {
      std::fprintf(stderr, "could not write %s\n", csv);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace themis

int main() { return themis::FctMain(); }
