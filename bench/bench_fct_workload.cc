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
// THEMIS_SWEEP_THREADS sets the sweep parallelism; the output is
// byte-identical for any value (cases are pure functions of their inputs,
// collected and printed in sweep order).
//
// To split the grid across machines, or to write the slowdown table as CSV,
// run it as `sweep_cli --grid=fct` (`--grid=fct-smoke` is the tiny CI
// configuration).

#include <cstdio>
#include <vector>

#include "src/core/sweep_runner.h"
#include "src/experiment_service/grids.h"
#include "src/stats/report.h"
#include "src/workload/flow_driver.h"

namespace themis {
namespace {

int FctMain() {
  const std::vector<FctCaseSpec> cases = FctGridCases(/*smoke=*/false);
  std::printf("bench_fct_workload: %zu cases (incast-heavy mix, full scale)\n", cases.size());

  SweepRunner runner;
  const std::vector<FctWorkloadResult> results = runner.Map(cases, RunFctGridCase);

  Table table(SplitCsvHeader(kFctCsvHeader));
  int failures = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const FctWorkloadResult& r = results[i];
    if (r.flows_completed == 0) {
      std::printf("%-44s FAILED: no flow completed\n", cases[i].name.c_str());
      ++failures;
      continue;
    }
    std::printf("%-44s p99 slowdown %.2f (%zu/%zu flows)\n", cases[i].name.c_str(),
                r.slowdown.p99, r.flows_completed, r.flows_total);
    table.AddRow(FctCsvCells(cases[i], r));
  }

  std::printf("\n=== FCT slowdown — incast-heavy mix (p50/p95/p99, lower is better) ===\n");
  table.Print();

  // How much p99 slowdown each Themis variant saves over the naive spray
  // baseline (the paper's motivating comparison); then the spurious-valid
  // NACKs: forwarded as valid by the Eq. 3 filter but later contradicted by
  // the original packet arriving — a PFC-delay artefact. Comparing Themis-D
  // with and without PFC shows how much of the "valid" NACK stream is really
  // pause-induced delay, not loss.
  const FctAnalysisLines analyses = FctAnalyses(cases, results);
  std::printf("\np99 slowdown relative to RandomSpray (<1.0 = better):\n");
  for (const std::string& line : analyses.p99_vs_spray) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("\nspurious-valid NACKs (forwarded as loss, original arrived later):\n");
  for (const std::string& line : analyses.spurious) {
    std::printf("%s\n", line.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace themis

int main() { return themis::FctMain(); }
