// Shared driver for the Fig. 5 benchmarks (Allreduce / Alltoall tail
// completion time under DCQCN parameter sweeps).
//
// Paper setup (Section 5): 16x16 leaf-spine, 1:1 subscription, 400 Gbps
// links, 1 us delay, 64 MB switch buffers, 256 NICs in 16 groups of 16 (one
// NIC per ToR per group), all groups start the same collective at once; the
// metric is the slowest group's completion time. Schemes: ECMP, Adaptive
// Routing, Themis. DCQCN (TI, TD) in {(900,4),(300,4),(10,4),(10,50),
// (10,200)} microseconds.
//
// The sweep itself — case list, per-case config, summary-row formatting —
// lives in src/experiment_service/grids.cc (Fig5GridDef) so this bench,
// sweep_cli's sharded runs, and the merge tests agree byte-for-byte. The
// 15 points are independent single-threaded simulations, so they run in
// parallel on a SweepRunner pool (THEMIS_SWEEP_THREADS=1 forces the old
// serial behaviour); results are collected and printed in sweep order
// regardless of thread count. sweep_cli runs the same grids sharded
// (--grid=fig5-allreduce / fig5-alltoall).

#ifndef THEMIS_BENCH_FIG5_COMMON_H_
#define THEMIS_BENCH_FIG5_COMMON_H_

#include "bench/bench_common.h"
#include "src/experiment_service/grids.h"

namespace themis {
namespace benchutil {

// Runs the 15-case sweep for one collective on the thread pool.
inline int Fig5Main(CollectiveKind kind, const char* figure_name, uint64_t default_mib) {
  const uint64_t bytes = SweepMessageBytes(default_mib);
  const std::vector<Fig5CaseSpec> cases = Fig5GridCases(kind, bytes, figure_name);

  SweepRunner runner;
  std::printf("%s: %zu sweep points\n", figure_name, cases.size());
  const auto results =
      runner.Map(cases, [](const Fig5CaseSpec& c) { return RunFig5GridCase(c); });

  Table table(SplitCsvHeader(kFig5CsvHeader));
  int failures = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const Fig5Outcome& out = results[i];
    if (!out.ok) {
      std::printf("%-48s SKIPPED: %s\n", cases[i].name.c_str(), out.error.c_str());
      ++failures;
      continue;
    }
    std::printf("%-48s sim=%.3f ms\n", cases[i].name.c_str(), out.sim_seconds * 1e3);
    table.AddRow(out.cells);
  }

  std::printf("\n=== %s — tail communication completion time (%llu MiB per collective; "
              "paper uses 300 MB) ===\n",
              figure_name, static_cast<unsigned long long>(bytes >> 20));
  table.Print();
  return failures == 0 ? 0 : 1;
}

}  // namespace benchutil
}  // namespace themis

#endif  // THEMIS_BENCH_FIG5_COMMON_H_
