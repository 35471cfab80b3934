// The one sweep harness of the grid benches (bench_fig5_*, bench_ablation_*,
// bench_chaos, bench_hybrid_fidelity): each main runs builtin grids of
// src/experiment_service/grids.cc, the grids sweep_cli shards and the tests
// merge, so the tables printed here are the CSVs those write.
//
// Collective message size: THEMIS_BENCH_MB=<n> MiB, THEMIS_FULL_SCALE=1 for
// the paper's 300 MB, else 8 MiB (SweepMessageBytes). The points run on a
// SweepRunner pool (THEMIS_SWEEP_THREADS; the output is the same for any
// value).

#ifndef THEMIS_BENCH_GRID_BENCH_H_
#define THEMIS_BENCH_GRID_BENCH_H_

#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/experiment_service/grids.h"
#include "src/stats/report.h"

namespace themis {

// Runs each builtin grid of `names` in this process, in order: prints each
// point's name (SKIPPED when it yields no row), then the grid's title and its
// rows as a Table, and names each point without a row on stderr. Returns 1 if
// a grid is unknown or any point yielded no row.
inline int GridBenchMain(std::initializer_list<const char*> names) {
  int failures = 0;
  for (const char* name : names) {
    std::string error;
    const GridDef grid = MakeBuiltinGrid(name, &error);
    if (grid.cases.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("%s: %zu points\n", grid.name.c_str(), grid.cases.size());
    const std::vector<std::vector<RowCells>> rows = RunGridRows(grid, /*threads=*/0);

    Table table(SplitCsvHeader(grid.csv_header.c_str()));
    for (size_t i = 0; i < rows.size(); ++i) {
      std::printf("%s%s\n", grid.cases[i].point.name.c_str(), rows[i].empty() ? " SKIPPED" : "");
      for (const RowCells& cells : rows[i]) {
        table.AddRow(cells);
      }
    }
    std::printf("\n=== %s ===\n", grid.title.c_str());
    table.Print();
    const std::string missing = MissingRowReport(grid, rows);
    std::fputs(missing.c_str(), stderr);
    failures += missing.empty() ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace themis

#endif  // THEMIS_BENCH_GRID_BENCH_H_
