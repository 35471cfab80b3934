// The one sweep harness of the collective benches (bench_fig5_*,
// bench_ablation_*): each main runs one builtin grid of
// src/experiment_service/grids.cc, the grid sweep_cli shards and the tests
// merge, so the table printed here is the CSV those write.
//
// Message size: THEMIS_BENCH_MB=<n> MiB, THEMIS_FULL_SCALE=1 for the paper's
// 300 MB, else 8 MiB (SweepMessageBytes). The points run on a SweepRunner
// pool (THEMIS_SWEEP_THREADS; the output is the same for any value).

#ifndef THEMIS_BENCH_GRID_BENCH_H_
#define THEMIS_BENCH_GRID_BENCH_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/experiment_service/grids.h"
#include "src/stats/report.h"

namespace themis {

// Runs builtin grid `name` in this process, prints each point's name
// (SKIPPED when it yields no row), then the grid's title and its rows as a
// Table. Returns 1 if any point yielded no row.
inline int GridBenchMain(const char* name) {
  std::string error;
  const GridDef grid = MakeBuiltinGrid(name, &error);
  if (grid.cases.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("%s: %zu points\n", grid.name.c_str(), grid.cases.size());
  const std::vector<std::vector<RowCells>> rows = RunGridRows(grid, /*threads=*/0);

  Table table(SplitCsvHeader(grid.csv_header.c_str()));
  int failures = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%s%s\n", grid.cases[i].point.name.c_str(), rows[i].empty() ? " SKIPPED" : "");
    failures += rows[i].empty() ? 1 : 0;
    for (const RowCells& cells : rows[i]) {
      table.AddRow(cells);
    }
  }
  std::printf("\n=== %s ===\n", grid.title.c_str());
  table.Print();
  return failures == 0 ? 0 : 1;
}

}  // namespace themis

#endif  // THEMIS_BENCH_GRID_BENCH_H_
