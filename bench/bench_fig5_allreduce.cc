// Figure 5a: Allreduce tail completion time — ECMP vs Adaptive Routing vs
// Themis across DCQCN (TI, TD) configurations.
//
// Paper result: Themis achieves 15.6%–75.3% lower completion time than
// Adaptive Routing across the sweep; ECMP is generally worst (hash
// collisions among the 16 elephant flows per group).
//
// The points are the `fig5-allreduce` grid (src/experiment_service/grids.cc);
// `sweep_cli --grid=fig5-allreduce` shards it.

#include "bench/grid_bench.h"

int main() { return themis::GridBenchMain("fig5-allreduce"); }
