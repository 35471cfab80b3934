// Figure 5b: Alltoall tail completion time — ECMP vs Adaptive Routing vs
// Themis across DCQCN (TI, TD) configurations.
//
// Paper result: Themis achieves 11.5%–40.7% lower completion time than
// Adaptive Routing across the sweep.
//
// The points are the `fig5-alltoall` grid (src/experiment_service/grids.cc);
// `sweep_cli --grid=fig5-alltoall` shards it.

#include "bench/grid_bench.h"

int main() { return themis::GridBenchMain({"fig5-alltoall"}); }
