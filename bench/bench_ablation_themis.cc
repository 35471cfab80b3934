// Ablations of Themis's design choices (DESIGN.md experiment index):
//
//  * NACK compensation on/off under genuine packet loss (Section 3.4):
//    without compensation, a blocked NACK for a truly lost packet costs a
//    full retransmission timeout.
//  * PSN-queue capacity factor F (Section 4): undersized rings overflow and
//    force fail-open forwards.
//  * Truncated (1-byte) vs full PSN queue entries (Section 4).
//  * Spray mode: ToR egress choice (2-tier) vs PathMap sport rewrite
//    (multi-tier, Fig. 3).
//
// Each case is an independent simulation; the whole grid runs on a
// SweepRunner pool and is printed in registration order.
//
// The points are the `ablation-themis` grid (src/experiment_service/grids.cc);
// `sweep_cli --grid=ablation-themis` shards it.

#include "bench/grid_bench.h"

int main() { return themis::GridBenchMain({"ablation-themis"}); }
