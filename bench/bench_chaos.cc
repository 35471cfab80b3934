// Chaos campaign sweep (src/scenario): recovery time and tail inflation per
// {scheme x fault class}.
//
// For each of ECMP, RandomSpray, Themis-S and Themis-D, a clean baseline plus
// four fault campaigns — link flap (the tor-uplink-flap preset), switch
// reboot, gray failure (the gray-spine preset), asymmetric degrade — each
// reporting its recovery time (first damage -> goodput back above the
// restore fraction), drops attributed to the outage, victim-flow count, and
// the p99 slowdown inflation over that scheme's own baseline. First on a
// 4x4x4 leaf-spine at 100 Gbps (the `chaos` grid), then on a k=16 fat-tree
// (1024 hosts, 400 Gbps) under fluid background load 0.3 (`chaos-k16`): the
// hybrid engine composes with fault injection, so chaos campaigns run at a
// scale where full packet-level background would be out of CI reach.
//
// The bench exits nonzero when a baseline completes no flows or a fault
// campaign produces no fault records (it silently failed to fire); stderr
// names the scheme and the run. The points are the `chaos` and `chaos-k16`
// grids (src/experiment_service/grids.cc); `sweep_cli --grid=chaos` writes
// or shards either as CSV.

#include "bench/grid_bench.h"

int main() { return themis::GridBenchMain({"chaos", "chaos-k16"}); }
