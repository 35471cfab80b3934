// Ablation: sensitivity to multi-path delay variation.
//
// The paper attributes invalid NACKs to "multi-path delay variation". This
// sweep varies the per-spine propagation skew from 0 (perfectly symmetric
// fabric, reordering only from queueing) to 400 ns and shows:
//   * naive spraying + NIC-SR degrades steadily as skew grows (more OOO ->
//     more spurious NACKs -> more retransmissions and rate cuts);
//   * Themis stays flat — delay variation is exactly the signal Eq. 3
//     classifies away;
//   * adaptive routing sits in between (it reorders by queue-chasing even
//     at zero skew).
//
// The 15-point grid runs in parallel on a SweepRunner pool.
//
// The points are the `ablation-skew` grid (src/experiment_service/grids.cc);
// `sweep_cli --grid=ablation-skew` shards it.

#include "bench/grid_bench.h"

int main() { return themis::GridBenchMain({"ablation-skew"}); }
