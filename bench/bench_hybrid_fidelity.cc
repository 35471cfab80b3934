// Hybrid-fidelity validation + 1024-host scale sweep (src/traffic).
//
// Validation: on a 2x2x2 leaf-spine where full packet-level simulation is
// cheap, runs the same foreground workload four ways at background loads 0.2
// and 0.4 —
//   baseline   no background at all,
//   full       background as real packet flows (the ground truth),
//   fluid      analytical M/M/1 background model,
//   trace      replay of per-port pressure recorded from a background-only
//              full-fidelity run (the calibration loop)
// — and reports p50/p99 slowdown plus the KS distance between each hybrid's
// slowdown CDF and the full run's. The bench exits nonzero, and stderr names
// the variant and the value, if a hybrid leaves the documented tolerance
// band (EXPERIMENTS.md "Hybrid fidelity"), so CI gates on it.
//
// Scale: a 1024-host fat-tree (k = 16) foreground FCT sweep over {ECMP,
// RandomSpray, Themis-S, Themis-D} under fluid background load 0.4 — the run
// the hybrid engine exists for: full packet-level background at this scale
// is out of CI reach, the model costs one timer event per 5 us.
//
// The points are the `hybrid` grid (src/experiment_service/grids.cc);
// `sweep_cli --grid=hybrid` writes or shards it as CSV.

#include "bench/grid_bench.h"

int main() { return themis::GridBenchMain({"hybrid"}); }
