// Ablation: reliable-transport generations under packet spraying
// (Sections 1-2 claims).
//
//   go-back-n — previous-generation RNICs (CX-4/5): OOO packets dropped,
//               catastrophic under spraying.
//   nic-sr    — current commodity RNICs: OOO buffered but NACKs spurious.
//   ideal     — OOO-tolerant oracle (upper bound).
//   nic-sr + Themis — the paper's system: commodity NIC behaviour with
//               in-network NACK filtering.
//
// Cases run in parallel on a SweepRunner pool; output order is fixed.
//
// The points are the `ablation-transport` grid (src/experiment_service/grids.cc);
// `sweep_cli --grid=ablation-transport` shards it.

#include "bench/grid_bench.h"

int main() { return themis::GridBenchMain("ablation-transport"); }
