// Figure 5b: Alltoall tail completion time — ECMP vs Adaptive Routing vs
// Themis across DCQCN (TI, TD) configurations.
//
// Paper result: Themis achieves 11.5%–40.7% lower completion time than
// Adaptive Routing across the sweep.

#include "bench/fig5_common.h"

int main() {
  return themis::benchutil::Fig5Main(themis::CollectiveKind::kAlltoall,
                                     "Fig5b-Alltoall", /*default_mib=*/8);
}
