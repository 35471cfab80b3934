// Figure 5a: Allreduce tail completion time — ECMP vs Adaptive Routing vs
// Themis across DCQCN (TI, TD) configurations.
//
// Paper result: Themis achieves 15.6%–75.3% lower completion time than
// Adaptive Routing across the sweep; ECMP is generally worst (hash
// collisions among the 16 elephant flows per group).

#include "bench/fig5_common.h"

int main() {
  return themis::benchutil::Fig5Main(themis::CollectiveKind::kAllreduce,
                                     "Fig5a-Allreduce", /*default_mib=*/8);
}
