// 3-tier fat-tree (k-ary Clos) builder, per Al-Fares et al. (SIGCOMM'08) —
// the topology the paper's Section 4 memory analysis assumes.
//
// k pods; each pod has k/2 edge (ToR) and k/2 aggregation switches; (k/2)^2
// core switches; k^3/4 hosts. Between hosts in different pods there are
// (k/2)^2 equal-cost paths; within a pod (different ToRs) there are k/2.

#ifndef THEMIS_SRC_TOPO_FAT_TREE_H_
#define THEMIS_SRC_TOPO_FAT_TREE_H_

#include "src/topo/topology.h"

namespace themis {

struct FatTreeConfig {
  int k = 4;  // switch port count; must be even
  LinkSpec host_link;
  LinkSpec fabric_link;
  // Aggregation->core link j (per aggregation switch) gets j * skew extra
  // propagation delay: multi-path delay variation for the core tier.
  TimePs core_delay_skew = 0;
  EcnProfile ecn;  // every port, host-facing and fabric
};

Topology BuildFatTree(Network& net, const FatTreeConfig& config, const HostFactory& host_factory);

}  // namespace themis

#endif  // THEMIS_SRC_TOPO_FAT_TREE_H_
