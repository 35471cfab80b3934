// 2-tier leaf-spine (Clos) fabric builder.
//
// `num_tors` leaves, `num_spines` spines, `hosts_per_tor` hosts per leaf.
// Every leaf connects to every spine, giving exactly `num_spines` equal-cost
// paths between hosts under different leaves — the N of paper Eq. 1. This is
// the topology of both the motivation experiment (Fig. 1) and the evaluation
// (Fig. 5, 16x16 at 400 Gbps).

#ifndef THEMIS_SRC_TOPO_LEAF_SPINE_H_
#define THEMIS_SRC_TOPO_LEAF_SPINE_H_

#include "src/topo/topology.h"

namespace themis {

struct LeafSpineConfig {
  int num_tors = 2;
  int num_spines = 4;
  int hosts_per_tor = 4;
  LinkSpec host_link;    // host <-> ToR
  LinkSpec fabric_link;  // ToR <-> spine
  // Additional propagation delay of spine s: s * spine_delay_skew. Models
  // the multi-path delay variation (cable lengths, pipeline differences)
  // that makes sprayed packets arrive out of order even without queueing.
  TimePs spine_delay_skew = 0;
  EcnProfile ecn;  // every port, host-facing and fabric
};

// Builds the fabric into `net`; hosts are created through `host_factory` in
// ordinal order (ToR-major: host h sits under ToR h / hosts_per_tor).
Topology BuildLeafSpine(Network& net, const LeafSpineConfig& config,
                        const HostFactory& host_factory);

}  // namespace themis

#endif  // THEMIS_SRC_TOPO_LEAF_SPINE_H_
