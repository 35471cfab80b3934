// Topology container + shortest-path equal-cost route computation.
//
// Builders (leaf_spine.h, fat_tree.h) assemble nodes and links, then call
// BuildEqualCostRoutes() which BFSes the graph from every host and installs,
// at each switch, the set of egress ports lying on *some* shortest path to
// that host — exactly the equal-cost sets ECMP fabrics use.

#ifndef THEMIS_SRC_TOPO_TOPOLOGY_H_
#define THEMIS_SRC_TOPO_TOPOLOGY_H_

#include <functional>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/topo/switch.h"

namespace themis {

// Creates one host node attached to the network. `host_ordinal` is the
// topology-level host index (0-based); implementations typically create an
// RnicHost but tests may use simpler sinks.
using HostFactory = std::function<Node*(Network& net, int host_ordinal, const std::string& name)>;

struct Topology {
  Network* net = nullptr;
  std::vector<Node*> hosts;        // index = host ordinal
  std::vector<Switch*> switches;   // all switches
  std::vector<Switch*> tors;       // host-facing (leaf) switches
  std::vector<Switch*> host_tor;   // per host ordinal: its ToR
  int equal_cost_paths = 1;        // N between cross-ToR host pairs

  // True when the two host ordinals sit under different ToRs.
  bool CrossRack(int host_a, int host_b) const {
    return host_tor[static_cast<size_t>(host_a)] != host_tor[static_cast<size_t>(host_b)];
  }
};

// Computes and installs shortest-path equal-cost routes for every host
// destination at every switch in `topo`.
void BuildEqualCostRoutes(Topology& topo);

// Installs a fresh instance of the given policy kind as the data-packet LB on
// every switch (per-switch instances: stateful policies must not be shared).
void InstallLoadBalancer(Topology& topo, LbKind kind, const LbParams& params = {});

// Installs the policy on ToRs only and plain ECMP elsewhere. PSN-based
// spraying is a ToR-only mechanism (Section 3.2: "implementation limited to
// the ToR switch"); upper tiers keep ECMP and path determinism comes from the
// rewritten entropy/egress choice at the ToR.
void InstallTorLoadBalancer(Topology& topo, LbKind tor_kind, const LbParams& params = {});

}  // namespace themis

#endif  // THEMIS_SRC_TOPO_TOPOLOGY_H_
