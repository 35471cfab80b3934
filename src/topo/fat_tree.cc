#include "src/topo/fat_tree.h"

#include <cassert>
#include <string>

#include "src/lb/ecmp_hash.h"

namespace themis {
namespace {

uint32_t SaltFor(uint32_t tier, uint32_t index) {
  uint8_t bytes[8] = {
      static_cast<uint8_t>(tier),        0x7E,
      static_cast<uint8_t>(index),       static_cast<uint8_t>(index >> 8),
      static_cast<uint8_t>(index >> 16), 0x1B,
      0x44,                              static_cast<uint8_t>(tier * 17),
  };
  return Crc32::Hash(bytes, sizeof(bytes));
}

}  // namespace

Topology BuildFatTree(Network& net, const FatTreeConfig& config, const HostFactory& host_factory) {
  const int k = config.k;
  assert(k >= 2 && k % 2 == 0 && "fat-tree arity must be even");
  const int half = k / 2;

  Topology topo;
  topo.net = &net;
  topo.equal_cost_paths = half * half;  // inter-pod path count

  // Core switches: (k/2)^2, organized as a half x half grid. Core (i, j)
  // connects to aggregation switch i of every pod on that aggregation
  // switch's j-th uplink.
  std::vector<Switch*> cores;
  for (int i = 0; i < half * half; ++i) {
    Switch* core = net.MakeNode<Switch>("core" + std::to_string(i));
    core->set_ecmp_salt(SaltFor(2, static_cast<uint32_t>(i)));
    cores.push_back(core);
    topo.switches.push_back(core);
  }

  for (int pod = 0; pod < k; ++pod) {
    std::vector<Switch*> aggs;
    std::vector<Switch*> edges;
    for (int a = 0; a < half; ++a) {
      Switch* agg =
          net.MakeNode<Switch>("pod" + std::to_string(pod) + "-agg" + std::to_string(a));
      agg->set_ecmp_salt(SaltFor(1, static_cast<uint32_t>(pod * half + a)));
      agg->set_hash_shift(8);  // aggregation tier consults hash bits [8, 16)
      aggs.push_back(agg);
      topo.switches.push_back(agg);
    }
    for (int e = 0; e < half; ++e) {
      Switch* edge =
          net.MakeNode<Switch>("pod" + std::to_string(pod) + "-edge" + std::to_string(e));
      edge->set_ecmp_salt(SaltFor(0, static_cast<uint32_t>(pod * half + e)));
      edges.push_back(edge);
      topo.switches.push_back(edge);
      topo.tors.push_back(edge);
    }

    // Hosts under each edge switch.
    for (int e = 0; e < half; ++e) {
      for (int h = 0; h < half; ++h) {
        const int ordinal = pod * half * half + e * half + h;
        Node* host = host_factory(net, ordinal, "host" + std::to_string(ordinal));
        DuplexLink link = net.Connect(host, edges[static_cast<size_t>(e)], config.host_link);
        edges[static_cast<size_t>(e)]->MarkHostPort(link.b.port);
        edges[static_cast<size_t>(e)]->port(link.b.port)->ecn() = config.ecn;
        topo.hosts.push_back(host);
        topo.host_tor.push_back(edges[static_cast<size_t>(e)]);
      }
    }

    // Edge <-> aggregation full mesh within the pod.
    for (Switch* edge : edges) {
      for (Switch* agg : aggs) {
        DuplexLink link = net.Connect(edge, agg, config.fabric_link);
        edge->port(link.a.port)->ecn() = config.ecn;
        agg->port(link.b.port)->ecn() = config.ecn;
      }
    }

    // Aggregation <-> core: agg a connects to cores [a*half, (a+1)*half).
    for (int a = 0; a < half; ++a) {
      for (int j = 0; j < half; ++j) {
        Switch* core = cores[static_cast<size_t>(a * half + j)];
        LinkSpec spec = config.fabric_link;
        spec.propagation_delay += static_cast<TimePs>(j) * config.core_delay_skew;
        DuplexLink link = net.Connect(aggs[static_cast<size_t>(a)], core, spec);
        aggs[static_cast<size_t>(a)]->port(link.a.port)->ecn() = config.ecn;
        core->port(link.b.port)->ecn() = config.ecn;
      }
    }
  }

  BuildEqualCostRoutes(topo);
  // Fabric is wired: size the simulator's calendar tier to the serialization
  // quantum and delay envelope of the links just created.
  net.AutoSizeScheduler();
  return topo;
}

}  // namespace themis
