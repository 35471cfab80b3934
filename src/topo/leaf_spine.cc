#include "src/topo/leaf_spine.h"

#include <string>

#include "src/lb/ecmp_hash.h"

namespace themis {

Topology BuildLeafSpine(Network& net, const LeafSpineConfig& config,
                        const HostFactory& host_factory) {
  Topology topo;
  topo.net = &net;
  topo.equal_cost_paths = config.num_spines;

  std::vector<Switch*> tors;
  std::vector<Switch*> spines;
  tors.reserve(static_cast<size_t>(config.num_tors));
  spines.reserve(static_cast<size_t>(config.num_spines));

  for (int t = 0; t < config.num_tors; ++t) {
    Switch* tor = net.MakeNode<Switch>("tor" + std::to_string(t));
    // Distinct, deterministic per-switch hash salt.
    uint8_t salt_bytes[4] = {static_cast<uint8_t>(t), 0xA5, static_cast<uint8_t>(t >> 8), 0x3C};
    tor->set_ecmp_salt(Crc32::Hash(salt_bytes, sizeof(salt_bytes)));
    tors.push_back(tor);
    topo.switches.push_back(tor);
    topo.tors.push_back(tor);
  }
  for (int s = 0; s < config.num_spines; ++s) {
    Switch* spine = net.MakeNode<Switch>("spine" + std::to_string(s));
    uint8_t salt_bytes[4] = {static_cast<uint8_t>(s), 0x5A, static_cast<uint8_t>(s >> 8), 0xC3};
    spine->set_ecmp_salt(Crc32::Hash(salt_bytes, sizeof(salt_bytes)));
    spines.push_back(spine);
    topo.switches.push_back(spine);
  }

  // Hosts, ToR-major.
  for (int t = 0; t < config.num_tors; ++t) {
    for (int h = 0; h < config.hosts_per_tor; ++h) {
      const int ordinal = t * config.hosts_per_tor + h;
      Node* host = host_factory(net, ordinal, "host" + std::to_string(ordinal));
      DuplexLink link = net.Connect(host, tors[static_cast<size_t>(t)], config.host_link);
      tors[static_cast<size_t>(t)]->MarkHostPort(link.b.port);
      tors[static_cast<size_t>(t)]->port(link.b.port)->ecn() = config.ecn;
      topo.hosts.push_back(host);
      topo.host_tor.push_back(tors[static_cast<size_t>(t)]);
    }
  }

  // Full bipartite ToR <-> spine mesh.
  for (Switch* tor : tors) {
    for (int s = 0; s < config.num_spines; ++s) {
      Switch* spine = spines[static_cast<size_t>(s)];
      LinkSpec spec = config.fabric_link;
      spec.propagation_delay += static_cast<TimePs>(s) * config.spine_delay_skew;
      DuplexLink link = net.Connect(tor, spine, spec);
      tor->port(link.a.port)->ecn() = config.ecn;
      spine->port(link.b.port)->ecn() = config.ecn;
    }
  }

  BuildEqualCostRoutes(topo);
  // Fabric is wired: size the simulator's calendar tier to the serialization
  // quantum and delay envelope of the links just created.
  net.AutoSizeScheduler();
  return topo;
}

}  // namespace themis
