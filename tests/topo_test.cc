// Tests for topology builders, equal-cost routing, and the Switch dataplane
// (hooks, host-port marking, failure filtering).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/topo/fat_tree.h"
#include "src/topo/leaf_spine.h"
#include "src/topo/switch.h"

namespace themis {
namespace {

// Host stub that records deliveries.
class StubHost : public Node {
 public:
  StubHost(Simulator* sim, int id, std::string name)
      : Node(sim, id, NodeKind::kHost, std::move(name)) {}
  void ReceivePacket(const Packet& pkt, int) override { received.push_back(pkt); }
  std::vector<Packet> received;
};

HostFactory StubFactory(std::vector<StubHost*>* out) {
  return [out](Network& net, int, const std::string& name) {
    StubHost* host = net.MakeNode<StubHost>(name);
    out->push_back(host);
    return host;
  };
}

struct LeafSpineHarness {
  Simulator sim;
  Network net{&sim};
  std::vector<StubHost*> hosts;
  Topology topo;

  LeafSpineHarness(int tors, int spines, int hosts_per_tor) {
    LeafSpineConfig config;
    config.num_tors = tors;
    config.num_spines = spines;
    config.hosts_per_tor = hosts_per_tor;
    topo = BuildLeafSpine(net, config, StubFactory(&hosts));
  }
};

TEST(LeafSpineTest, NodeAndLinkCounts) {
  LeafSpineHarness h(4, 8, 16);
  EXPECT_EQ(h.topo.hosts.size(), 64u);
  EXPECT_EQ(h.topo.switches.size(), 12u);
  EXPECT_EQ(h.topo.tors.size(), 4u);
  EXPECT_EQ(h.topo.equal_cost_paths, 8);
  // links: hosts (64) + tor-spine mesh (4*8).
  EXPECT_EQ(h.net.links().size(), 64u + 32u);
}

TEST(LeafSpineTest, HostTorAssignmentIsTorMajor) {
  LeafSpineHarness h(2, 2, 4);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(h.topo.host_tor[static_cast<size_t>(i)], h.topo.tors[static_cast<size_t>(i / 4)]);
  }
  EXPECT_TRUE(h.topo.CrossRack(0, 4));
  EXPECT_FALSE(h.topo.CrossRack(0, 3));
}

TEST(LeafSpineTest, TorHasEqualCostUplinksForRemoteHost) {
  LeafSpineHarness h(2, 4, 2);
  Switch* tor0 = h.topo.tors[0];
  // Remote host (under tor1): all 4 spine uplinks are candidates.
  EXPECT_EQ(tor0->RouteCandidates(h.topo.hosts[2]->id()).size(), 4u);
  // Local host: single host-facing port.
  EXPECT_EQ(tor0->RouteCandidates(h.topo.hosts[0]->id()).size(), 1u);
  EXPECT_TRUE(tor0->IsLastHop(h.topo.hosts[0]->id()));
  EXPECT_FALSE(tor0->IsLastHop(h.topo.hosts[2]->id()));
}

TEST(LeafSpineTest, SpineRoutesToUniqueTor) {
  LeafSpineHarness h(3, 2, 2);
  for (Switch* sw : h.topo.switches) {
    if (sw->name().rfind("spine", 0) != 0) {
      continue;
    }
    for (Node* host : h.topo.hosts) {
      EXPECT_EQ(sw->RouteCandidates(host->id()).size(), 1u)
          << sw->name() << " -> " << host->name();
    }
  }
}

TEST(LeafSpineTest, PacketReachesCrossRackDestination) {
  LeafSpineHarness h(2, 4, 2);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[3];
  src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), 0, 1000, 0x1234));
  h.sim.Run();
  ASSERT_EQ(dst->received.size(), 1u);
  EXPECT_EQ(dst->received[0].psn, 0u);
}

TEST(LeafSpineTest, IntraRackStaysLocal) {
  LeafSpineHarness h(2, 4, 2);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[1];
  src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), 0, 1000, 0x1234));
  h.sim.Run();
  ASSERT_EQ(dst->received.size(), 1u);
  // No spine carried traffic.
  for (Switch* sw : h.topo.switches) {
    if (sw->name().rfind("spine", 0) == 0) {
      EXPECT_EQ(sw->stats().forwarded, 0u);
    }
  }
}

TEST(LeafSpineTest, AllFlowsDeliveredUnderEveryLbKind) {
  for (LbKind kind : {LbKind::kEcmp, LbKind::kRandomSpray, LbKind::kAdaptive, LbKind::kFlowlet,
                      LbKind::kPsnSpray}) {
    LeafSpineHarness h(2, 4, 2);
    InstallLoadBalancer(h.topo, kind);
    StubHost* src = h.hosts[0];
    StubHost* dst = h.hosts[2];
    for (uint32_t psn = 0; psn < 40; ++psn) {
      src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), psn, 1000, 0x1234));
    }
    h.sim.Run();
    EXPECT_EQ(dst->received.size(), 40u) << LbKindName(kind);
  }
}

TEST(LeafSpineTest, PsnSprayUsesAllSpines) {
  LeafSpineHarness h(2, 4, 2);
  InstallTorLoadBalancer(h.topo, LbKind::kPsnSpray);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];
  for (uint32_t psn = 0; psn < 64; ++psn) {
    src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), psn, 1000, 0x1234));
  }
  h.sim.Run();
  for (Switch* sw : h.topo.switches) {
    if (sw->name().rfind("spine", 0) == 0) {
      EXPECT_EQ(sw->stats().forwarded, 16u) << sw->name();  // 64 / 4 exactly
    }
  }
}

TEST(LeafSpineTest, EcmpPinsFlowToOneSpine) {
  LeafSpineHarness h(2, 4, 2);
  InstallLoadBalancer(h.topo, LbKind::kEcmp);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];
  for (uint32_t psn = 0; psn < 64; ++psn) {
    src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), psn, 1000, 0x1234));
  }
  h.sim.Run();
  int spines_used = 0;
  for (Switch* sw : h.topo.switches) {
    if (sw->name().rfind("spine", 0) == 0 && sw->stats().forwarded > 0) {
      ++spines_used;
    }
  }
  EXPECT_EQ(spines_used, 1);
}

TEST(SwitchTest, FailedUplinkExcludedFromCandidates) {
  LeafSpineHarness h(2, 4, 2);
  InstallLoadBalancer(h.topo, LbKind::kRandomSpray);
  Switch* tor0 = h.topo.tors[0];
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];

  // Fail one ToR uplink; traffic must still arrive via the other three.
  auto candidates = tor0->RouteCandidates(dst->id());
  ASSERT_EQ(candidates.size(), 4u);
  candidates[0]->set_failed(true);

  for (uint32_t psn = 0; psn < 100; ++psn) {
    src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), psn, 1000, 0x1234));
  }
  h.sim.Run();
  EXPECT_EQ(dst->received.size(), 100u);
}

TEST(SwitchTest, FailedPortCountFollowsDownAndUp) {
  LeafSpineHarness h(2, 4, 2);
  InstallLoadBalancer(h.topo, LbKind::kRandomSpray);
  Switch* tor0 = h.topo.tors[0];
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];
  Port* port = tor0->RouteCandidates(dst->id())[1];
  uint32_t psn = 0;
  auto send_100 = [&] {
    for (int i = 0; i < 100; ++i) {
      src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), psn++, 1000, 0x1234));
    }
    h.sim.Run();
  };

  EXPECT_EQ(tor0->failed_ports(), 0);
  port->set_failed(true);
  port->set_failed(true);  // down twice in a row counts once
  EXPECT_EQ(tor0->failed_ports(), 1);
  send_100();
  EXPECT_EQ(port->stats().tx_packets, 0u);

  port->set_failed(false);
  EXPECT_EQ(tor0->failed_ports(), 0);
  send_100();
  const uint64_t carried = port->stats().tx_packets;
  EXPECT_GT(carried, 0u);  // back among the candidates

  port->set_failed(true);
  EXPECT_EQ(tor0->failed_ports(), 1);
  send_100();
  EXPECT_EQ(port->stats().tx_packets, carried);
  port->set_failed(false);
  EXPECT_EQ(tor0->failed_ports(), 0);
  EXPECT_EQ(dst->received.size(), 300u);
}

TEST(SwitchTest, AllUplinksFailedDropsWithStat) {
  LeafSpineHarness h(2, 2, 2);
  Switch* tor0 = h.topo.tors[0];
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];
  for (Port* port : tor0->RouteCandidates(dst->id())) {
    port->set_failed(true);
  }
  src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), 0, 1000, 0));
  h.sim.Run();
  EXPECT_TRUE(dst->received.empty());
  EXPECT_EQ(tor0->stats().no_route_drops, 1u);
}

TEST(SwitchTest, FailedUplinkSkippedAmongMoreThan64Candidates) {
  // 80 equal-cost uplinks, one failed: Forward once filtered the live ones
  // into a 64-entry array and read past it. Both hosts of tor0 send at once,
  // so in burst mode their deliveries coincide and drain as same-tick runs;
  // in either mode no packet may leave on the failed port.
  for (const bool burst : {true, false}) {
    LeafSpineHarness h(2, 80, 2);
    h.sim.set_burst_enabled(burst);
    InstallTorLoadBalancer(h.topo, LbKind::kPsnSpray);
    Switch* tor0 = h.topo.tors[0];
    const auto candidates = tor0->RouteCandidates(h.hosts[2]->id());
    ASSERT_EQ(candidates.size(), 80u);
    Port* failed = candidates[70];
    failed->set_failed(true);
    for (uint32_t psn = 0; psn < 160; ++psn) {
      for (const size_t s : {0, 1}) {
        StubHost* src = h.hosts[s];
        src->port(0)->Send(MakeDataPacket(static_cast<uint32_t>(s + 1), src->id(),
                                          h.hosts[s + 2]->id(), psn, 1000, 0x1234));
      }
    }
    h.sim.Run();
    EXPECT_EQ(failed->stats().tx_packets, 0u) << "burst=" << burst;
    EXPECT_EQ(failed->stats().drops, 0u) << "burst=" << burst;
    EXPECT_EQ(tor0->stats().no_route_drops, 0u) << "burst=" << burst;
    EXPECT_EQ(h.hosts[2]->received.size() + h.hosts[3]->received.size(), 320u);
    if (burst) {
      EXPECT_GT(h.sim.burst_stats().burst_events, h.sim.burst_stats().bursts);
    }
  }
}

TEST(SwitchTest, NoRouteDropCounted) {
  Simulator sim;
  Network net(&sim);
  Switch* sw = net.MakeNode<Switch>("lone");
  Packet pkt = MakeDataPacket(1, 100, 200, 0, 100, 0);
  sw->ReceivePacket(pkt, 0);
  EXPECT_EQ(sw->stats().no_route_drops, 1u);
}

// A hook that consumes every NACK and counts ingress calls.
class CountingHook : public SwitchHook {
 public:
  bool OnIngress(Switch&, Packet& pkt, int) override {
    ++calls;
    return pkt.type != PacketType::kNack;
  }
  int calls = 0;
};

TEST(SwitchTest, HookSeesPacketsAndCanConsume) {
  LeafSpineHarness h(2, 2, 2);
  CountingHook hook;
  h.topo.tors[0]->AddHook(&hook);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];

  src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), 0, 1000, 0));
  src->port(0)->Send(MakeControlPacket(PacketType::kNack, 1, src->id(), dst->id(), 0, 0));
  h.sim.Run();

  EXPECT_EQ(hook.calls, 2);
  ASSERT_EQ(dst->received.size(), 1u);
  EXPECT_EQ(dst->received[0].type, PacketType::kData);
  EXPECT_EQ(h.topo.tors[0]->stats().consumed_by_hook, 1u);
}

// A hook that mutates headers (models Themis-S sport rewriting).
class RewriteHook : public SwitchHook {
 public:
  bool OnIngress(Switch&, Packet& pkt, int) override {
    pkt.udp_sport = 0xAAAA;
    return true;
  }
};

TEST(SwitchTest, HookMutationPropagates) {
  LeafSpineHarness h(2, 2, 2);
  RewriteHook hook;
  h.topo.tors[0]->AddHook(&hook);
  StubHost* src = h.hosts[0];
  StubHost* dst = h.hosts[2];
  src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), 0, 1000, 0x1111));
  h.sim.Run();
  ASSERT_EQ(dst->received.size(), 1u);
  EXPECT_EQ(dst->received[0].udp_sport, 0xAAAA);
}

TEST(SwitchTest, MarkHostPortQueries) {
  Simulator sim;
  Network net(&sim);
  Switch* sw = net.MakeNode<Switch>("sw");
  sw->AddPort();
  sw->AddPort();
  sw->MarkHostPort(1);
  EXPECT_FALSE(sw->IsHostPort(0));
  EXPECT_TRUE(sw->IsHostPort(1));
  EXPECT_FALSE(sw->IsHostPort(7));
  EXPECT_FALSE(sw->IsHostPort(-1));
}

// --- Fat-tree ----------------------------------------------------------------

struct FatTreeHarness {
  Simulator sim;
  Network net{&sim};
  std::vector<StubHost*> hosts;
  Topology topo;

  explicit FatTreeHarness(int k) {
    FatTreeConfig config;
    config.k = k;
    topo = BuildFatTree(net, config, StubFactory(&hosts));
  }
};

TEST(FatTreeTest, K4Counts) {
  FatTreeHarness h(4);
  EXPECT_EQ(h.topo.hosts.size(), 16u);           // k^3/4
  EXPECT_EQ(h.topo.switches.size(), 20u);        // 4 core + 8 agg + 8 edge
  EXPECT_EQ(h.topo.tors.size(), 8u);
  EXPECT_EQ(h.topo.equal_cost_paths, 4);         // (k/2)^2
}

TEST(FatTreeTest, InterPodEqualCostPathCount) {
  FatTreeHarness h(4);
  // Edge switch: 2 uplinks toward any inter-pod host.
  Switch* edge0 = h.topo.tors[0];
  Node* remote = h.topo.hosts[15];  // last pod
  EXPECT_EQ(edge0->RouteCandidates(remote->id()).size(), 2u);
}

TEST(FatTreeTest, AllPairsReachable) {
  FatTreeHarness h(4);
  for (size_t s = 0; s < h.hosts.size(); ++s) {
    for (size_t d = 0; d < h.hosts.size(); ++d) {
      if (s == d) {
        continue;
      }
      h.hosts[s]->port(0)->Send(MakeDataPacket(static_cast<uint32_t>(s * 100 + d),
                                               h.hosts[s]->id(), h.hosts[d]->id(), 0, 100,
                                               static_cast<uint16_t>(s * 17 + d)));
    }
  }
  h.sim.Run();
  for (StubHost* host : h.hosts) {
    EXPECT_EQ(host->received.size(), h.hosts.size() - 1) << host->name();
  }
}

TEST(FatTreeTest, K16SwitchesInternTheirRouteSets) {
  // 1024 destinations per switch, a handful of distinct candidate sets: an
  // edge or aggregation switch has one set per downlink plus its uplinks,
  // a core one per pod.
  FatTreeHarness h(16);
  ASSERT_EQ(h.topo.hosts.size(), 1024u);
  for (Switch* sw : h.topo.switches) {
    const size_t want = sw->name().rfind("core", 0) == 0 ? 16u : 9u;
    EXPECT_EQ(sw->route_set_count(), want) << sw->name();
  }
}

TEST(FatTreeTest, K8Scales) {
  FatTreeHarness h(8);
  EXPECT_EQ(h.topo.hosts.size(), 128u);
  EXPECT_EQ(h.topo.equal_cost_paths, 16);
  // Spot-check one cross-pod delivery.
  h.hosts[0]->port(0)->Send(
      MakeDataPacket(1, h.hosts[0]->id(), h.hosts[127]->id(), 0, 100, 0x42));
  h.sim.Run();
  EXPECT_EQ(h.hosts[127]->received.size(), 1u);
}

// --- Route tables against a BFS reference ------------------------------------

// Hop distance from every node to `dst`; hosts other than `dst` do not
// forward. Unreached nodes stay at -1.
std::vector<int> HopsTo(const Network& net, const Node* dst) {
  std::vector<int> hops(static_cast<size_t>(net.node_count()), -1);
  std::vector<const Node*> frontier = {dst};
  hops[static_cast<size_t>(dst->id())] = 0;
  while (!frontier.empty()) {
    std::vector<const Node*> next;
    for (const Node* node : frontier) {
      if (node != dst && node->kind() == NodeKind::kHost) {
        continue;
      }
      for (int p = 0; p < node->port_count(); ++p) {
        const Port* port = node->port(p);
        if (!port->connected()) {
          continue;
        }
        int& peer_hops = hops[static_cast<size_t>(port->peer()->id())];
        if (peer_hops < 0) {
          peer_hops = hops[static_cast<size_t>(node->id())] + 1;
          next.push_back(port->peer());
        }
      }
    }
    frontier = std::move(next);
  }
  return hops;
}

// For every (switch, host): the candidates are exactly the ports towards a
// node one hop closer, in port order, and the last hop is a non-empty set
// of host-facing ports.
void ExpectRoutesMatchBfs(const Network& net, const Topology& topo) {
  for (const Node* host : topo.hosts) {
    const std::vector<int> hops = HopsTo(net, host);
    for (const Switch* sw : topo.switches) {
      const int d = hops[static_cast<size_t>(sw->id())];
      ASSERT_GT(d, 0) << sw->name();
      std::vector<const Port*> want;
      bool last_hop = true;
      for (int p = 0; p < sw->port_count(); ++p) {
        const Port* port = sw->port(p);
        if (port->connected() && hops[static_cast<size_t>(port->peer()->id())] == d - 1) {
          want.push_back(port);
          last_hop = last_hop && port->peer()->kind() == NodeKind::kHost;
        }
      }
      const auto got = sw->RouteCandidates(host->id());
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << sw->name() << " -> " << host->name();
      EXPECT_EQ(sw->IsLastHop(host->id()), !want.empty() && last_hop)
          << sw->name() << " -> " << host->name();
    }
  }
}

TEST(RouteTableTest, LeafSpineMatchesBfsReference) {
  for (const int n : {2, 16}) {
    LeafSpineHarness h(n, n, n);
    ExpectRoutesMatchBfs(h.net, h.topo);
  }
}

TEST(RouteTableTest, FatTreeMatchesBfsReference) {
  for (const int k : {4, 8}) {
    FatTreeHarness h(k);
    ExpectRoutesMatchBfs(h.net, h.topo);
  }
}

TEST(RouteTableTest, UnroutedDestinationHasNoCandidates) {
  LeafSpineHarness h(2, 2, 2);
  Switch* tor0 = h.topo.tors[0];
  for (const int dst : {-1, tor0->id(), 1 << 20}) {
    EXPECT_TRUE(tor0->RouteCandidates(dst).empty()) << dst;
    EXPECT_FALSE(tor0->IsLastHop(dst)) << dst;
  }
}

}  // namespace
}  // namespace themis
