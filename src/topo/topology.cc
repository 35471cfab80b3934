#include "src/topo/topology.h"

#include <limits>
#include <queue>

namespace themis {
namespace {

constexpr int kUnreached = std::numeric_limits<int>::max();

}  // namespace

void BuildEqualCostRoutes(Topology& topo) {
  Network& net = *topo.net;
  const int n = net.node_count();

  // Adjacency: for each node, (neighbor node id, egress port index).
  struct Edge {
    int neighbor;
    int port;
  };
  std::vector<std::vector<Edge>> adj(static_cast<size_t>(n));
  for (const DuplexLink& link : net.links()) {
    adj[static_cast<size_t>(link.a.node->id())].push_back(Edge{link.b.node->id(), link.a.port});
    adj[static_cast<size_t>(link.b.node->id())].push_back(Edge{link.a.node->id(), link.b.port});
  }

  std::vector<int> dist(static_cast<size_t>(n));
  std::vector<int> ports;  // one switch's candidate ports, reused throughout
  for (Node* host : topo.hosts) {
    // BFS from the destination host over the whole graph.
    std::fill(dist.begin(), dist.end(), kUnreached);
    std::queue<int> frontier;
    dist[static_cast<size_t>(host->id())] = 0;
    frontier.push(host->id());
    while (!frontier.empty()) {
      const int u = frontier.front();
      frontier.pop();
      for (const Edge& e : adj[static_cast<size_t>(u)]) {
        // Hosts do not transit traffic: only the destination host itself may
        // expand (distance 0).
        Node* un = net.node(u);
        if (un->kind() == NodeKind::kHost && dist[static_cast<size_t>(u)] != 0) {
          continue;
        }
        if (dist[static_cast<size_t>(e.neighbor)] == kUnreached) {
          dist[static_cast<size_t>(e.neighbor)] = dist[static_cast<size_t>(u)] + 1;
          frontier.push(e.neighbor);
        }
      }
    }

    // Install candidate sets: at switch s, every port towards a neighbor one
    // step closer to the host is on a shortest path.
    for (Switch* sw : topo.switches) {
      const int d = dist[static_cast<size_t>(sw->id())];
      if (d == kUnreached) {
        continue;
      }
      ports.clear();
      for (const Edge& e : adj[static_cast<size_t>(sw->id())]) {
        if (dist[static_cast<size_t>(e.neighbor)] == d - 1) {
          ports.push_back(e.port);
        }
      }
      sw->SetRoute(host->id(), ports);
    }
  }
}

void InstallLoadBalancer(Topology& topo, LbKind kind, const LbParams& params) {
  for (Switch* sw : topo.switches) {
    sw->set_data_lb(MakeLoadBalancer(kind, params));
  }
}

void InstallTorLoadBalancer(Topology& topo, LbKind tor_kind, const LbParams& params) {
  for (Switch* sw : topo.switches) {
    sw->set_data_lb(MakeLoadBalancer(LbKind::kEcmp, params));
  }
  for (Switch* tor : topo.tors) {
    tor->set_data_lb(MakeLoadBalancer(tor_kind, params));
  }
}

}  // namespace themis
