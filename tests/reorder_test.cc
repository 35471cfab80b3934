// Tests for the in-network reordering baseline (ConWeave-style, §2.3):
// hold-and-release semantics, timeout and overflow flushes, and the
// end-to-end effect of shielding NIC-SR from spray-induced OOO — plus the
// buffer-occupancy cost the paper argues makes this approach unscalable.

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/themis/reorder_buffer.h"
#include "src/topo/leaf_spine.h"

namespace themis {
namespace {

class RecordingHost : public Node {
 public:
  RecordingHost(Simulator* sim, int id, std::string name)
      : Node(sim, id, NodeKind::kHost, std::move(name)) {}
  void ReceivePacket(const Packet& pkt, int) override { received.push_back(pkt); }
  std::vector<Packet> received;
};

// Two racks, two hosts each; the hook sits on host 2's ToR, whose ports 0..1
// face hosts 2..3 and ports 2..3 face spines.
struct ReorderHarness {
  static constexpr int kSpinePort = 2;

  Simulator sim;
  Network net{&sim};
  std::vector<RecordingHost*> hosts;
  Topology topo;
  std::unique_ptr<InNetworkReorderHook> hook;
  Switch* dst_tor = nullptr;

  explicit ReorderHarness(ReorderHookConfig config = {}) {
    LeafSpineConfig topo_config;
    topo_config.num_tors = 2;
    topo_config.num_spines = 2;
    topo_config.hosts_per_tor = 2;
    topo = BuildLeafSpine(net, topo_config, [this](Network& n, int, const std::string& name) {
      RecordingHost* host = n.MakeNode<RecordingHost>(name);
      hosts.push_back(host);
      return host;
    });
    dst_tor = topo.tors[1];
    hook = std::make_unique<InNetworkReorderHook>(&sim, config);
    dst_tor->AddHook(hook.get());
  }

  void Arrive(uint32_t psn) { ArriveFlow(1, psn); }

  void ArriveFlow(uint32_t flow, uint32_t psn) {
    dst_tor->ReceivePacket(
        MakeDataPacket(flow, hosts[0]->id(), hosts[2]->id(), psn, 1000, 0x77), kSpinePort);
  }

  std::vector<uint32_t> DeliveredPsns() {
    sim.Run();
    std::vector<uint32_t> psns;
    for (const Packet& pkt : hosts[2]->received) {
      psns.push_back(pkt.psn);
    }
    return psns;
  }
};

TEST(ReorderHookTest, ReordersOutOfOrderArrivals) {
  ReorderHarness h;
  for (uint32_t psn : {0u, 2u, 1u, 4u, 3u}) {
    h.Arrive(psn);
  }
  EXPECT_EQ(h.DeliveredPsns(), (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(h.hook->stats().packets_held, 2u);
  EXPECT_EQ(h.hook->total_buffered_bytes(), 0);
}

TEST(ReorderHookTest, BuffersOnlyCrossRackFlows) {
  // A same-rack flow (host 3 -> host 2) never enters the reorder buffer: its
  // out-of-order arrivals pass straight through.
  ReorderHarness h;
  for (uint32_t psn : {0u, 2u, 1u}) {
    h.dst_tor->ReceivePacket(
        MakeDataPacket(2, h.hosts[3]->id(), h.hosts[2]->id(), psn, 1000, 0x77), /*in=*/1);
  }
  EXPECT_EQ(h.DeliveredPsns(), (std::vector<uint32_t>{0, 2, 1}));
  EXPECT_EQ(h.hook->stats().packets_held, 0u);
  EXPECT_EQ(h.hook->flow_table_stats().inserts, 0u);

  h.Arrive(0);
  h.Arrive(2);
  EXPECT_EQ(h.hook->stats().packets_held, 1u);
  EXPECT_EQ(h.hook->flow_table_stats().inserts, 1u);
}

TEST(ReorderHookTest, InOrderStreamPassesUntouched) {
  ReorderHarness h;
  for (uint32_t psn = 0; psn < 10; ++psn) {
    h.Arrive(psn);
  }
  EXPECT_EQ(h.DeliveredPsns().size(), 10u);
  EXPECT_EQ(h.hook->stats().packets_held, 0u);
}

TEST(ReorderHookTest, TimeoutFlushReleasesInOrderWithGap) {
  ReorderHookConfig config;
  config.flush_timeout = 10 * kMicrosecond;
  ReorderHarness h(config);
  h.Arrive(0);
  h.Arrive(3);  // 1 and 2 lost
  h.Arrive(2);
  const auto delivered = h.DeliveredPsns();  // runs until flush timer fires
  EXPECT_EQ(delivered, (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(h.hook->stats().timeout_flushes, 1u);
}

TEST(ReorderHookTest, ResumesAfterTimeoutFlush) {
  ReorderHookConfig config;
  config.flush_timeout = 10 * kMicrosecond;
  ReorderHarness h(config);
  h.Arrive(0);
  h.Arrive(2);  // 1 lost
  h.sim.Run();  // flush fires: 0, 2 delivered, expected -> 3
  h.Arrive(3);
  h.Arrive(4);
  EXPECT_EQ(h.DeliveredPsns(), (std::vector<uint32_t>{0, 2, 3, 4}));
}

TEST(ReorderHookTest, OverflowForcesFlush) {
  ReorderHookConfig config;
  config.per_flow_buffer_bytes = 3000;  // < 3 held packets of ~1064 B wire
  ReorderHarness h(config);
  h.Arrive(0);
  for (uint32_t psn : {5u, 4u, 3u, 2u}) {  // hole at 1 never fills
    h.Arrive(psn);
  }
  const auto delivered = h.DeliveredPsns();
  EXPECT_EQ(h.hook->stats().overflow_flushes, 1u);
  // The flush released the buffered run {3,4,5} in order and re-anchored
  // past it; the straggler 2 then passed through as "old" (exactly like a
  // late retransmission would).
  EXPECT_EQ(delivered, (std::vector<uint32_t>{0, 3, 4, 5, 2}));
}

TEST(ReorderHookTest, TracksPeakBufferOccupancy) {
  ReorderHarness h;
  h.Arrive(0);
  for (uint32_t psn = 10; psn > 1; --psn) {  // 9 OOO packets held
    h.Arrive(psn);
  }
  EXPECT_GT(h.hook->stats().max_buffered_bytes, 8 * 1000);
  h.Arrive(1);  // drains everything
  EXPECT_EQ(h.DeliveredPsns().size(), 11u);
  EXPECT_EQ(h.hook->total_buffered_bytes(), 0);
}

TEST(ReorderHookTest, DuplicatesPassThrough) {
  ReorderHarness h;
  h.Arrive(0);
  h.Arrive(1);
  h.Arrive(0);  // retransmitted duplicate
  EXPECT_EQ(h.DeliveredPsns(), (std::vector<uint32_t>{0, 1, 0}));
}

// --- Bounded per-flow state (shared FlowTable substrate) --------------------

TEST(ReorderHookTest, EvictionFlushesHeldPacketsInOrder) {
  // Capacity 1: flow 2's first packet evicts flow 1 while flow 1 still has
  // a held OOO packet and an armed flush timer. Eviction must release the
  // held data in PSN order (fail open — buffered packets are never dropped)
  // and the cancelled timer must not fire later.
  ReorderHookConfig config;
  config.flush_timeout = 10 * kMicrosecond;
  config.flow_table.capacity = 1;
  config.flow_table.policy = EvictionPolicy::kLruClock;
  ReorderHarness h(config);
  h.Arrive(0);
  h.Arrive(3);  // held: gap at 1-2
  h.Arrive(2);  // held
  h.ArriveFlow(2, 0);  // evicts flow 1 mid-hold
  EXPECT_EQ(h.hook->flow_table_stats().evictions, 1u);
  EXPECT_EQ(h.hook->stats().eviction_flushes, 1u);
  EXPECT_EQ(h.DeliveredPsns(), (std::vector<uint32_t>{0, 2, 3, 0}));
  EXPECT_EQ(h.hook->stats().timeout_flushes, 0u);  // timer died with the entry
  EXPECT_EQ(h.hook->total_buffered_bytes(), 0);
}

TEST(ReorderHookTest, RejectedFlowsPassThroughUnbuffered) {
  // kNone + full table: the surplus flow gets no reorder shielding but its
  // packets are forwarded untouched (OOO and all) — never held, never lost.
  ReorderHookConfig config;
  config.flow_table.capacity = 1;
  config.flow_table.policy = EvictionPolicy::kNone;
  ReorderHarness h(config);
  h.Arrive(0);  // flow 1 owns the only slot
  h.ArriveFlow(2, 0);
  h.ArriveFlow(2, 2);  // OOO, but untracked: passes straight through
  EXPECT_EQ(h.hook->stats().flows_rejected, 2u);
  EXPECT_EQ(h.hook->flow_table_stats().evictions, 0u);
  EXPECT_EQ(h.DeliveredPsns(), (std::vector<uint32_t>{0, 0, 2}));
  EXPECT_EQ(h.hook->stats().packets_held, 0u);
}

// --- End-to-end as a Scheme -------------------------------------------------

TEST(SprayReorderSchemeTest, ShieldsNicSrFromSprayOoo) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = Scheme::kSprayReorder;
  config.cc = CcKind::kDcqcn;
  config.dcqcn_ti = 10 * kMicrosecond;
  config.dcqcn_td = 200 * kMicrosecond;
  config.fabric_delay_skew = 200 * kNanosecond;
  Experiment exp(config);
  auto result = exp.RunCollective(CollectiveKind::kNeighborRing,
                                  {{0, 4, 1, 5}, {2, 6, 3, 7}}, 4 << 20, 10 * kSecond);
  ASSERT_TRUE(result.all_done);
  // The ToR absorbed the reordering: the NICs saw (nearly) in-order
  // streams. (Occasional timeout flushes under deep queueing may leak a
  // handful of NACKs; they must be orders of magnitude below the ~10k of
  // naked spraying.)
  EXPECT_LT(exp.TotalNacksReceived(), 100u);
  EXPECT_LT(exp.AggregateRetransmissionRatio(), 0.01);
  const ReorderHookStats stats = exp.ReorderStats();
  EXPECT_GT(stats.packets_held, 0u);
  // ...at a per-switch buffering cost orders of magnitude above Themis-D's
  // ~120 B/QP flow state (the paper's §2.3 scalability argument).
  EXPECT_GT(stats.max_total_buffered_bytes, 10 * 1024);
}

TEST(SprayReorderSchemeTest, IntraRackTrafficNotBuffered) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = Scheme::kSprayReorder;
  config.cc = CcKind::kFixedRate;
  Experiment exp(config);
  auto result =
      exp.RunCollective(CollectiveKind::kNeighborRing, {{0, 1, 2, 3}}, 1 << 20, kSecond);
  ASSERT_TRUE(result.all_done);
  EXPECT_EQ(exp.ReorderStats().packets_held, 0u);
}

}  // namespace
}  // namespace themis
