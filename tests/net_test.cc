// Unit tests for the network substrate: PSN arithmetic, packets, ports,
// queues, ECN marking, link wiring.

#include <gtest/gtest.h>

#include <vector>

#include "src/net/ecn.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/net/port.h"
#include "src/net/psn.h"

namespace themis {
namespace {

// --- PSN serial arithmetic --------------------------------------------------

TEST(PsnTest, WrapMasksTo24Bits) {
  EXPECT_EQ(PsnWrap(kPsnSpace), 0u);
  EXPECT_EQ(PsnWrap(kPsnSpace + 5), 5u);
  EXPECT_EQ(PsnWrap(0x12FFFFFF), 0xFFFFFFu);
}

TEST(PsnTest, AddWrapsForward) {
  EXPECT_EQ(PsnAdd(kPsnMask, 1), 0u);
  EXPECT_EQ(PsnAdd(kPsnMask, 2), 1u);
  EXPECT_EQ(PsnAdd(0, -1), kPsnMask);
}

TEST(PsnTest, DiffBasics) {
  EXPECT_EQ(PsnDiff(5, 3), 2);
  EXPECT_EQ(PsnDiff(3, 5), -2);
  EXPECT_EQ(PsnDiff(7, 7), 0);
}

TEST(PsnTest, DiffAcrossWrap) {
  EXPECT_EQ(PsnDiff(1, kPsnMask), 2);
  EXPECT_EQ(PsnDiff(kPsnMask, 1), -2);
}

TEST(PsnTest, ComparisonsAcrossWrap) {
  EXPECT_TRUE(PsnLt(kPsnMask, 0));
  EXPECT_TRUE(PsnGt(0, kPsnMask));
  EXPECT_TRUE(PsnLe(kPsnMask, kPsnMask));
  EXPECT_TRUE(PsnGe(5, 5));
  EXPECT_FALSE(PsnLt(5, 5));
}

TEST(PsnTest, HalfSpaceBoundary) {
  // Distance exactly 2^23 is "behind" by convention (negative).
  EXPECT_LT(PsnDiff(0, kPsnHalf), 0);
  EXPECT_GT(PsnDiff(0, kPsnHalf + 1), 0);
}

// --- Packet construction -----------------------------------------------------

TEST(PacketTest, DataPacketLayout) {
  Packet pkt = MakeDataPacket(/*flow_id=*/7, /*src=*/1, /*dst=*/2, /*psn=*/99,
                              /*payload=*/1436, /*sport=*/0xBEEF);
  EXPECT_EQ(pkt.type, PacketType::kData);
  EXPECT_EQ(pkt.flow_id, 7u);
  EXPECT_EQ(pkt.psn, 99u);
  EXPECT_EQ(pkt.payload_bytes, 1436u);
  EXPECT_EQ(pkt.wire_bytes, 1436u + kHeaderBytes);
  EXPECT_FALSE(pkt.IsControl());
}

TEST(PacketTest, DataPacketPsnMasked) {
  Packet pkt = MakeDataPacket(1, 0, 1, kPsnSpace + 3, 100, 0);
  EXPECT_EQ(pkt.psn, 3u);
}

TEST(PacketTest, ControlPacketLayout) {
  Packet nack = MakeControlPacket(PacketType::kNack, 7, 2, 1, 42, 0);
  EXPECT_TRUE(nack.IsControl());
  EXPECT_EQ(nack.wire_bytes, kControlPacketBytes);
  EXPECT_EQ(nack.psn, 42u);
  EXPECT_EQ(nack.src_host, 2);
  EXPECT_EQ(nack.dst_host, 1);
}

TEST(PacketTest, ToStringMentionsTypeAndPsn) {
  Packet pkt = MakeDataPacket(1, 0, 1, 5, 100, 0);
  const std::string s = pkt.ToString();
  EXPECT_NE(s.find("DATA"), std::string::npos);
  EXPECT_NE(s.find("psn=5"), std::string::npos);
}

// --- ECN profile -------------------------------------------------------------

TEST(EcnTest, NeverMarksBelowKmin) {
  Rng rng(1);
  EcnProfile ecn{.kmin_bytes = 1000, .kmax_bytes = 2000, .pmax = 1.0, .enabled = true};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(ecn.ShouldMark(999, rng));
  }
}

TEST(EcnTest, AlwaysMarksAtKmax) {
  Rng rng(1);
  EcnProfile ecn{.kmin_bytes = 1000, .kmax_bytes = 2000, .pmax = 0.1, .enabled = true};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ecn.ShouldMark(2000, rng));
  }
}

TEST(EcnTest, LinearRampProbability) {
  Rng rng(42);
  EcnProfile ecn{.kmin_bytes = 0, .kmax_bytes = 1000, .pmax = 0.5, .enabled = true};
  int marks = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    marks += ecn.ShouldMark(500, rng) ? 1 : 0;  // expect pmax/2 = 0.25
  }
  EXPECT_NEAR(static_cast<double>(marks) / kTrials, 0.25, 0.02);
}

TEST(EcnTest, DisabledNeverMarks) {
  Rng rng(1);
  EcnProfile ecn{.kmin_bytes = 0, .kmax_bytes = 1, .pmax = 1.0, .enabled = false};
  EXPECT_FALSE(ecn.ShouldMark(1 << 20, rng));
}

// --- Port / link behaviour ---------------------------------------------------

// Minimal sink node recording deliveries.
class SinkNode : public Node {
 public:
  SinkNode(Simulator* sim, int id, std::string name = "sink")
      : Node(sim, id, NodeKind::kHost, std::move(name)) {}
  void ReceivePacket(const Packet& pkt, int in_port) override {
    arrivals.push_back({sim()->now(), pkt, in_port});
  }
  struct Arrival {
    TimePs time;
    Packet pkt;
    int in_port;
  };
  std::vector<Arrival> arrivals;
};

struct Harness {
  Simulator sim;
  Network net{&sim};
  SinkNode* a = nullptr;
  SinkNode* b = nullptr;
  DuplexLink link;

  explicit Harness(const LinkSpec& spec = LinkSpec{}) {
    a = net.MakeNode<SinkNode>("a");
    b = net.MakeNode<SinkNode>("b");
    link = net.Connect(a, b, spec);
  }
  Port* ab() { return a->port(link.a.port); }
  Port* ba() { return b->port(link.b.port); }
};

TEST(PortTest, DeliversAfterSerializationPlusPropagation) {
  LinkSpec spec;
  spec.rate = Rate::Gbps(100);
  spec.propagation_delay = 1 * kMicrosecond;
  Harness h(spec);

  h.ab()->Send(MakeDataPacket(1, 0, 1, 0, 1436, 0));  // 1500 B wire
  h.sim.Run();

  ASSERT_EQ(h.b->arrivals.size(), 1u);
  EXPECT_EQ(h.b->arrivals[0].time, 120 * kNanosecond + kMicrosecond);
}

TEST(PortTest, BackToBackPacketsSerializeSequentially) {
  LinkSpec spec;
  spec.rate = Rate::Gbps(100);
  spec.propagation_delay = 0;
  Harness h(spec);

  for (int i = 0; i < 3; ++i) {
    h.ab()->Send(MakeDataPacket(1, 0, 1, static_cast<uint32_t>(i), 1436, 0));
  }
  h.sim.Run();

  ASSERT_EQ(h.b->arrivals.size(), 3u);
  EXPECT_EQ(h.b->arrivals[0].time, 120 * kNanosecond);
  EXPECT_EQ(h.b->arrivals[1].time, 240 * kNanosecond);
  EXPECT_EQ(h.b->arrivals[2].time, 360 * kNanosecond);
}

TEST(PortTest, PreservesFifoOrder) {
  Harness h;
  for (uint32_t i = 0; i < 50; ++i) {
    h.ab()->Send(MakeDataPacket(1, 0, 1, i, 1000, 0));
  }
  h.sim.Run();
  ASSERT_EQ(h.b->arrivals.size(), 50u);
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(h.b->arrivals[i].pkt.psn, i);
  }
}

TEST(PortTest, ControlPacketsPreemptDataQueue) {
  LinkSpec spec;
  spec.rate = Rate::Gbps(100);
  spec.propagation_delay = 0;
  Harness h(spec);

  // Three large data packets then a NACK: the NACK must jump the data queue
  // (it transmits right after the packet already on the wire).
  for (uint32_t i = 0; i < 3; ++i) {
    h.ab()->Send(MakeDataPacket(1, 0, 1, i, 1436, 0));
  }
  h.ab()->Send(MakeControlPacket(PacketType::kNack, 1, 0, 1, 0, 0));
  h.sim.Run();

  ASSERT_EQ(h.b->arrivals.size(), 4u);
  EXPECT_EQ(h.b->arrivals[1].pkt.type, PacketType::kNack);
}

TEST(PortTest, DropsWhenDataQueueFull) {
  LinkSpec spec;
  spec.rate = Rate::Gbps(1);  // slow so queue builds
  spec.queue_capacity_bytes = 3000;
  Harness h(spec);

  for (uint32_t i = 0; i < 10; ++i) {
    h.ab()->Send(MakeDataPacket(1, 0, 1, i, 1436, 0));  // 1500 B each
  }
  h.sim.Run();

  // One on the wire immediately + 2 queued (3000 B) = 3 delivered.
  EXPECT_EQ(h.b->arrivals.size(), 3u);
  EXPECT_EQ(h.ab()->stats().drops, 7u);
  EXPECT_GT(h.ab()->stats().drop_bytes, 0u);
}

TEST(PortTest, ControlPacketsNeverDropped) {
  LinkSpec spec;
  spec.rate = Rate::Gbps(1);
  spec.queue_capacity_bytes = 1500;
  Harness h(spec);

  for (uint32_t i = 0; i < 100; ++i) {
    h.ab()->Send(MakeControlPacket(PacketType::kAck, 1, 0, 1, i, 0));
  }
  h.sim.Run();
  EXPECT_EQ(h.b->arrivals.size(), 100u);
  EXPECT_EQ(h.ab()->stats().drops, 0u);
}

TEST(PortTest, FailedPortBlackholes) {
  Harness h;
  h.ab()->set_failed(true);
  h.ab()->Send(MakeDataPacket(1, 0, 1, 0, 100, 0));
  h.sim.Run();
  EXPECT_TRUE(h.b->arrivals.empty());
  EXPECT_EQ(h.ab()->stats().drops, 1u);
}

TEST(PortTest, MidFlightFailureCountsAsDrop) {
  // The packet has left the serializer and is propagating when the link
  // fails: it must be counted as a drop, not silently vanish.
  LinkSpec spec;
  spec.rate = Rate::Gbps(100);
  spec.propagation_delay = 1 * kMicrosecond;
  Harness h(spec);

  h.ab()->Send(MakeDataPacket(1, 0, 1, 0, 1436, 0));  // delivers at 1.12 us
  h.sim.ScheduleAt(500 * kNanosecond, [&h] { h.ab()->set_failed(true); });
  h.sim.Run();

  EXPECT_TRUE(h.b->arrivals.empty());
  EXPECT_EQ(h.ab()->stats().drops, 1u);
  EXPECT_EQ(h.ab()->stats().drop_bytes, 1500u);
}

TEST(PortTest, EcnMarksUnderBacklog) {
  LinkSpec spec;
  spec.rate = Rate::Gbps(1);
  spec.queue_capacity_bytes = 1 << 20;
  Harness h(spec);
  h.ab()->ecn() =
      EcnProfile{.kmin_bytes = 1000, .kmax_bytes = 2000, .pmax = 1.0, .enabled = true};

  for (uint32_t i = 0; i < 10; ++i) {
    h.ab()->Send(MakeDataPacket(1, 0, 1, i, 1436, 0));
  }
  h.sim.Run();

  ASSERT_EQ(h.b->arrivals.size(), 10u);
  // First packets saw an empty queue (no mark); later ones saw >= 2000 B.
  EXPECT_FALSE(h.b->arrivals[0].pkt.ecn_ce);
  EXPECT_TRUE(h.b->arrivals[9].pkt.ecn_ce);
  EXPECT_GT(h.ab()->stats().ecn_marks, 0u);
}

TEST(PortTest, StatsCountTxBytes) {
  Harness h;
  h.ab()->Send(MakeDataPacket(1, 0, 1, 0, 1436, 0));
  h.ab()->Send(MakeControlPacket(PacketType::kAck, 1, 0, 1, 0, 0));
  h.sim.Run();
  EXPECT_EQ(h.ab()->stats().tx_packets, 2u);
  EXPECT_EQ(h.ab()->stats().tx_bytes, 1500u + kControlPacketBytes);
  EXPECT_EQ(h.ab()->stats().tx_data_bytes, 1500u);
}

TEST(NetworkTest, ConnectCreatesBidirectionalPorts) {
  Harness h;
  EXPECT_TRUE(h.ab()->connected());
  EXPECT_TRUE(h.ba()->connected());
  EXPECT_EQ(h.ab()->peer(), h.b);
  EXPECT_EQ(h.ba()->peer(), h.a);

  h.ba()->Send(MakeDataPacket(1, 1, 0, 0, 100, 0));
  h.sim.Run();
  EXPECT_EQ(h.a->arrivals.size(), 1u);
}

TEST(PacketQueueTest, FifoOrderAcrossPushAndPop) {
  PacketArena arena;
  PacketQueue queue(&arena);
  EXPECT_TRUE(queue.empty());
  for (uint32_t psn = 0; psn < 10; ++psn) {
    queue.push_back(MakeDataPacket(1, 0, 1, psn, 100, 0));
  }
  EXPECT_EQ(queue.size(), 10u);
  for (uint32_t psn = 0; psn < 10; ++psn) {
    EXPECT_EQ(queue.front().psn, psn);
    queue.pop_front();
  }
  EXPECT_TRUE(queue.empty());
}

TEST(PacketQueueTest, ArenaRecyclesNodesAfterWarmup) {
  PacketArena arena;
  PacketQueue queue(&arena);
  // Warm-up: the first pushes carve fresh nodes from a slab.
  for (uint32_t psn = 0; psn < 8; ++psn) {
    queue.push_back(MakeDataPacket(1, 0, 1, psn, 100, 0));
  }
  queue.clear();
  EXPECT_EQ(arena.fresh_allocations(), 8u);
  EXPECT_EQ(arena.recycled_allocations(), 0u);
  EXPECT_EQ(arena.slab_count(), 1u);

  // Steady state: every further push is served from the freelist.
  for (int round = 0; round < 100; ++round) {
    for (uint32_t psn = 0; psn < 8; ++psn) {
      queue.push_back(MakeDataPacket(1, 0, 1, psn, 100, 0));
    }
    queue.clear();
  }
  EXPECT_EQ(arena.fresh_allocations(), 8u);
  EXPECT_EQ(arena.recycled_allocations(), 800u);
  EXPECT_EQ(arena.slab_count(), 1u);
}

TEST(PacketQueueTest, QueuesShareOneArena) {
  PacketArena arena;
  PacketQueue a(&arena);
  PacketQueue b(&arena);
  a.push_back(MakeDataPacket(1, 0, 1, 1, 100, 0));
  a.pop_front();
  // b's first push reuses the node a released.
  b.push_back(MakeDataPacket(1, 0, 1, 2, 100, 0));
  EXPECT_EQ(arena.fresh_allocations(), 1u);
  EXPECT_EQ(arena.recycled_allocations(), 1u);
}

TEST(PacketQueueTest, FreelistIsLifoAndPayloadSurvivesRecycling) {
  PacketArena arena;
  PacketQueue queue(&arena);
  // Free order: psn 0's node first, then psn 1's. The freelist is LIFO, so
  // the next alloc must reuse psn 1's node, then psn 0's — and the recycled
  // nodes must carry the *new* payload, nothing stale.
  queue.push_back(MakeDataPacket(1, 0, 1, 0, 100, 0));
  queue.push_back(MakeDataPacket(1, 0, 1, 1, 100, 0));
  PacketArena::Node* first = nullptr;
  PacketArena::Node* second = nullptr;
  queue.pop_front();  // frees psn 0's node
  queue.pop_front();  // frees psn 1's node (now freelist head)
  second = arena.Alloc();
  first = arena.Alloc();
  EXPECT_NE(first, second);
  EXPECT_EQ(arena.fresh_allocations(), 2u);
  EXPECT_EQ(arena.recycled_allocations(), 2u);
  arena.Free(first);
  arena.Free(second);

  queue.push_back(MakeDataPacket(2, 3, 4, 77, 512, 9));
  EXPECT_EQ(queue.front().flow_id, 2u);
  EXPECT_EQ(queue.front().psn, 77u);
  EXPECT_EQ(queue.front().payload_bytes, 512u);
  queue.clear();
}

TEST(PacketQueueTest, ArenaGrowsMidRunWithoutDisturbingLiveQueue) {
  PacketArena arena;
  PacketQueue queue(&arena);
  // 256 nodes fill the first slab; the 257th push carves a second slab while
  // the queue is live. FIFO order and payloads must hold across the slab
  // boundary.
  constexpr uint32_t kCount = 300;
  for (uint32_t psn = 0; psn < kCount; ++psn) {
    queue.push_back(MakeDataPacket(1, 0, 1, psn, 100, 0));
  }
  EXPECT_EQ(arena.slab_count(), 2u);
  EXPECT_EQ(arena.fresh_allocations(), static_cast<size_t>(kCount));
  for (uint32_t psn = 0; psn < kCount; ++psn) {
    ASSERT_FALSE(queue.empty());
    EXPECT_EQ(queue.front().psn, psn);
    queue.pop_front();
  }
  EXPECT_TRUE(queue.empty());
  // The grown arena serves everything from the freelist afterwards.
  for (uint32_t psn = 0; psn < kCount; ++psn) {
    queue.push_back(MakeDataPacket(1, 0, 1, psn, 100, 0));
  }
  EXPECT_EQ(arena.fresh_allocations(), static_cast<size_t>(kCount));
  EXPECT_EQ(arena.recycled_allocations(), static_cast<size_t>(kCount));
  EXPECT_EQ(arena.slab_count(), 2u);
}

TEST(PacketQueueTest, NetworksDoNotShareArenas) {
  // SweepRunner's determinism contract: concurrently running experiments
  // must not share any allocator state. Each Network owns its own arena.
  Simulator sim_a;
  Network net_a(&sim_a);
  Simulator sim_b;
  Network net_b(&sim_b);
  EXPECT_NE(&net_a.packet_arena(), &net_b.packet_arena());

  SinkNode* a0 = net_a.MakeNode<SinkNode>("a0");
  SinkNode* a1 = net_a.MakeNode<SinkNode>("a1");
  const DuplexLink link = net_a.Connect(a0, a1, LinkSpec{});
  a0->port(link.a.port)->Send(MakeDataPacket(1, a0->id(), a1->id(), 0, 100, 0));
  sim_a.Run();
  // Traffic in net_a never touches net_b's arena.
  EXPECT_GT(net_a.packet_arena().fresh_allocations(), 0u);
  EXPECT_EQ(net_b.packet_arena().fresh_allocations(), 0u);
}

TEST(NetworkTest, NodeIdsAreSequential) {
  Simulator sim;
  Network net(&sim);
  SinkNode* n0 = net.MakeNode<SinkNode>("x");
  SinkNode* n1 = net.MakeNode<SinkNode>("y");
  EXPECT_EQ(n0->id(), 0);
  EXPECT_EQ(n1->id(), 1);
  EXPECT_EQ(net.node_count(), 2);
  EXPECT_EQ(net.node(1), n1);
}

}  // namespace
}  // namespace themis
