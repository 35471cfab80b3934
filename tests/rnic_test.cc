// Unit tests for the RNIC model: packetization, pacing, NIC-SR / GBN /
// ideal receiver behaviour, NACK semantics (one per ePSN), retransmission,
// RTO, CNP generation, the NIC scheduler, and the per-PSN ring.

#include <gtest/gtest.h>

#include <set>

#include "src/net/network.h"
#include "src/rnic/psn_ring.h"
#include "src/rnic/rnic_host.h"
#include "src/topo/leaf_spine.h"

namespace themis {
namespace {

struct RnicHarness {
  Simulator sim;
  Network net{&sim};
  RnicHost* a = nullptr;
  RnicHost* b = nullptr;

  explicit RnicHarness(Rate rate = Rate::Gbps(100), TimePs delay = 1 * kMicrosecond) {
    a = net.MakeNode<RnicHost>("a");
    b = net.MakeNode<RnicHost>("b");
    LinkSpec spec;
    spec.rate = rate;
    spec.propagation_delay = delay;
    spec.queue_capacity_bytes = 8 << 20;
    net.Connect(a, b, spec);
  }

  static QpConfig Config(TransportKind transport = TransportKind::kNicSr) {
    QpConfig config;
    config.transport = transport;
    config.cc = CcKind::kFixedRate;
    config.fixed_rate = Rate::Gbps(100);
    config.mtu_bytes = 1500;
    return config;
  }

  struct Flow {
    SenderQp* tx;
    ReceiverQp* rx;
  };

  Flow MakeFlow(uint32_t flow_id, const QpConfig& config) {
    return Flow{a->CreateSenderQp(flow_id, b->id(), config),
                b->CreateReceiverQp(flow_id, a->id(), config)};
  }

  // For tests that pull packets from the QP by hand: the host's autonomous
  // scheduler must not race with the test.
  Flow MakeManualFlow(uint32_t flow_id, const QpConfig& config) {
    a->set_auto_schedule(false);
    return MakeFlow(flow_id, config);
  }
};

constexpr uint32_t kMtuPayload = 1500 - kHeaderBytes;  // 1436

// --- PSN ring ------------------------------------------------------------------

TEST(PsnRingTest, AllocatesNothingUntilFirstReserve) {
  PsnRing ring;
  EXPECT_EQ(ring.size(), 0u);
  ring.Reserve(1, 0, 0);
  EXPECT_EQ(ring.size(), PsnRing::kMinSize);
  ring.Reserve(PsnRing::kMinSize, 0, 0);  // fits: no growth
  EXPECT_EQ(ring.size(), PsnRing::kMinSize);
}

TEST(PsnRingTest, GrowthAcrossPsnWrapMovesEveryLivePsn) {
  // Live PSNs 2^24 - 3 ... 2 straddle the 24-bit wrap.
  const uint32_t first = kPsnSpace - 3;
  constexpr uint32_t kLive = 6;
  PsnRing ring;
  ring.Reserve(kLive, first, 0);
  ASSERT_EQ(ring.size(), PsnRing::kMinSize);
  // Stale contents in every other slot must not survive a growth.
  for (uint32_t slot = 0; slot < ring.size(); ++slot) {
    ring[slot] = PsnSlot{999, 0x80};
  }
  for (uint32_t i = 0; i < kLive; ++i) {
    ring[PsnAdd(first, i)] = PsnSlot{i + 1, static_cast<uint8_t>(i)};
  }
  for (const uint32_t needed : {PsnRing::kMinSize + 1, uint32_t{1} << 20}) {
    ring.Reserve(needed, first, kLive);
    ASSERT_GE(ring.size(), needed);
    ASSERT_EQ(ring.size() & (ring.size() - 1), 0u) << "not a power of two";
    // Slot index == PSN mod size: the run stays consecutive across the wrap
    // (slots size-3 .. size-1, then 0 .. 2).
    for (uint32_t slot = 0; slot < ring.size(); ++slot) {
      const uint32_t offset = (slot - first) & (ring.size() - 1);
      const PsnSlot expected =
          offset < kLive ? PsnSlot{offset + 1, static_cast<uint8_t>(offset)} : PsnSlot{};
      ASSERT_EQ(ring[slot].payload, expected.payload) << "slot " << slot << " size " << ring.size();
      ASSERT_EQ(ring[slot].flags, expected.flags) << "slot " << slot << " size " << ring.size();
    }
  }
}

// --- Sender packetization ----------------------------------------------------

TEST(SenderQpTest, SegmentsMessageIntoMtuPackets) {
  RnicHarness h;
  auto flow = h.MakeManualFlow(1, RnicHarness::Config());
  flow.tx->PostMessage(3 * kMtuPayload + 100, nullptr);

  std::vector<Packet> pkts;
  while (flow.tx->HasWork()) {
    pkts.push_back(flow.tx->DequeuePacket());
  }
  ASSERT_EQ(pkts.size(), 4u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pkts[i].psn, i);
  }
  EXPECT_EQ(pkts[0].payload_bytes, kMtuPayload);
  EXPECT_EQ(pkts[3].payload_bytes, 100u);  // short tail packet
  EXPECT_EQ(flow.tx->snd_nxt(), 4u);
}

TEST(SenderQpTest, ZeroByteMessageCompletesImmediately) {
  RnicHarness h;
  auto flow = h.MakeManualFlow(1, RnicHarness::Config());
  bool done = false;
  flow.tx->PostMessage(0, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_FALSE(flow.tx->HasWork());
}

TEST(SenderQpTest, WindowLimitsOutstandingBytes) {
  RnicHarness h;
  QpConfig config = RnicHarness::Config();
  config.max_unacked_bytes = 3 * kMtuPayload;
  auto flow = h.MakeManualFlow(1, config);
  flow.tx->PostMessage(100 * kMtuPayload, nullptr);

  int sent = 0;
  while (flow.tx->HasWork()) {
    flow.tx->DequeuePacket();
    ++sent;
  }
  EXPECT_EQ(sent, 3);  // window closed

  // Cumulative ACK for one packet reopens the window.
  flow.tx->HandleAck(MakeControlPacket(PacketType::kAck, 1, h.b->id(), h.a->id(), 1, 0));
  EXPECT_TRUE(flow.tx->HasWork());
}

TEST(SenderQpTest, CumulativeAckFiresCompletion) {
  RnicHarness h;
  auto flow = h.MakeManualFlow(1, RnicHarness::Config());
  bool done = false;
  flow.tx->PostMessage(2 * kMtuPayload, [&] { done = true; });
  flow.tx->DequeuePacket();
  flow.tx->DequeuePacket();
  EXPECT_FALSE(done);

  flow.tx->HandleAck(MakeControlPacket(PacketType::kAck, 1, h.b->id(), h.a->id(), 2, 0));
  EXPECT_TRUE(done);
  EXPECT_TRUE(flow.tx->AllCompleted());
  EXPECT_EQ(flow.tx->unacked_bytes(), 0);
}

TEST(SenderQpTest, SelectiveRepeatRetransmitsOnlyNackedPsn) {
  RnicHarness h;
  auto flow = h.MakeManualFlow(1, RnicHarness::Config(TransportKind::kNicSr));
  flow.tx->PostMessage(5 * kMtuPayload, nullptr);
  for (int i = 0; i < 5; ++i) {
    flow.tx->DequeuePacket();
  }
  EXPECT_FALSE(flow.tx->HasWork());

  flow.tx->HandleNack(MakeControlPacket(PacketType::kNack, 1, h.b->id(), h.a->id(), 2, 0));
  ASSERT_TRUE(flow.tx->HasWork());
  Packet rtx = flow.tx->DequeuePacket();
  EXPECT_EQ(rtx.psn, 2u);
  EXPECT_TRUE(rtx.retransmission);
  EXPECT_FALSE(flow.tx->HasWork());  // only one packet retransmitted
  EXPECT_EQ(flow.tx->stats().rtx_packets, 1u);
}

TEST(SenderQpTest, GoBackNRetransmitsTail) {
  RnicHarness h;
  auto flow = h.MakeManualFlow(1, RnicHarness::Config(TransportKind::kGoBackN));
  flow.tx->PostMessage(5 * kMtuPayload, nullptr);
  for (int i = 0; i < 5; ++i) {
    flow.tx->DequeuePacket();
  }
  flow.tx->HandleNack(MakeControlPacket(PacketType::kNack, 1, h.b->id(), h.a->id(), 2, 0));

  std::vector<uint32_t> rtx_psns;
  while (flow.tx->HasWork()) {
    rtx_psns.push_back(flow.tx->DequeuePacket().psn);
  }
  EXPECT_EQ(rtx_psns, (std::vector<uint32_t>{2, 3, 4}));
}

TEST(SenderQpTest, NackCumulativelyAcknowledges) {
  RnicHarness h;
  auto flow = h.MakeManualFlow(1, RnicHarness::Config());
  flow.tx->PostMessage(5 * kMtuPayload, nullptr);
  for (int i = 0; i < 5; ++i) {
    flow.tx->DequeuePacket();
  }
  flow.tx->HandleNack(MakeControlPacket(PacketType::kNack, 1, h.b->id(), h.a->id(), 3, 0));
  EXPECT_EQ(flow.tx->snd_una(), 3u);
}

TEST(SenderQpTest, DuplicateNackDoesNotDuplicateRetransmit) {
  RnicHarness h;
  auto flow = h.MakeManualFlow(1, RnicHarness::Config());
  flow.tx->PostMessage(5 * kMtuPayload, nullptr);
  for (int i = 0; i < 5; ++i) {
    flow.tx->DequeuePacket();
  }
  flow.tx->HandleNack(MakeControlPacket(PacketType::kNack, 1, h.b->id(), h.a->id(), 2, 0));
  flow.tx->HandleNack(MakeControlPacket(PacketType::kNack, 1, h.b->id(), h.a->id(), 2, 0));
  int rtx = 0;
  while (flow.tx->HasWork()) {
    flow.tx->DequeuePacket();
    ++rtx;
  }
  EXPECT_EQ(rtx, 1);
}

TEST(SenderQpTest, AckedPsnNotRetransmitted) {
  RnicHarness h;
  auto flow = h.MakeManualFlow(1, RnicHarness::Config());
  flow.tx->PostMessage(5 * kMtuPayload, nullptr);
  for (int i = 0; i < 5; ++i) {
    flow.tx->DequeuePacket();
  }
  flow.tx->HandleNack(MakeControlPacket(PacketType::kNack, 1, h.b->id(), h.a->id(), 2, 0));
  // ACK covering psn 2 arrives before the retransmit leaves.
  flow.tx->HandleAck(MakeControlPacket(PacketType::kAck, 1, h.b->id(), h.a->id(), 5, 0));
  EXPECT_FALSE(flow.tx->HasWork());
}

TEST(SenderQpTest, NackCutsDcqcnRate) {
  RnicHarness h;
  QpConfig config = RnicHarness::Config();
  config.cc = CcKind::kDcqcn;
  config.dcqcn.line_rate = Rate::Gbps(100);
  auto flow = h.MakeManualFlow(1, config);
  flow.tx->PostMessage(5 * kMtuPayload, nullptr);
  for (int i = 0; i < 5; ++i) {
    flow.tx->DequeuePacket();
  }
  EXPECT_EQ(flow.tx->cc().rate(), Rate::Gbps(100));
  flow.tx->HandleNack(MakeControlPacket(PacketType::kNack, 1, h.b->id(), h.a->id(), 2, 0));
  EXPECT_EQ(flow.tx->cc().rate(), Rate::Gbps(50));
}

TEST(SenderQpTest, PacingGapMatchesCcRate) {
  RnicHarness h;
  QpConfig config = RnicHarness::Config();
  config.fixed_rate = Rate::Gbps(50);  // half the 100G line
  auto flow = h.MakeManualFlow(1, config);
  flow.tx->PostMessage(2 * kMtuPayload, nullptr);
  flow.tx->DequeuePacket();
  // 1500 B at 50 Gbps = 240 ns pacing gap.
  EXPECT_EQ(flow.tx->next_eligible(), h.sim.now() + 240 * kNanosecond);
}

TEST(SenderQpTest, RtoRetransmitsOldestUnacked) {
  RnicHarness h;
  QpConfig config = RnicHarness::Config();
  config.retransmit_timeout = 100 * kMicrosecond;
  auto flow = h.MakeManualFlow(1, config);
  flow.tx->PostMessage(2 * kMtuPayload, nullptr);
  flow.tx->DequeuePacket();
  flow.tx->DequeuePacket();

  h.sim.RunUntil(150 * kMicrosecond);
  ASSERT_TRUE(flow.tx->HasWork());
  EXPECT_EQ(flow.tx->DequeuePacket().psn, 0u);
  EXPECT_EQ(flow.tx->stats().timeouts, 1u);
}

TEST(SenderQpTest, NoRtoAfterFullAck) {
  RnicHarness h;
  QpConfig config = RnicHarness::Config();
  config.retransmit_timeout = 100 * kMicrosecond;
  auto flow = h.MakeManualFlow(1, config);
  flow.tx->PostMessage(kMtuPayload, nullptr);
  flow.tx->DequeuePacket();
  flow.tx->HandleAck(MakeControlPacket(PacketType::kAck, 1, h.b->id(), h.a->id(), 1, 0));
  h.sim.RunUntil(kMillisecond);
  EXPECT_EQ(flow.tx->stats().timeouts, 0u);
  EXPECT_FALSE(flow.tx->HasWork());
}

TEST(SenderQpTest, AckPastSndNxtCoversOnlySentPackets) {
  // A receiver fed data this QP never sent acknowledges past snd_nxt. The
  // acknowledgment covers only what was sent: snd_una stops at snd_nxt, only
  // the in-flight bytes are credited, and the unsent rest of the message
  // still goes out and completes on its own acknowledgment.
  RnicHarness h;
  auto flow = h.MakeManualFlow(1, RnicHarness::Config());
  flow.tx->HandleAck(MakeControlPacket(PacketType::kAck, 1, h.b->id(), h.a->id(), 3, 0));
  EXPECT_EQ(flow.tx->snd_una(), 0u);  // nothing ever sent: nothing covered
  EXPECT_EQ(flow.tx->snd_nxt(), 0u);
  EXPECT_EQ(flow.tx->unacked_bytes(), 0);

  RnicHarness h2;
  auto flow2 = h2.MakeManualFlow(1, RnicHarness::Config());
  bool done = false;
  flow2.tx->PostMessage(3 * kMtuPayload + 10, [&] { done = true; });
  for (int i = 0; i < 3; ++i) {
    flow2.tx->DequeuePacket();
  }
  EXPECT_EQ(flow2.tx->unacked_bytes(), int64_t{3} * kMtuPayload);
  flow2.tx->HandleAck(MakeControlPacket(PacketType::kAck, 1, h2.b->id(), h2.a->id(), 10, 0));
  EXPECT_EQ(flow2.tx->snd_una(), 3u);
  EXPECT_EQ(flow2.tx->snd_nxt(), 3u);
  EXPECT_EQ(flow2.tx->unacked_bytes(), 0);
  EXPECT_FALSE(done);  // the message's last packet is still unsent

  // The last packet goes out fresh as PSN 3, and its acknowledgment
  // completes the message.
  const Packet last = flow2.tx->DequeuePacket();
  EXPECT_EQ(last.psn, 3u);
  EXPECT_FALSE(last.retransmission);
  EXPECT_EQ(flow2.tx->unacked_bytes(), 10);
  flow2.tx->HandleAck(MakeControlPacket(PacketType::kAck, 1, h2.b->id(), h2.a->id(), 4, 0));
  EXPECT_EQ(flow2.tx->snd_una(), 4u);
  EXPECT_EQ(flow2.tx->unacked_bytes(), 0);
  EXPECT_TRUE(done);
  h2.sim.RunUntil(10 * kMillisecond);
  EXPECT_EQ(flow2.tx->stats().timeouts, 0u);
}

TEST(SenderQpTest, RingGrowthKeepsIrnRetransmittedOnceFlags) {
  for (const uint32_t in_flight : {100u, 20'000u}) {
    RnicHarness h;
    QpConfig config = RnicHarness::Config(TransportKind::kIrn);
    config.max_unacked_bytes = int64_t{1} << 40;
    auto flow = h.MakeManualFlow(1, config);
    flow.tx->PostMessage(uint64_t{in_flight} * kMtuPayload, nullptr);
    for (int i = 0; i < 60; ++i) {
      flow.tx->DequeuePacket();  // within the first 64-slot ring
    }
    Packet nack = MakeControlPacket(PacketType::kNack, 1, h.b->id(), h.a->id(), 1, 0);
    nack.aux_psn = 10;
    flow.tx->HandleNack(nack);
    for (uint32_t psn = 1; psn < 10; ++psn) {
      const Packet pkt = flow.tx->DequeuePacket();
      EXPECT_TRUE(pkt.retransmission);
      EXPECT_EQ(pkt.psn, psn);
    }
    while (flow.tx->snd_nxt() != in_flight) {
      EXPECT_FALSE(flow.tx->DequeuePacket().retransmission);  // grows the ring
    }
    EXPECT_EQ(flow.tx->unacked_bytes(), int64_t{in_flight - 1} * kMtuPayload) << in_flight;

    flow.tx->HandleNack(nack);  // [1, 10) was retransmitted once already
    EXPECT_FALSE(flow.tx->HasWork()) << in_flight;
    nack.aux_psn = 12;
    flow.tx->HandleNack(nack);
    std::vector<uint32_t> rtx;
    while (flow.tx->HasWork()) {
      rtx.push_back(flow.tx->DequeuePacket().psn);
    }
    EXPECT_EQ(rtx, (std::vector<uint32_t>{10, 11})) << in_flight;

    // A gap at the far end of the grown ring; the NACK acknowledges the rest.
    nack.psn = in_flight - 3;
    nack.aux_psn = in_flight;
    flow.tx->HandleNack(nack);
    EXPECT_EQ(flow.tx->unacked_bytes(), int64_t{3} * kMtuPayload) << in_flight;
    rtx.clear();
    while (flow.tx->HasWork()) {
      rtx.push_back(flow.tx->DequeuePacket().psn);
    }
    EXPECT_EQ(rtx, (std::vector<uint32_t>{in_flight - 3, in_flight - 2, in_flight - 1}));
  }
}

// --- Receiver behaviour -------------------------------------------------------

Packet Data(uint32_t flow, const RnicHarness& h, uint32_t psn, uint32_t payload = kMtuPayload) {
  return MakeDataPacket(flow, h.a->id(), h.b->id(), psn, payload, 0x1234);
}

TEST(ReceiverQpTest, InOrderAdvancesEpsnAndAcks) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config());
  for (uint32_t psn = 0; psn < 5; ++psn) {
    h.b->ReceivePacket(Data(1, h, psn), 0);
  }
  EXPECT_EQ(flow.rx->epsn(), 5u);
  EXPECT_EQ(flow.rx->stats().acks_sent, 5u);
  EXPECT_EQ(flow.rx->stats().nacks_sent, 0u);
  EXPECT_EQ(flow.rx->in_order_bytes(), 5ull * kMtuPayload);
}

TEST(ReceiverQpTest, NicSrOooTriggersSingleNackPerEpsn) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kNicSr));
  h.b->ReceivePacket(Data(1, h, 0), 0);
  // PSNs 2, 3, 4 arrive while 1 is missing: exactly one NACK (for ePSN=1).
  h.b->ReceivePacket(Data(1, h, 2), 0);
  h.b->ReceivePacket(Data(1, h, 3), 0);
  h.b->ReceivePacket(Data(1, h, 4), 0);
  EXPECT_EQ(flow.rx->stats().nacks_sent, 1u);
  EXPECT_EQ(flow.rx->stats().ooo_arrivals, 3u);
  EXPECT_EQ(flow.rx->epsn(), 1u);
}

TEST(ReceiverQpTest, NicSrEpsnCatchesUpOverBitmap) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kNicSr));
  h.b->ReceivePacket(Data(1, h, 1), 0);
  h.b->ReceivePacket(Data(1, h, 2), 0);
  h.b->ReceivePacket(Data(1, h, 3), 0);
  EXPECT_EQ(flow.rx->epsn(), 0u);
  h.b->ReceivePacket(Data(1, h, 0), 0);  // fills the gap
  EXPECT_EQ(flow.rx->epsn(), 4u);
  EXPECT_EQ(flow.rx->in_order_bytes(), 4ull * kMtuPayload);
}

TEST(ReceiverQpTest, NicSrNewEpsnGetsNewNack) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kNicSr));
  h.b->ReceivePacket(Data(1, h, 1), 0);  // NACK for ePSN 0
  h.b->ReceivePacket(Data(1, h, 0), 0);  // ePSN -> 2
  h.b->ReceivePacket(Data(1, h, 3), 0);  // NACK for ePSN 2
  EXPECT_EQ(flow.rx->stats().nacks_sent, 2u);
}

TEST(ReceiverQpTest, DuplicateOfDeliveredPacketCountedAndAcked) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kNicSr));
  h.b->ReceivePacket(Data(1, h, 0), 0);
  h.b->ReceivePacket(Data(1, h, 0), 0);
  EXPECT_EQ(flow.rx->stats().duplicates, 1u);
  EXPECT_EQ(flow.rx->stats().acks_sent, 2u);
  EXPECT_EQ(flow.rx->in_order_bytes(), 1ull * kMtuPayload);  // counted once
}

TEST(ReceiverQpTest, DuplicateInBitmapCounted) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kNicSr));
  h.b->ReceivePacket(Data(1, h, 2), 0);
  h.b->ReceivePacket(Data(1, h, 2), 0);  // spurious retransmission
  EXPECT_EQ(flow.rx->stats().duplicates, 1u);
}

TEST(ReceiverQpTest, GoBackNDropsOoo) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kGoBackN));
  h.b->ReceivePacket(Data(1, h, 1), 0);
  h.b->ReceivePacket(Data(1, h, 2), 0);
  EXPECT_EQ(flow.rx->stats().dropped_ooo, 2u);
  EXPECT_EQ(flow.rx->stats().nacks_sent, 1u);
  // The dropped data must be retransmitted: receiving 0 then 1 then 2 again.
  h.b->ReceivePacket(Data(1, h, 0), 0);
  EXPECT_EQ(flow.rx->epsn(), 1u);  // 1 and 2 were NOT buffered
  h.b->ReceivePacket(Data(1, h, 1), 0);
  h.b->ReceivePacket(Data(1, h, 2), 0);
  EXPECT_EQ(flow.rx->epsn(), 3u);
}

TEST(ReceiverQpTest, IdealNeverNacks) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kIdeal));
  h.b->ReceivePacket(Data(1, h, 3), 0);
  h.b->ReceivePacket(Data(1, h, 1), 0);
  h.b->ReceivePacket(Data(1, h, 2), 0);
  h.b->ReceivePacket(Data(1, h, 0), 0);
  EXPECT_EQ(flow.rx->stats().nacks_sent, 0u);
  EXPECT_EQ(flow.rx->epsn(), 4u);
}

TEST(ReceiverQpTest, CnpOnCeMarkRespectsInterval) {
  RnicHarness h;
  QpConfig config = RnicHarness::Config();
  config.cnp_interval = 50 * kMicrosecond;
  auto flow = h.MakeFlow(1, config);

  Packet marked = Data(1, h, 0);
  marked.ecn_ce = true;
  h.b->ReceivePacket(marked, 0);
  Packet marked2 = Data(1, h, 1);
  marked2.ecn_ce = true;
  h.b->ReceivePacket(marked2, 0);  // same instant: suppressed
  EXPECT_EQ(flow.rx->stats().cnps_sent, 1u);
  EXPECT_EQ(flow.rx->stats().ce_marked, 2u);

  h.sim.Schedule(60 * kMicrosecond, [&] {
    Packet marked3 = Data(1, h, 2);
    marked3.ecn_ce = true;
    h.b->ReceivePacket(marked3, 0);
  });
  h.sim.RunUntil(70 * kMicrosecond);
  EXPECT_EQ(flow.rx->stats().cnps_sent, 2u);
}

TEST(ReceiverQpTest, ExpectMessageDeliversAtBoundary) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config());
  int delivered = 0;
  flow.rx->ExpectMessage(2 * kMtuPayload, [&] { ++delivered; });
  flow.rx->ExpectMessage(kMtuPayload, [&] { ++delivered; });

  h.b->ReceivePacket(Data(1, h, 0), 0);
  EXPECT_EQ(delivered, 0);
  h.b->ReceivePacket(Data(1, h, 1), 0);
  EXPECT_EQ(delivered, 1);
  h.b->ReceivePacket(Data(1, h, 2), 0);
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(flow.rx->stats().messages_delivered, 2u);
}

TEST(ReceiverQpTest, PsnWraparoundHandled) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config());
  // Start the receiver just before wrap by feeding it the whole tail... too
  // slow; instead exercise serial arithmetic directly around the boundary.
  // Simulate epsn near the wrap by sending the final PSNs of the space.
  // (The receiver starts at 0, so drive it with OOO packets around wrap.)
  h.b->ReceivePacket(Data(1, h, 0), 0);
  EXPECT_EQ(flow.rx->epsn(), 1u);
  // A stale duplicate "from the previous wrap" (psn = 2^24 - 1) must be
  // treated as old (psn < epsn), not as far-future OOO.
  h.b->ReceivePacket(Data(1, h, kPsnMask), 0);
  EXPECT_EQ(flow.rx->stats().duplicates, 1u);
  EXPECT_EQ(flow.rx->epsn(), 1u);
}

TEST(ReceiverQpTest, FarAheadArrivalThenGapFilledInOrder) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config());
  // Three PSNs held in the first 64-slot ring, then one 5,000 PSNs ahead of
  // ePSN grows it. Held packets carry distinct payloads.
  std::set<uint32_t> held;
  auto payload_of = [&](uint32_t psn) {
    return held.count(psn) != 0 ? 100 + psn % 7 : kMtuPayload;
  };
  for (const uint32_t psn : {3u, 10u, 63u, 5000u}) {
    held.insert(psn);
    h.b->ReceivePacket(Data(1, h, psn, payload_of(psn)), 0);
    EXPECT_EQ(flow.rx->ooo_depth(), held.size());
    EXPECT_EQ(flow.rx->epsn(), 0u);
  }
  // A repeat of a held PSN after the growth is a duplicate.
  h.b->ReceivePacket(Data(1, h, 10, payload_of(10)), 0);
  EXPECT_EQ(flow.rx->stats().duplicates, 1u);

  uint64_t in_order = 0;
  uint32_t epsn = 0;
  for (uint32_t psn = 0; psn <= 5000; ++psn) {
    if (held.count(psn) != 0) {
      continue;
    }
    h.b->ReceivePacket(Data(1, h, psn, payload_of(psn)), 0);
    while (epsn <= psn || held.count(epsn) != 0) {
      in_order += payload_of(epsn);
      ++epsn;
    }
    ASSERT_EQ(flow.rx->epsn(), epsn) << "psn " << psn;
    ASSERT_EQ(flow.rx->ooo_depth(),
              static_cast<size_t>(std::distance(held.lower_bound(epsn), held.end())))
        << "psn " << psn;
    ASSERT_EQ(flow.rx->in_order_bytes(), in_order) << "psn " << psn;
  }
  EXPECT_EQ(flow.rx->epsn(), 5001u);
  EXPECT_EQ(flow.rx->ooo_depth(), 0u);
}

// --- IRN transport -------------------------------------------------------------

TEST(IrnTest, NackCarriesTriggerPsn) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kIrn));
  h.b->ReceivePacket(Data(1, h, 3), 0);  // 0,1,2 missing
  h.sim.Run();
  // The NACK reached a's sender QP (unknown-flow drops would count).
  EXPECT_EQ(h.b->receiver_qp(1)->stats().nacks_sent, 1u);
}

TEST(IrnTest, SenderRetransmitsExactGap) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kIrn));
  h.a->set_auto_schedule(false);
  flow.tx->PostMessage(6 * kMtuPayload, nullptr);
  for (int i = 0; i < 6; ++i) {
    flow.tx->DequeuePacket();
  }
  Packet nack = MakeControlPacket(PacketType::kNack, 1, h.b->id(), h.a->id(), 1, 0);
  nack.aux_psn = 4;  // receiver saw 0 then 4: gap is [1, 4)
  flow.tx->HandleNack(nack);

  std::vector<uint32_t> rtx;
  while (flow.tx->HasWork()) {
    rtx.push_back(flow.tx->DequeuePacket().psn);
  }
  EXPECT_EQ(rtx, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(IrnTest, RepeatedNacksDoNotRefireGap) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kIrn));
  h.a->set_auto_schedule(false);
  flow.tx->PostMessage(6 * kMtuPayload, nullptr);
  for (int i = 0; i < 6; ++i) {
    flow.tx->DequeuePacket();
  }
  Packet nack = MakeControlPacket(PacketType::kNack, 1, h.b->id(), h.a->id(), 1, 0);
  nack.aux_psn = 3;
  flow.tx->HandleNack(nack);
  nack.aux_psn = 5;  // second NACK for an overlapping gap
  flow.tx->HandleNack(nack);

  int rtx = 0;
  while (flow.tx->HasWork()) {
    flow.tx->DequeuePacket();
    ++rtx;
  }
  EXPECT_EQ(rtx, 4);  // 1,2 then 3,4 — never 1,2 twice
}

TEST(IrnTest, NackDoesNotCutRate) {
  RnicHarness h;
  QpConfig config = RnicHarness::Config(TransportKind::kIrn);
  config.cc = CcKind::kDcqcn;
  config.dcqcn.line_rate = Rate::Gbps(100);
  auto flow = h.MakeFlow(1, config);
  h.a->set_auto_schedule(false);
  flow.tx->PostMessage(4 * kMtuPayload, nullptr);
  for (int i = 0; i < 4; ++i) {
    flow.tx->DequeuePacket();
  }
  Packet nack = MakeControlPacket(PacketType::kNack, 1, h.b->id(), h.a->id(), 0, 0);
  nack.aux_psn = 2;
  flow.tx->HandleNack(nack);
  EXPECT_EQ(flow.tx->cc().rate(), Rate::Gbps(100));  // IRN decouples loss from CC
}

TEST(IrnTest, EndToEndUnderReorderCompletes) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kIrn));
  bool received = false;
  flow.rx->ExpectMessage(1 << 20, [&] { received = true; });
  flow.tx->PostMessage(1 << 20, nullptr);
  h.sim.Run();
  EXPECT_TRUE(received);
}

// --- Multipath (MPRDMA-style) transport -----------------------------------------

TEST(MultipathTest, NeverNacks) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kMultipath));
  h.b->ReceivePacket(Data(1, h, 5), 0);
  h.b->ReceivePacket(Data(1, h, 3), 0);
  h.b->ReceivePacket(Data(1, h, 9), 0);
  EXPECT_EQ(flow.rx->stats().nacks_sent, 0u);
  EXPECT_EQ(flow.rx->stats().acks_sent, 3u);
}

TEST(MultipathTest, SackDepthTriggersHeadRetransmit) {
  RnicHarness h;
  QpConfig config = RnicHarness::Config(TransportKind::kMultipath);
  config.multipath_reorder_threshold = 4;
  auto flow = h.MakeFlow(1, config);
  h.a->set_auto_schedule(false);
  flow.tx->PostMessage(10 * kMtuPayload, nullptr);
  for (int i = 0; i < 10; ++i) {
    flow.tx->DequeuePacket();
  }
  // Packet 0 lost; SACKs arrive for 1..5. Depth exceeds 4 at SACK(5).
  for (uint32_t psn = 1; psn <= 4; ++psn) {
    Packet ack = MakeControlPacket(PacketType::kAck, 1, h.b->id(), h.a->id(), 0, 0);
    ack.aux_psn = psn;
    flow.tx->HandleAck(ack);
    EXPECT_FALSE(flow.tx->HasWork()) << "premature retransmit at sack " << psn;
  }
  Packet ack = MakeControlPacket(PacketType::kAck, 1, h.b->id(), h.a->id(), 0, 0);
  ack.aux_psn = 5;
  flow.tx->HandleAck(ack);
  ASSERT_TRUE(flow.tx->HasWork());
  EXPECT_EQ(flow.tx->DequeuePacket().psn, 0u);
  EXPECT_FALSE(flow.tx->HasWork());  // exactly one head retransmit
}

TEST(MultipathTest, HeadRetransmitRearmsPerHole) {
  RnicHarness h;
  QpConfig config = RnicHarness::Config(TransportKind::kMultipath);
  config.multipath_reorder_threshold = 2;
  auto flow = h.MakeFlow(1, config);
  h.a->set_auto_schedule(false);
  flow.tx->PostMessage(10 * kMtuPayload, nullptr);
  for (int i = 0; i < 10; ++i) {
    flow.tx->DequeuePacket();
  }
  // Holes at 0 and 5. First: sacks 1..3 -> rtx 0.
  for (uint32_t psn : {1u, 2u, 3u}) {
    Packet ack = MakeControlPacket(PacketType::kAck, 1, h.b->id(), h.a->id(), 0, 0);
    ack.aux_psn = psn;
    flow.tx->HandleAck(ack);
  }
  ASSERT_TRUE(flow.tx->HasWork());
  EXPECT_EQ(flow.tx->DequeuePacket().psn, 0u);
  // Hole 0 repaired: cumulative jumps to 5. Then sacks 6..8 -> rtx 5.
  Packet cum = MakeControlPacket(PacketType::kAck, 1, h.b->id(), h.a->id(), 5, 0);
  cum.aux_psn = 0;
  flow.tx->HandleAck(cum);
  for (uint32_t psn : {6u, 7u, 8u}) {
    Packet ack = MakeControlPacket(PacketType::kAck, 1, h.b->id(), h.a->id(), 5, 0);
    ack.aux_psn = psn;
    flow.tx->HandleAck(ack);
  }
  ASSERT_TRUE(flow.tx->HasWork());
  EXPECT_EQ(flow.tx->DequeuePacket().psn, 5u);
}

TEST(MultipathTest, SackStateHoldsAcrossRingGrowth) {
  for (const uint32_t in_flight : {100u, 20'000u}) {
    RnicHarness h;
    QpConfig config = RnicHarness::Config(TransportKind::kMultipath);
    config.max_unacked_bytes = int64_t{1} << 40;
    config.multipath_reorder_threshold = 50;
    auto flow = h.MakeManualFlow(1, config);
    flow.tx->PostMessage(uint64_t{in_flight} * kMtuPayload, nullptr);
    auto sack = [&](uint32_t psn) {
      Packet ack = MakeControlPacket(PacketType::kAck, 1, h.b->id(), h.a->id(), 0, 0);
      ack.aux_psn = psn;
      flow.tx->HandleAck(ack);
    };
    for (int i = 0; i < 60; ++i) {
      flow.tx->DequeuePacket();  // within the first 64-slot ring
    }
    sack(40);  // reordering depth 40 <= 50: no head loss yet
    while (flow.tx->snd_nxt() != in_flight) {
      EXPECT_FALSE(flow.tx->DequeuePacket().retransmission);  // grows the ring
    }
    EXPECT_FALSE(flow.tx->HasWork());
    sack(40);  // repeated SACK
    EXPECT_FALSE(flow.tx->HasWork());
    sack(in_flight - 1);  // far beyond the head: head loss, fired once
    ASSERT_TRUE(flow.tx->HasWork());
    EXPECT_EQ(flow.tx->DequeuePacket().psn, 0u);
    sack(in_flight - 2);
    EXPECT_FALSE(flow.tx->HasWork()) << in_flight;
    EXPECT_EQ(flow.tx->unacked_bytes(), int64_t{in_flight} * kMtuPayload);
  }
}

TEST(MultipathTest, EndToEndCompletes) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config(TransportKind::kMultipath));
  bool received = false;
  flow.rx->ExpectMessage(1 << 20, [&] { received = true; });
  flow.tx->PostMessage(1 << 20, nullptr);
  h.sim.Run();
  EXPECT_TRUE(received);
  EXPECT_EQ(flow.tx->stats().rtx_packets, 0u);
}

// --- Host dispatch & scheduler ------------------------------------------------

TEST(RnicHostTest, UnknownFlowCounted) {
  RnicHarness h;
  h.b->ReceivePacket(Data(99, h, 0), 0);
  EXPECT_EQ(h.b->stats().unknown_flow_drops, 1u);
}

TEST(RnicHostTest, EndToEndMessageDelivery) {
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config());
  bool sent = false;
  bool received = false;
  flow.rx->ExpectMessage(1 << 20, [&] { received = true; });
  flow.tx->PostMessage(1 << 20, [&] { sent = true; });
  h.sim.Run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(received);
  EXPECT_EQ(flow.rx->in_order_bytes(), 1u << 20);
  EXPECT_EQ(flow.tx->stats().rtx_packets, 0u);
  EXPECT_EQ(flow.rx->stats().nacks_sent, 0u);
}

TEST(RnicHostTest, ThroughputMatchesLineRateOnCleanPath) {
  RnicHarness h(Rate::Gbps(100), 1 * kMicrosecond);
  auto flow = h.MakeFlow(1, RnicHarness::Config());
  constexpr uint64_t kBytes = 8 << 20;
  flow.tx->PostMessage(kBytes, nullptr);
  h.sim.Run();
  // Measure to the completion ACK (sim.now() may include inert timer
  // events draining after the transfer finished).
  const double seconds = ToSeconds(flow.tx->stats().last_completion_time);
  const double goodput_gbps = static_cast<double>(kBytes) * 8 / seconds / 1e9;
  // Payload goodput ~= line rate x payload/wire efficiency (1436/1500).
  EXPECT_GT(goodput_gbps, 90.0);
  EXPECT_LT(goodput_gbps, 96.0);
}

TEST(RnicHostTest, SchedulerSharesLineBetweenQps) {
  RnicHarness h(Rate::Gbps(100), 1 * kMicrosecond);
  auto f1 = h.MakeFlow(1, RnicHarness::Config());
  auto f2 = h.MakeFlow(2, RnicHarness::Config());
  constexpr uint64_t kBytes = 2 << 20;
  f1.tx->PostMessage(kBytes, nullptr);
  f2.tx->PostMessage(kBytes, nullptr);
  h.sim.Run();
  // Both QPs pace at 100G but share one 100G line: finish together, with
  // roughly equal service.
  const uint64_t sent1 = f1.tx->stats().data_bytes_sent;
  const uint64_t sent2 = f2.tx->stats().data_bytes_sent;
  EXPECT_NEAR(static_cast<double>(sent1) / static_cast<double>(sent2), 1.0, 0.01);
  EXPECT_EQ(f1.rx->in_order_bytes(), kBytes);
  EXPECT_EQ(f2.rx->in_order_bytes(), kBytes);
}

TEST(RnicHostTest, LossRecoveredByNackOnSinglePath) {
  // Single path: OOO arrivals at the receiver genuinely mean loss, NIC-SR
  // recovers via NACK + selective retransmit without any timeout.
  RnicHarness h;
  auto flow = h.MakeFlow(1, RnicHarness::Config());
  flow.tx->PostMessage(10 * kMtuPayload, nullptr);

  // Drop the third data packet (psn 2) on the wire once: packets are paced
  // every 120 ns and arrive at k*120 + 120 + 1000 ns; fail the port around
  // psn 2's arrival instant (1360 ns) only.
  h.sim.Schedule(1355 * kNanosecond, [&] { h.a->uplink()->set_failed(true); });
  h.sim.Schedule(1365 * kNanosecond, [&] { h.a->uplink()->set_failed(false); });
  h.sim.Run();

  EXPECT_EQ(flow.rx->in_order_bytes(), 10ull * kMtuPayload);
  EXPECT_GE(flow.tx->stats().rtx_packets, 1u);
  EXPECT_GE(flow.rx->stats().nacks_sent, 1u);
}

// Each dispatched same-tick run, as (port pointer, tag kind) per tag.
std::vector<std::vector<std::pair<uint64_t, uint64_t>>>* g_port_runs = nullptr;

size_t RecordingPortDispatch(Simulator& sim, const uint64_t* tags, size_t n) {
  auto& run = g_port_runs->emplace_back();
  for (size_t i = 0; i < n; ++i) {
    run.emplace_back(tags[i] & ~kPortTagKindMask, tags[i] & kPortTagKindMask);
  }
  return Port::DispatchBurst(sim, tags, n);
}

TEST(RnicHostTest, TransmitHoldJoinsTheUplinkTxDoneRun) {
  // host -> switch -> host. The NIC holds the line for each data packet's
  // serialization time, so the hold ends on the tick the uplink's tx-done
  // fires. Both are uplink tags: they reach the dispatcher in one same-tick
  // run, tx-done first (it was scheduled first).
  Simulator sim;
  Network net(&sim);
  std::vector<RnicHost*> hosts;
  LeafSpineConfig config;
  config.num_tors = 1;
  config.num_spines = 1;
  config.hosts_per_tor = 2;
  BuildLeafSpine(net, config, [&hosts](Network& n, int, const std::string& name) {
    RnicHost* host = n.MakeNode<RnicHost>(name);
    hosts.push_back(host);
    return host;
  });
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> runs;
  g_port_runs = &runs;
  sim.SetLineRateDispatcher(&RecordingPortDispatch);
  const QpConfig qp = RnicHarness::Config();
  SenderQp* tx = hosts[0]->CreateSenderQp(1, hosts[1]->id(), qp);
  ReceiverQp* rx = hosts[1]->CreateReceiverQp(1, hosts[0]->id(), qp);
  constexpr int kPackets = 8;
  tx->PostMessage(kPackets * kMtuPayload, nullptr);
  sim.Run();
  g_port_runs = nullptr;
  EXPECT_EQ(rx->in_order_bytes(), uint64_t{kPackets} * kMtuPayload);

  const uint64_t uplink = reinterpret_cast<uint64_t>(hosts[0]->uplink());
  const std::pair<uint64_t, uint64_t> tx_done{uplink, kPortTagTxDone};
  const std::pair<uint64_t, uint64_t> hold{uplink, kPortTagHold};
  int holds = 0;
  int after_tx_done = 0;
  for (const auto& run : runs) {
    for (size_t i = 0; i < run.size(); ++i) {
      if (run[i] == hold) {
        ++holds;
        after_tx_done += i > 0 && run[i - 1] == tx_done ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(holds, kPackets);
  EXPECT_EQ(after_tx_done, kPackets);
}

}  // namespace
}  // namespace themis
