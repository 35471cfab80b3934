// Tests for the paper's core mechanisms: the ring PSN queue (Section 3.3),
// the PathMap (Fig. 3), Themis-D NACK validation & blocking (Eq. 3), NACK
// compensation (Section 3.4), the memory model (Section 4), and the
// deployment / failure fallback (Section 6).

#include <gtest/gtest.h>

#include <vector>

#include "src/themis/deployment.h"
#include "src/themis/memory_model.h"
#include "src/themis/path_map.h"
#include "src/themis/psn_queue.h"
#include "src/themis/themis_d.h"
#include "src/themis/themis_s.h"
#include "src/topo/leaf_spine.h"

namespace themis {
namespace {

// --- PsnQueue -----------------------------------------------------------------

TEST(PsnQueueTest, FifoPopUntilGreater) {
  PsnQueue q(16, /*truncate=*/false);
  for (uint32_t psn : {0u, 1u, 3u, 2u}) {  // the Fig. 4b arrival order
    q.Push(psn);
  }
  // NACK with ePSN=2: scan dequeues 0, 1, then finds 3.
  auto tpsn = q.PopUntilGreater(2);
  ASSERT_TRUE(tpsn.has_value());
  EXPECT_EQ(*tpsn, 3u);
  // The scan consumed through 3; only "2" remains.
  EXPECT_EQ(q.size(), 1u);
}

TEST(PsnQueueTest, ReturnsNulloptWhenDrained) {
  PsnQueue q(8, false);
  q.Push(0);
  q.Push(1);
  EXPECT_FALSE(q.PopUntilGreater(5).has_value());
  EXPECT_TRUE(q.empty());
}

TEST(PsnQueueTest, OverflowEvictsOldest) {
  PsnQueue q(4, false);
  for (uint32_t psn = 0; psn < 6; ++psn) {
    q.Push(psn);
  }
  EXPECT_EQ(q.overflows(), 2u);
  EXPECT_EQ(q.size(), 4u);
  // Oldest survivors are 2..5.
  auto tpsn = q.PopUntilGreater(1);
  ASSERT_TRUE(tpsn.has_value());
  EXPECT_EQ(*tpsn, 2u);
}

TEST(PsnQueueTest, TruncatedEntriesReconstructNearReference) {
  PsnQueue q(32, /*truncate=*/true);
  // PSNs within +/-127 of the ePSN reconstruct exactly.
  q.Push(1000);
  q.Push(1001);
  q.Push(1100);
  auto tpsn = q.PopUntilGreater(1050);
  ASSERT_TRUE(tpsn.has_value());
  EXPECT_EQ(*tpsn, 1100u);
}

TEST(PsnQueueTest, TruncatedReconstructionAcross24BitWrap) {
  PsnQueue q(8, /*truncate=*/true);
  q.Push(kPsnMask);      // 0xFFFFFF
  q.Push(2);             // wrapped
  auto tpsn = q.PopUntilGreater(kPsnMask - 1);
  ASSERT_TRUE(tpsn.has_value());
  EXPECT_EQ(*tpsn, kPsnMask);
  tpsn = q.PopUntilGreater(kPsnMask);
  ASSERT_TRUE(tpsn.has_value());
  EXPECT_EQ(*tpsn, 2u);
}

TEST(PsnQueueTest, TruncatedMatchesFullWithinBdpWindow) {
  // Property: for in-window traffic the 1-byte encoding behaves identically
  // to full PSNs.
  Rng rng(3);
  PsnQueue truncated(64, true);
  PsnQueue full(64, false);
  uint32_t base = 5000;
  std::vector<uint32_t> pushed;
  for (int i = 0; i < 40; ++i) {
    const uint32_t psn = PsnAdd(base, static_cast<int64_t>(rng.Below(100)));
    truncated.Push(psn);
    full.Push(psn);
  }
  for (int i = 0; i < 10; ++i) {
    const uint32_t epsn = PsnAdd(base, static_cast<int64_t>(rng.Below(100)));
    EXPECT_EQ(truncated.PopUntilGreater(epsn), full.PopUntilGreater(epsn));
  }
}

TEST(PsnQueueTest, CapacityRuleMatchesSection4) {
  // 400 Gbps x 2 us = 100 KB; x1.5 / 1500 B = 100 entries.
  EXPECT_EQ(PsnQueueCapacity(Rate::Gbps(400), 2 * kMicrosecond, 1.5, 1500), 100u);
  // Rounds up when not integral.
  EXPECT_EQ(PsnQueueCapacity(Rate::Gbps(100), 2 * kMicrosecond, 1.5, 1500), 25u);
  EXPECT_EQ(PsnQueueCapacity(Rate::Gbps(100), 3 * kMicrosecond, 1.5, 1500), 38u);
}

// --- PathMap ------------------------------------------------------------------

TEST(PathMapTest, SingleStageCoversAllTargets) {
  auto map = PathMap::Build({EcmpStage{.shift = 0, .group_size = 8}});
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(map->path_count(), 8u);
  EXPECT_EQ(map->MemoryBytes(), 16u);
  // Delta for relative change 0 must be the identity rewrite.
  EXPECT_EQ(map->DeltaFor(0), 0u);
}

TEST(PathMapTest, DeltasRealizeTheirRelativeChange) {
  const std::vector<EcmpStage> stages{EcmpStage{.shift = 0, .group_size = 16}};
  auto map = PathMap::Build(stages);
  ASSERT_TRUE(map.has_value());
  for (uint32_t r = 0; r < 16; ++r) {
    const uint32_t h = SportDeltaHash(map->DeltaFor(r));
    EXPECT_EQ(PathMap::PackRelativeChange(h, stages), r);
  }
}

TEST(PathMapTest, RewritingSportMovesBucketAsPlanned) {
  const std::vector<EcmpStage> stages{EcmpStage{.shift = 0, .group_size = 8}};
  auto map = PathMap::Build(stages);
  ASSERT_TRUE(map.has_value());

  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    EcmpTuple t;
    t.src = static_cast<uint32_t>(rng.Next());
    t.dst = static_cast<uint32_t>(rng.Next());
    t.sport = static_cast<uint16_t>(rng.Next());
    t.dport = static_cast<uint32_t>(rng.Next());
    const uint32_t base_bucket = EcmpHash(t) & 7;

    for (uint32_t r = 0; r < 8; ++r) {
      EcmpTuple rewritten = t;
      rewritten.sport = t.sport ^ map->DeltaFor(r);
      EXPECT_EQ(EcmpHash(rewritten) & 7, base_bucket ^ r);
    }
  }
}

TEST(PathMapTest, TwoStageBuildCoversProductSpace) {
  const std::vector<EcmpStage> stages{EcmpStage{.shift = 0, .group_size = 4},
                                      EcmpStage{.shift = 8, .group_size = 4}};
  auto map = PathMap::Build(stages);
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(map->path_count(), 16u);
  for (uint32_t r = 0; r < 16; ++r) {
    const uint32_t h = SportDeltaHash(map->DeltaFor(r));
    EXPECT_EQ(PathMap::PackRelativeChange(h, stages), r);
  }
}

TEST(PathMapTest, RejectsNonPowerOfTwoGroups) {
  EXPECT_FALSE(PathMap::Build({EcmpStage{.shift = 0, .group_size = 3}}).has_value());
}

TEST(PathMapTest, Section4ReferenceSize) {
  // N_paths = 256 -> 512 B.
  auto map = PathMap::Build({EcmpStage{.shift = 0, .group_size = 16},
                             EcmpStage{.shift = 8, .group_size = 16}});
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(map->path_count(), 256u);
  EXPECT_EQ(map->MemoryBytes(), 512u);
}

// --- Themis-D on a real ToR -----------------------------------------------------

class RecordingHost : public Node {
 public:
  RecordingHost(Simulator* sim, int id, std::string name)
      : Node(sim, id, NodeKind::kHost, std::move(name)) {}
  void ReceivePacket(const Packet& pkt, int) override { received.push_back(pkt); }
  std::vector<Packet> received;
};

// Two racks, N=2 spines, two hosts each; Themis-D installed on the dst ToR.
struct ThemisDHarness {
  // Ports 0..1 of the dst ToR face hosts 2..3; ports 2..3 face spines.
  static constexpr int kSpinePort = 2;

  Simulator sim;
  Network net{&sim};
  std::vector<RecordingHost*> hosts;
  Topology topo;
  std::unique_ptr<ThemisD> hook;
  Switch* dst_tor = nullptr;
  RecordingHost* sender = nullptr;     // host 0, rack 0
  RecordingHost* receiver = nullptr;   // host 2, rack 1, dst ToR port 0
  RecordingHost* rack_peer = nullptr;  // host 3, rack 1, dst ToR port 1

  explicit ThemisDHarness(ThemisDConfig config = {.num_paths = 2,
                                                  .queue_capacity = 16,
                                                  .truncate_entries = true,
                                                  .compensation_enabled = true}) {
    LeafSpineConfig topo_config;
    topo_config.num_tors = 2;
    topo_config.num_spines = 2;
    topo_config.hosts_per_tor = 2;
    topo = BuildLeafSpine(net, topo_config, [this](Network& n, int, const std::string& name) {
      RecordingHost* host = n.MakeNode<RecordingHost>(name);
      hosts.push_back(host);
      return host;
    });
    sender = hosts[0];
    receiver = hosts[2];
    rack_peer = hosts[3];
    dst_tor = topo.tors[1];
    hook = std::make_unique<ThemisD>(config);
    dst_tor->AddHook(hook.get());
  }

  // Injects a data packet as if arriving at the dst ToR from a spine.
  void DataAtDstTor(uint32_t psn) { DataAtDstTorFlow(1, psn); }

  void DataAtDstTorFlow(uint32_t flow, uint32_t psn) {
    dst_tor->ReceivePacket(MakeDataPacket(flow, sender->id(), receiver->id(), psn, 1000, 0x42),
                           kSpinePort);
  }

  // Injects a NACK as if emitted by the local receiver NIC.
  void NackFromNic(uint32_t epsn) { NackFromNicFlow(1, epsn); }

  void NackFromNicFlow(uint32_t flow, uint32_t epsn) {
    dst_tor->ReceivePacket(
        MakeControlPacket(PacketType::kNack, flow, receiver->id(), sender->id(), epsn, 0x42),
        /*in=*/0);
  }

  // NACKs that survived to the sender.
  size_t SenderNacks() {
    sim.Run();
    size_t count = 0;
    for (const Packet& pkt : sender->received) {
      if (pkt.type == PacketType::kNack) {
        ++count;
      }
    }
    return count;
  }
};

TEST(ThemisDTest, TracksOnlyCrossRackData) {
  // Section 4: ToR state is kept only for QPs between different racks. A
  // same-rack packet passes untracked but still reaches its receiver.
  ThemisDHarness h;
  h.dst_tor->ReceivePacket(
      MakeDataPacket(2, h.rack_peer->id(), h.receiver->id(), 0, 1000, 0x42), /*in=*/1);
  h.sim.Run();
  EXPECT_EQ(h.receiver->received.size(), 1u);
  EXPECT_EQ(h.hook->stats().data_tracked, 0u);
  EXPECT_EQ(h.hook->flow_count(), 0u);

  h.DataAtDstTor(0);
  EXPECT_EQ(h.hook->stats().data_tracked, 1u);
  EXPECT_EQ(h.hook->flow_count(), 1u);
}

TEST(ThemisDTest, BlocksInvalidNack) {
  // Fig. 4b, left: arrivals 0, 1, 3 -> NACK(2) triggered by tPSN=3;
  // 3 mod 2 != 2 mod 2 -> different path -> blocked.
  ThemisDHarness h;
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  h.DataAtDstTor(3);
  h.NackFromNic(2);
  EXPECT_EQ(h.SenderNacks(), 0u);
  EXPECT_EQ(h.hook->stats().nacks_blocked, 1u);
  EXPECT_EQ(h.hook->stats().nacks_seen, 1u);
}

TEST(ThemisDTest, ForwardsValidNack) {
  // Fig. 4b, right: arrivals ... 6 with ePSN=4; 6 mod 2 == 4 mod 2 -> same
  // path, the expected packet is genuinely lost -> forward.
  ThemisDHarness h;
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  h.DataAtDstTor(2);
  h.DataAtDstTor(3);
  h.DataAtDstTor(6);  // 4 and 5 lost
  h.NackFromNic(4);
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_valid, 1u);
}

TEST(ThemisDTest, FailsOpenWhenQueueHasNoCandidate) {
  ThemisDHarness h;
  h.DataAtDstTor(0);
  h.NackFromNic(5);  // nothing > 5 in the queue
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_unmatched, 1u);
}

TEST(ThemisDTest, FailsOpenForUnknownFlow) {
  ThemisDHarness h;
  h.NackFromNic(0);  // no data seen for flow 1 yet
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().nacks_seen, 0u);
}

TEST(ThemisDTest, CompensatesWhenSamePathPacketOvertakes) {
  // Fig. 4c: NACK(2) blocked (tPSN=3), BePSN=2/Valid=true; then PSN=4
  // arrives with 4 mod 2 == 2 mod 2 -> the ToR generates NACK(2) itself.
  ThemisDHarness h;
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  h.DataAtDstTor(3);
  h.NackFromNic(2);
  EXPECT_EQ(h.hook->stats().nacks_blocked, 1u);
  h.DataAtDstTor(4);
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().compensated_nacks, 1u);
  // The compensated NACK carries the blocked ePSN.
  ASSERT_FALSE(h.sender->received.empty());
  EXPECT_EQ(h.sender->received.back().psn, 2u);
}

TEST(ThemisDTest, CompensationCancelledWhenBepsnArrives) {
  ThemisDHarness h;
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  h.DataAtDstTor(3);
  h.NackFromNic(2);
  h.DataAtDstTor(2);  // the "lost" packet shows up after all
  h.DataAtDstTor(4);  // same-path successor must NOT trigger a NACK now
  EXPECT_EQ(h.SenderNacks(), 0u);
  EXPECT_EQ(h.hook->stats().compensations_cancelled, 1u);
  EXPECT_EQ(h.hook->stats().compensated_nacks, 0u);
}

TEST(ThemisDTest, CompensationFiresAtMostOnce) {
  ThemisDHarness h;
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  h.DataAtDstTor(3);
  h.NackFromNic(2);
  h.DataAtDstTor(4);
  h.DataAtDstTor(6);  // same path again; no second compensation
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().compensated_nacks, 1u);
}

TEST(ThemisDTest, CompensationDisabledByConfig) {
  ThemisDHarness h(ThemisDConfig{.num_paths = 2,
                                 .queue_capacity = 16,
                                 .truncate_entries = true,
                                 .compensation_enabled = false});
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  h.DataAtDstTor(3);
  h.NackFromNic(2);
  h.DataAtDstTor(4);
  EXPECT_EQ(h.SenderNacks(), 0u);
  EXPECT_EQ(h.hook->stats().compensated_nacks, 0u);
}

TEST(ThemisDTest, DisabledHookPassesEverything) {
  ThemisDHarness h;
  h.hook->set_enabled(false);
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  h.DataAtDstTor(3);
  h.NackFromNic(2);
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().nacks_seen, 0u);
}

TEST(ThemisDTest, DataStillForwardedToReceiver) {
  ThemisDHarness h;
  for (uint32_t psn = 0; psn < 8; ++psn) {
    h.DataAtDstTor(psn);
  }
  h.sim.Run();
  EXPECT_EQ(h.receiver->received.size(), 8u);
  EXPECT_EQ(h.hook->stats().data_tracked, 8u);
  EXPECT_EQ(h.hook->flow_count(), 1u);
}

TEST(ThemisDTest, HigherPathCountValidation) {
  // N=4: tPSN=5 vs ePSN=1 -> 5 mod 4 == 1 mod 4 -> valid (forwarded).
  ThemisDHarness h(ThemisDConfig{.num_paths = 4,
                                 .queue_capacity = 16,
                                 .truncate_entries = true,
                                 .compensation_enabled = true});
  h.DataAtDstTor(0);
  h.DataAtDstTor(5);
  h.NackFromNic(1);
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_valid, 1u);
}

TEST(PsnQueueTest, ContainsIsNonDestructive) {
  PsnQueue q(16, /*truncate=*/false);
  q.Push(5);
  q.Push(7);
  q.Push(6);
  EXPECT_TRUE(q.Contains(6, 6));
  EXPECT_FALSE(q.Contains(8, 6));
  EXPECT_EQ(q.size(), 3u);  // untouched
}

TEST(PsnQueueTest, ContainsDecodesTruncatedAcrossWrap) {
  PsnQueue q(8, /*truncate=*/true);
  q.Push(kPsnMask);
  q.Push(1);
  EXPECT_TRUE(q.Contains(kPsnMask, kPsnMask - 2));
  EXPECT_TRUE(q.Contains(1, 0));
  EXPECT_FALSE(q.Contains(2, 0));
}

TEST(ThemisDTest, SuppressesCompensationWhenEpsnStillQueued) {
  // The §3.4 race: the "missing" packet passed the ToR between the
  // triggering packet and the NACK. Arrival order at the ToR: 0, 1, 3, 2 —
  // then NACK(2) comes back. The ePSN=2 packet is in the last-hop queue, so
  // blocking must NOT arm compensation.
  ThemisDHarness h;
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  h.DataAtDstTor(3);
  h.DataAtDstTor(2);
  h.NackFromNic(2);
  EXPECT_EQ(h.hook->stats().nacks_blocked, 1u);
  EXPECT_EQ(h.hook->stats().compensations_suppressed, 1u);
  // A later same-class packet must not trigger a (false) compensation.
  h.DataAtDstTor(4);
  EXPECT_EQ(h.SenderNacks(), 0u);
  EXPECT_EQ(h.hook->stats().compensated_nacks, 0u);
}

TEST(ThemisDTest, AckSnoopingCancelsStaleCompensation) {
  // Blocked NACK arms compensation, but the NIC's cumulative ACK then
  // passes the ToR proving the BePSN packet was received.
  ThemisDHarness h;
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  h.DataAtDstTor(3);
  h.NackFromNic(2);  // scan consumes 0,1,3; queue empty -> compensation armed
  EXPECT_EQ(h.hook->stats().nacks_blocked, 1u);
  // ACK with ePSN=5 emitted by the local NIC (packet 2 arrived via a path
  // segment the ToR no longer tracks).
  h.dst_tor->ReceivePacket(
      MakeControlPacket(PacketType::kAck, 1, h.receiver->id(), h.sender->id(), 5, 0x42),
      /*in=*/0);
  h.DataAtDstTor(4);  // same class as 2: must NOT compensate now
  EXPECT_EQ(h.SenderNacks(), 0u);
  EXPECT_EQ(h.hook->stats().compensated_nacks, 0u);
  EXPECT_EQ(h.hook->stats().compensations_cancelled, 1u);
}

TEST(ThemisDTest, ResetFlowStateDropsTracking) {
  ThemisDHarness h;
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  EXPECT_EQ(h.hook->flow_count(), 1u);
  h.hook->ResetFlowState();
  EXPECT_EQ(h.hook->flow_count(), 0u);
  // NACK for the (now unknown) flow fails open.
  h.NackFromNic(0);
  EXPECT_EQ(h.SenderNacks(), 1u);
}

// --- Memory model ---------------------------------------------------------------

TEST(MemoryModelTest, ReproducesPaperExample) {
  MemoryModelParams params;  // defaults are Table 1's reference values
  const MemoryModelResult r = EstimateThemisMemory(params);
  EXPECT_EQ(r.path_map_bytes, 512u);
  EXPECT_EQ(r.queue_entries, 100u);
  EXPECT_EQ(r.per_qp_bytes, 120u);
  EXPECT_EQ(r.total_bytes, 512u + 120u * 100 * 16);  // 192'512 B
  EXPECT_NEAR(static_cast<double>(r.total_bytes) / 1000.0, 193.0, 1.0);  // ~193 KB
  EXPECT_LT(r.sram_fraction, 0.01);
}

TEST(MemoryModelTest, ScalesLinearlyInQps) {
  MemoryModelParams params;
  const auto base = EstimateThemisMemory(params);
  params.qps_per_nic *= 2;
  const auto doubled = EstimateThemisMemory(params);
  EXPECT_EQ(doubled.total_bytes - doubled.path_map_bytes,
            2 * (base.total_bytes - base.path_map_bytes));
}

// --- Deployment & failure fallback (Section 6) -----------------------------------

struct DeployHarness {
  Simulator sim;
  Network net{&sim};
  std::vector<RecordingHost*> hosts;
  Topology topo;

  DeployHarness() {
    LeafSpineConfig config;
    config.num_tors = 2;
    config.num_spines = 4;
    config.hosts_per_tor = 2;
    topo = BuildLeafSpine(net, config, [this](Network& n, int, const std::string& name) {
      RecordingHost* host = n.MakeNode<RecordingHost>(name);
      hosts.push_back(host);
      return host;
    });
  }
};

TEST(DeploymentTest, InstallsPsnSprayOnTorsOnly) {
  DeployHarness h;
  auto deployment = ThemisDeployment::Install(h.topo, ThemisDeploymentConfig{});
  for (Switch* tor : h.topo.tors) {
    EXPECT_STREQ(tor->data_lb()->name(), "psn-spray");
  }
  for (Switch* sw : h.topo.switches) {
    if (sw->name().rfind("spine", 0) == 0) {
      EXPECT_STREQ(sw->data_lb()->name(), "ecmp");
    }
  }
  EXPECT_EQ(deployment->d_hooks().size(), 2u);
}

TEST(DeploymentTest, NumPathsDefaultsToTopology) {
  DeployHarness h;
  auto deployment = ThemisDeployment::Install(h.topo, ThemisDeploymentConfig{});
  EXPECT_EQ(deployment->d_hooks()[0]->config().num_paths, 4u);
}

TEST(DeploymentTest, FailureFallsBackToEcmp) {
  DeployHarness h;
  auto deployment = ThemisDeployment::Install(h.topo, ThemisDeploymentConfig{});
  deployment->HandleLinkFailure();
  EXPECT_TRUE(deployment->degraded());
  for (Switch* tor : h.topo.tors) {
    EXPECT_STREQ(tor->data_lb()->name(), "ecmp");
  }
  EXPECT_FALSE(deployment->d_hooks()[0]->enabled());

  deployment->HandleLinkRecovery();
  EXPECT_FALSE(deployment->degraded());
  for (Switch* tor : h.topo.tors) {
    EXPECT_STREQ(tor->data_lb()->name(), "psn-spray");
  }
  EXPECT_TRUE(deployment->d_hooks()[0]->enabled());
}

TEST(DeploymentTest, SportRewriteModeInstallsThemisS) {
  DeployHarness h;
  ThemisDeploymentConfig config;
  config.spray_mode = SprayMode::kSportRewrite;
  auto deployment = ThemisDeployment::Install(h.topo, config);
  EXPECT_EQ(deployment->s_hooks().size(), 2u);
  EXPECT_EQ(deployment->s_hooks()[0]->path_map().path_count(), 4u);
  for (Switch* tor : h.topo.tors) {
    EXPECT_STREQ(tor->data_lb()->name(), "ecmp");
  }
}

TEST(DeploymentTest, SportRewriteSpraysAcrossAllSpines) {
  DeployHarness h;
  ThemisDeploymentConfig config;
  config.spray_mode = SprayMode::kSportRewrite;
  auto deployment = ThemisDeployment::Install(h.topo, config);

  RecordingHost* src = h.hosts[0];
  RecordingHost* dst = h.hosts[2];  // cross-rack
  for (uint32_t psn = 0; psn < 64; ++psn) {
    src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), psn, 1000, 0x1357));
  }
  h.sim.Run();
  EXPECT_EQ(dst->received.size(), 64u);
  EXPECT_EQ(deployment->s_hooks()[0]->stats().rewrites, 64u);
  // Deterministic uniform spraying: each spine carried exactly 16 packets.
  for (Switch* sw : h.topo.switches) {
    if (sw->name().rfind("spine", 0) == 0) {
      EXPECT_EQ(sw->stats().forwarded, 16u) << sw->name();
    }
  }
}

// --- Pause-aware grace window (PFC-aware Eq. 3 validity) ----------------------

ThemisDConfig GraceConfig() {
  return ThemisDConfig{.num_paths = 2,
                       .queue_capacity = 16,
                       .truncate_entries = true,
                       .compensation_enabled = true,
                       .pause_grace = true,
                       .grace_lookback_ps = 10 * kMicrosecond,
                       .grace_slack_ps = 10 * kMicrosecond};
}

// Injects the Fig. 4b "right" arrival pattern (0,1,2,3,6 — ePSN 4 looks
// genuinely lost) sized so the burst itself trips the ToR's xoff threshold:
// 5 x 1064 wire bytes against xoff=2500 pauses the spine-facing ingress at
// t=0, before any of the t=0 injections have drained.
void BlastSuspectPattern(ThemisDHarness& h) {
  for (uint32_t psn : {0u, 1u, 2u, 3u, 6u}) {
    h.DataAtDstTor(psn);
  }
}

void EnablePfcAtDstTor(ThemisDHarness& h) {
  h.dst_tor->ConfigurePfc(PfcConfig{.enabled = true, .xoff_bytes = 2'500, .xon_bytes = 1'000});
}

TEST(ThemisDGraceTest, DefersValidNackWhenPauseOverlapsSuspectWindow) {
  ThemisDHarness h(GraceConfig());
  EnablePfcAtDstTor(h);
  BlastSuspectPattern(h);
  // The burst paused the spine uplink the data came in on.
  const PauseIntervalLog* log = h.dst_tor->IngressPauseLog(ThemisDHarness::kSpinePort);
  ASSERT_NE(log, nullptr);
  EXPECT_TRUE(log->open());
  // The NACK arrives while the pause is still open: Eq. 3 says valid
  // (6 mod 2 == 4 mod 2), but the overlap defers it instead of forwarding.
  h.sim.Schedule(30 * kNanosecond, [&h] { h.NackFromNic(4); });
  EXPECT_EQ(h.SenderNacks(), 0u);
  EXPECT_EQ(h.hook->stats().nacks_seen, 1u);
  EXPECT_EQ(h.hook->stats().grace_deferred, 1u);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_valid, 0u);
  EXPECT_EQ(h.hook->stats().grace_cancelled, 0u);
  EXPECT_EQ(h.hook->stats().grace_expired, 0u);
}

TEST(ThemisDGraceTest, CancelsDeferredNackWhenOriginalArrives) {
  // The pre-fix spurious-valid scenario, fixed: the "lost" packet was only
  // pause-delayed and shows up — the parked NACK is dropped, the sender
  // never sees it, and no spurious retransmission happens.
  ThemisDHarness h(GraceConfig());
  EnablePfcAtDstTor(h);
  BlastSuspectPattern(h);
  h.sim.Schedule(30 * kNanosecond, [&h] { h.NackFromNic(4); });
  h.sim.Schedule(200 * kNanosecond, [&h] { h.DataAtDstTor(4); });
  EXPECT_EQ(h.SenderNacks(), 0u);
  EXPECT_EQ(h.hook->stats().grace_deferred, 1u);
  EXPECT_EQ(h.hook->stats().grace_cancelled, 1u);
  EXPECT_EQ(h.hook->stats().grace_expired, 0u);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_valid, 0u);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_spurious, 0u);
}

TEST(ThemisDGraceTest, WithoutGraceTheSameScheduleForwardsSpuriousValid) {
  // Regression pin for the pre-fix behaviour: identical schedule, grace off
  // -> Eq. 3 forwards the NACK as valid and the audit convicts it as
  // spurious once the original arrives.
  ThemisDHarness h;  // default config: pause_grace = false
  EnablePfcAtDstTor(h);
  BlastSuspectPattern(h);
  h.sim.Schedule(30 * kNanosecond, [&h] { h.NackFromNic(4); });
  h.sim.Schedule(200 * kNanosecond, [&h] { h.DataAtDstTor(4); });
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_valid, 1u);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_spurious, 1u);
  EXPECT_EQ(h.hook->stats().grace_deferred, 0u);
}

TEST(ThemisDGraceTest, ReleasesNackAfterExpiryOnGenuineLoss) {
  // PSN 4 really is lost: nothing cancels the deferred NACK, so once the
  // extended window (armed time + accumulated pause overlap + slack)
  // elapses, the NACK is released to the sender — grace never swallows a
  // genuine loss signal.
  ThemisDHarness h(GraceConfig());
  EnablePfcAtDstTor(h);
  BlastSuspectPattern(h);
  h.sim.Schedule(30 * kNanosecond, [&h] { h.NackFromNic(4); });
  // Deadline checks ride the flow's own packet stream: a later packet past
  // the ~10.1 us deadline (slack 10 us + sub-us pause overlap) triggers the
  // release without any dedicated simulator event.
  h.sim.Schedule(30 * kMicrosecond, [&h] { h.DataAtDstTor(8); });
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().grace_deferred, 1u);
  EXPECT_EQ(h.hook->stats().grace_expired, 1u);
  EXPECT_EQ(h.hook->stats().grace_cancelled, 0u);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_valid, 1u);
  ASSERT_FALSE(h.sender->received.empty());
  EXPECT_EQ(h.sender->received.back().type, PacketType::kNack);
  EXPECT_EQ(h.sender->received.back().psn, 4u);

  // The sender's retransmission closes the loop: the released NACK is
  // audited genuine, not spurious.
  Packet rtx = MakeDataPacket(1, h.sender->id(), h.receiver->id(), 4, 1000, 0x42);
  rtx.retransmission = true;
  h.dst_tor->ReceivePacket(rtx, ThemisDHarness::kSpinePort);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_genuine, 1u);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_spurious, 0u);
}

TEST(ThemisDGraceTest, RtoRetransmissionCancelsDeferredNack) {
  // If the sender recovers PSN 4 via RTO while the NACK is parked, the NACK
  // is moot: releasing it would only trigger a duplicate retransmission.
  ThemisDHarness h(GraceConfig());
  EnablePfcAtDstTor(h);
  BlastSuspectPattern(h);
  h.sim.Schedule(30 * kNanosecond, [&h] { h.NackFromNic(4); });
  h.sim.Schedule(200 * kNanosecond, [&h] {
    Packet rtx = MakeDataPacket(1, h.sender->id(), h.receiver->id(), 4, 1000, 0x42);
    rtx.retransmission = true;
    h.dst_tor->ReceivePacket(rtx, ThemisDHarness::kSpinePort);
  });
  EXPECT_EQ(h.SenderNacks(), 0u);
  EXPECT_EQ(h.hook->stats().grace_deferred, 1u);
  EXPECT_EQ(h.hook->stats().grace_cancelled, 1u);
}

TEST(ThemisDGraceTest, InertWithoutPauses) {
  // No PFC configured -> no pause ever -> zero overlap -> the grace-enabled
  // hook behaves bit-for-bit like plain Eq. 3 (this is what keeps the
  // determinism goldens unchanged for pause-free configs).
  ThemisDHarness h(GraceConfig());
  BlastSuspectPattern(h);
  h.sim.Schedule(30 * kNanosecond, [&h] { h.NackFromNic(4); });
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().nacks_forwarded_valid, 1u);
  EXPECT_EQ(h.hook->stats().grace_deferred, 0u);
}

// --- Bounded flow table on a real ToR (§4 register-array realism) --------------

ThemisDConfig BoundedConfig(size_t capacity, EvictionPolicy policy, TimePs idle_timeout = 0) {
  ThemisDConfig config{.num_paths = 2,
                       .queue_capacity = 16,
                       .truncate_entries = true,
                       .compensation_enabled = true};
  config.flow_table.capacity = capacity;
  config.flow_table.policy = policy;
  config.flow_table.idle_timeout = idle_timeout;
  return config;
}

TEST(ThemisDFlowTableTest, EvictedFlowNackFailsOpen) {
  // Capacity 1: flow 2's first packet evicts flow 1. Flow 1's NACK then
  // misses the table and must be forwarded unvalidated (fail open) — even
  // though an unbounded table would have blocked it (3 mod 2 != 2 mod 2).
  ThemisDHarness h(BoundedConfig(1, EvictionPolicy::kLruClock));
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  h.DataAtDstTor(3);
  h.DataAtDstTorFlow(2, 0);
  EXPECT_EQ(h.hook->stats().flows_evicted, 1u);
  EXPECT_EQ(h.hook->flow_count(), 1u);
  h.NackFromNic(2);
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().nacks_blocked, 0u);
  // The miss never even counts as "seen": the ToR has no state to judge by.
  EXPECT_EQ(h.hook->stats().nacks_seen, 0u);
}

TEST(ThemisDFlowTableTest, CachedEntryInvalidatedWhenCachedFlowEvictedMidBurst) {
  // Regression for the cached_entry_ contract: the old comment claimed
  // ResetFlowState was the only removal path, so eviction reusing the
  // cached flow's slot would leave a stale pointer aliasing the replacement
  // flow's entry — flow 1's next packet would land in flow 2's PSN ring.
  ThemisDHarness h(BoundedConfig(1, EvictionPolicy::kLruClock));
  h.DataAtDstTor(0);  // flow 1 cached
  h.DataAtDstTor(1);  // cache hit
  h.DataAtDstTorFlow(2, 0);  // evicts flow 1 (capacity 1) and reuses its slot
  EXPECT_EQ(h.hook->stats().flows_evicted, 1u);
  h.DataAtDstTor(10);  // must re-create flow 1, not write through the stale cache
  EXPECT_EQ(h.hook->stats().flows_created, 3u);
  // The NACK proves PSN 10 sits in *flow 1's* ring: tPSN 10 is recovered and
  // Eq. 3 blocks (10 mod 2 != 9 mod 2). A stale cache would have left flow 1
  // untracked -> forwarded unmatched instead.
  h.NackFromNic(9);
  EXPECT_EQ(h.hook->stats().nacks_seen, 1u);
  EXPECT_EQ(h.hook->stats().nacks_blocked, 1u);
  EXPECT_EQ(h.SenderNacks(), 0u);
}

TEST(ThemisDFlowTableTest, ArmedCompensationDeliveredAtEviction) {
  // Section 3.4 obligation under eviction: flow 1's blocked NACK armed a
  // BePSN compensation; evicting the flow must deliver that NACK (the RNIC
  // will never re-NACK the ePSN), not silently drop the obligation.
  ThemisDHarness h(BoundedConfig(1, EvictionPolicy::kLruClock));
  h.DataAtDstTor(0);
  h.DataAtDstTor(1);
  h.DataAtDstTor(3);
  h.NackFromNic(2);  // tPSN 3, different path -> blocked, compensation armed
  EXPECT_EQ(h.hook->stats().nacks_blocked, 1u);
  h.DataAtDstTorFlow(2, 0);  // evicts flow 1 with the compensation still armed
  EXPECT_EQ(h.hook->stats().compensations_evicted, 1u);
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.sender->received.back().type, PacketType::kNack);
  EXPECT_EQ(h.sender->received.back().psn, 2u);
}

TEST(ThemisDFlowTableTest, ParkedGraceNackReleasedAtEviction) {
  // A pause-deferred NACK is flow state too: eviction must release it to
  // the sender (fail open — a withheld loss signal must not vanish), not
  // dangle it.
  ThemisDConfig config = GraceConfig();
  config.flow_table.capacity = 1;
  config.flow_table.policy = EvictionPolicy::kLruClock;
  ThemisDHarness h(config);
  EnablePfcAtDstTor(h);
  BlastSuspectPattern(h);
  h.sim.Schedule(30 * kNanosecond, [&h] { h.NackFromNic(4); });
  h.sim.Schedule(200 * kNanosecond, [&h] { h.DataAtDstTorFlow(2, 0); });
  EXPECT_EQ(h.SenderNacks(), 1u);
  EXPECT_EQ(h.hook->stats().grace_deferred, 1u);
  EXPECT_EQ(h.hook->stats().grace_evicted, 1u);
  EXPECT_EQ(h.hook->stats().grace_expired, 0u);
  EXPECT_EQ(h.sender->received.back().type, PacketType::kNack);
  EXPECT_EQ(h.sender->received.back().psn, 4u);
}

TEST(ThemisDFlowTableTest, ResetFlowStateInteractsCleanlyWithAging) {
  // Reboot-flush x aging: Clear() drops entries and the clock hand but
  // keeps cumulative stats; aging keeps working on the repopulated table.
  ThemisDHarness h(BoundedConfig(4, EvictionPolicy::kIdleTimeout, 1 * kMicrosecond));
  h.DataAtDstTor(0);
  h.DataAtDstTorFlow(2, 0);
  h.DataAtDstTorFlow(3, 0);
  EXPECT_EQ(h.hook->flow_count(), 3u);
  h.hook->ResetFlowState();
  EXPECT_EQ(h.hook->flow_count(), 0u);
  EXPECT_EQ(h.hook->flow_table_stats().inserts, 3u);  // cumulative, survives
  // The flushed flows' NACKs fail open, and their state cannot age out
  // twice: nothing dangles from before the reset.
  h.NackFromNic(0);
  EXPECT_EQ(h.SenderNacks(), 1u);
  // Repopulate after the reset; idle aging still reclaims quiet entries.
  h.sim.Schedule(2 * kMicrosecond, [&h] { h.DataAtDstTorFlow(5, 0); });
  h.sim.Schedule(4 * kMicrosecond, [&h] { h.DataAtDstTorFlow(6, 0); });
  h.sim.Run();
  EXPECT_EQ(h.hook->stats().flows_aged_out, 1u);  // flow 5 idle > 1 us at t=4 us
  EXPECT_EQ(h.hook->flow_count(), 1u);
  EXPECT_EQ(h.hook->stats().flows_evicted, 0u);
}

TEST(ThemisDFlowTableTest, TelemetryAggregatesBeyondFlowCap) {
  // Per-flow counter columns register lazily; beyond telemetry_flow_cap the
  // tallies land in one shared overflow bucket so the registry stays
  // bounded at million-flow scale.
  ThemisDConfig config = BoundedConfig(0, EvictionPolicy::kNone);
  config.telemetry_flow_cap = 2;
  ThemisDHarness h(config);
  CounterRegistry registry;
  h.hook->set_telemetry(&registry, "themis");
  const size_t columns_after_attach = registry.size();
  for (uint32_t flow = 1; flow <= 4; ++flow) {
    h.DataAtDstTorFlow(flow, 0);
    h.DataAtDstTorFlow(flow, 1);
    h.DataAtDstTorFlow(flow, 3);
  }
  // Flows 1 and 2 got their own columns; 3 and 4 hit the cap.
  const size_t per_flow_columns = registry.size() - columns_after_attach;
  EXPECT_EQ(per_flow_columns % 2, 0u);
  for (uint32_t flow = 1; flow <= 4; ++flow) {
    h.NackFromNicFlow(flow, 2);  // blocked: tallies into per-flow or overflow
  }
  EXPECT_EQ(h.hook->stats().nacks_blocked, 4u);
  const int overflow = registry.Find("themis.flow_table.telemetry_overflow");
  ASSERT_GE(overflow, 0);
  // Two provisioning touches (flows 3, 4) + two blocked-NACK tallies.
  EXPECT_EQ(registry.Read(static_cast<size_t>(overflow)), 4.0);
  // The registry did NOT grow new columns for flows 3 and 4.
  EXPECT_EQ(registry.Find("themis.flow3.nack_blocked"), -1);
  const int occupancy = registry.Find("themis.flow_table.occupancy");
  ASSERT_GE(occupancy, 0);
  EXPECT_EQ(registry.Read(static_cast<size_t>(occupancy)), 4.0);
}

TEST(ThemisDFlowTableTest, RejectsInsertWhenFullWithoutEvictionPolicy) {
  // kNone + capacity: the register array refuses new flows (fail open —
  // their packets pass untracked) rather than sacrificing live state.
  ThemisDHarness h(BoundedConfig(2, EvictionPolicy::kNone));
  h.DataAtDstTor(0);
  h.DataAtDstTorFlow(2, 0);
  h.DataAtDstTorFlow(3, 0);  // table full: rejected, forwarded untracked
  EXPECT_EQ(h.hook->flow_count(), 2u);
  EXPECT_EQ(h.hook->stats().flows_rejected, 1u);
  EXPECT_EQ(h.hook->stats().flows_evicted, 0u);
  // The rejected flow's NACK fails open like any unknown flow's.
  h.NackFromNicFlow(3, 0);
  EXPECT_EQ(h.SenderNacks(), 1u);
  // Data still reached the receiver despite being untracked.
  h.sim.Run();
  EXPECT_EQ(h.receiver->received.size(), 3u);
}

TEST(ThemisSTest, DoesNotRewriteIntraRackTraffic) {
  DeployHarness h;
  ThemisDeploymentConfig config;
  config.spray_mode = SprayMode::kSportRewrite;
  auto deployment = ThemisDeployment::Install(h.topo, config);
  RecordingHost* src = h.hosts[0];
  RecordingHost* dst = h.hosts[1];  // same rack
  src->port(0)->Send(MakeDataPacket(1, src->id(), dst->id(), 0, 1000, 0x1357));
  h.sim.Run();
  ASSERT_EQ(dst->received.size(), 1u);
  EXPECT_EQ(dst->received[0].udp_sport, 0x1357);
  EXPECT_EQ(deployment->s_hooks()[0]->stats().rewrites, 0u);
}

}  // namespace
}  // namespace themis
