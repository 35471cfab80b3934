// Tests for Priority Flow Control: pause semantics at the port, per-ingress
// accounting at the switch, losslessness under incast, and NIC reaction.

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/topo/leaf_spine.h"
#include "src/workload/flow_driver.h"

namespace themis {
namespace {

class SinkNode : public Node {
 public:
  SinkNode(Simulator* sim, int id, std::string name)
      : Node(sim, id, NodeKind::kHost, std::move(name)) {}
  void ReceivePacket(const Packet& pkt, int) override { received.push_back(pkt); }
  std::vector<Packet> received;
};

TEST(PortPauseTest, PausedPortHoldsDataServesControl) {
  Simulator sim;
  Network net(&sim);
  SinkNode* a = net.MakeNode<SinkNode>("a");
  SinkNode* b = net.MakeNode<SinkNode>("b");
  LinkSpec spec;
  spec.propagation_delay = 0;
  net.Connect(a, b, spec);
  Port* ab = a->port(0);

  ab->SetPaused(true);
  ab->Send(MakeDataPacket(1, 0, 1, 0, 1000, 0));
  ab->Send(MakeControlPacket(PacketType::kAck, 1, 0, 1, 0, 0));
  sim.Run();
  // Only the control packet got through.
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(b->received[0].type, PacketType::kAck);

  ab->SetPaused(false);
  sim.Run();
  ASSERT_EQ(b->received.size(), 2u);
  EXPECT_EQ(b->received[1].type, PacketType::kData);
  EXPECT_EQ(ab->stats().pause_transitions, 1u);
}

TEST(PortPauseTest, PauseMidStreamFinishesCurrentPacket) {
  Simulator sim;
  Network net(&sim);
  SinkNode* a = net.MakeNode<SinkNode>("a");
  SinkNode* b = net.MakeNode<SinkNode>("b");
  LinkSpec spec;
  spec.rate = Rate::Gbps(1);
  spec.propagation_delay = 0;
  net.Connect(a, b, spec);
  Port* ab = a->port(0);

  ab->Send(MakeDataPacket(1, 0, 1, 0, 1000, 0));  // on the wire immediately
  ab->Send(MakeDataPacket(1, 0, 1, 1, 1000, 0));  // queued
  sim.Schedule(kMicrosecond, [ab] { ab->SetPaused(true); });  // mid-packet-0
  sim.Run();
  // Packet 0 completes (no preemption), packet 1 held.
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(b->received[0].psn, 0u);
}

// 1064 wire bytes at 1 Gbps.
constexpr TimePs kSer1000B1Gbps = Rate::Gbps(1).SerializationTime(1064);

TEST(PortPauseTest, PauseMidSerializationRecordsExactInterval) {
  // A pause landing mid-packet must not preempt the wire, but the interval
  // log has to record the pause exactly as asserted: [1 us, 20 us], with
  // overlap queries answering any sub-window.
  Simulator sim;
  Network net(&sim);
  SinkNode* a = net.MakeNode<SinkNode>("a");
  SinkNode* b = net.MakeNode<SinkNode>("b");
  LinkSpec spec;
  spec.rate = Rate::Gbps(1);
  spec.propagation_delay = 0;
  net.Connect(a, b, spec);
  Port* ab = a->port(0);

  ab->Send(MakeDataPacket(1, 0, 1, 0, 1000, 0));  // serializing until ~8.5 us
  ab->Send(MakeDataPacket(1, 0, 1, 1, 1000, 0));  // queued behind it
  sim.Schedule(kMicrosecond, [ab] { ab->SetPaused(true); });
  sim.Schedule(20 * kMicrosecond, [ab] { ab->SetPaused(false); });
  sim.Run();

  // Packet 0 finished despite the pause; packet 1 waited for the resume.
  ASSERT_EQ(b->received.size(), 2u);
  EXPECT_EQ(sim.now(), 20 * kMicrosecond + kSer1000B1Gbps);

  EXPECT_EQ(ab->stats().paused_time_ps, 19 * kMicrosecond);
  EXPECT_EQ(ab->PausedTimePs(), 19 * kMicrosecond);
  const PauseIntervalLog& log = ab->pause_log();
  EXPECT_FALSE(log.open());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.closed(0).begin, kMicrosecond);
  EXPECT_EQ(log.closed(0).end, 20 * kMicrosecond);
  EXPECT_EQ(log.TotalPausedPs(sim.now()), ab->PausedTimePs());
  // Overlap queries: containing, clipped, and disjoint windows.
  EXPECT_EQ(log.OverlapPs(0, 30 * kMicrosecond, sim.now()), 19 * kMicrosecond);
  EXPECT_EQ(log.OverlapPs(5 * kMicrosecond, 10 * kMicrosecond, sim.now()), 5 * kMicrosecond);
  EXPECT_EQ(log.OverlapPs(0, kMicrosecond, sim.now()), 0);
  EXPECT_EQ(log.OverlapPs(30 * kMicrosecond, 40 * kMicrosecond, sim.now()), 0);
}

TEST(PortPauseTest, ResumeBeforeDrainRestartsImmediately) {
  // Resume arriving long before the pause would "naturally" matter (the
  // queue never drained) restarts transmission at the resume instant, and
  // the logged interval is exactly the asserted one.
  Simulator sim;
  Network net(&sim);
  SinkNode* a = net.MakeNode<SinkNode>("a");
  SinkNode* b = net.MakeNode<SinkNode>("b");
  LinkSpec spec;
  spec.rate = Rate::Gbps(1);
  spec.propagation_delay = 0;
  net.Connect(a, b, spec);
  Port* ab = a->port(0);

  ab->SetPaused(true);
  ab->Send(MakeDataPacket(1, 0, 1, 0, 1000, 0));  // held
  sim.Schedule(2 * kMicrosecond, [ab] { ab->SetPaused(false); });
  sim.Run();

  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(sim.now(), 2 * kMicrosecond + kSer1000B1Gbps);
  EXPECT_EQ(ab->stats().pause_transitions, 1u);
  EXPECT_EQ(ab->stats().paused_time_ps, 2 * kMicrosecond);
  ASSERT_EQ(ab->pause_log().size(), 1u);
  EXPECT_EQ(ab->pause_log().closed(0).begin, 0);
  EXPECT_EQ(ab->pause_log().closed(0).end, 2 * kMicrosecond);
  EXPECT_FALSE(ab->pause_log().open());
}

TEST(PortPauseTest, BackToBackPauseRefreshCoalescesToOneInterval) {
  // PFC pause frames are refreshed while congestion persists: re-asserting
  // an already-paused port must neither count a new transition nor split
  // the logged interval. A later, separate pause opens a second interval.
  Simulator sim;
  Network net(&sim);
  SinkNode* a = net.MakeNode<SinkNode>("a");
  SinkNode* b = net.MakeNode<SinkNode>("b");
  LinkSpec spec;
  spec.propagation_delay = 0;
  net.Connect(a, b, spec);
  Port* ab = a->port(0);

  ab->SetPaused(true);
  sim.Schedule(1 * kMicrosecond, [ab] { ab->SetPaused(true); });  // refresh
  sim.Schedule(2 * kMicrosecond, [ab] { ab->SetPaused(true); });  // refresh
  sim.Schedule(3 * kMicrosecond, [ab] { ab->SetPaused(false); });
  sim.Schedule(5 * kMicrosecond, [ab] { ab->SetPaused(true); });
  sim.Schedule(6 * kMicrosecond, [ab] { ab->SetPaused(false); });
  sim.Run();

  EXPECT_EQ(ab->stats().pause_transitions, 2u);
  EXPECT_EQ(ab->stats().paused_time_ps, 4 * kMicrosecond);
  const PauseIntervalLog& log = ab->pause_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.closed(0).begin, 0);
  EXPECT_EQ(log.closed(0).end, 3 * kMicrosecond);
  EXPECT_EQ(log.closed(1).begin, 5 * kMicrosecond);
  EXPECT_EQ(log.closed(1).end, 6 * kMicrosecond);
  // A window spanning the gap counts both intervals' clipped parts only.
  EXPECT_EQ(log.OverlapPs(2 * kMicrosecond, 5'500'000, sim.now()), 1'500'000);
}

TEST(PortPauseTest, PauseOnFailedLinkKeepsAccountingConsistent) {
  // A link can fail while its port is paused (the PR-4 drop path): the
  // in-flight packet is blackholed, later sends drop at enqueue, and the
  // pause interval accounting stays exact through all of it.
  Simulator sim;
  Network net(&sim);
  SinkNode* a = net.MakeNode<SinkNode>("a");
  SinkNode* b = net.MakeNode<SinkNode>("b");
  LinkSpec spec;
  spec.rate = Rate::Gbps(1);
  spec.propagation_delay = 0;
  net.Connect(a, b, spec);
  Port* ab = a->port(0);

  ab->Send(MakeDataPacket(1, 0, 1, 0, 1000, 0));  // on the wire
  sim.Schedule(1 * kMicrosecond, [ab] { ab->SetPaused(true); });
  sim.Schedule(2 * kMicrosecond, [ab] { ab->set_failed(true); });
  // Send while both paused and failed: dropped at enqueue.
  sim.Schedule(5 * kMicrosecond, [ab] { ab->Send(MakeDataPacket(1, 0, 1, 1, 1000, 0)); });
  sim.Schedule(20 * kMicrosecond, [ab] { ab->SetPaused(false); });
  sim.Run();

  // The in-flight packet died at delivery time; nothing ever reached b.
  EXPECT_TRUE(b->received.empty());
  EXPECT_EQ(ab->stats().drops, 2u);
  // Pause accounting is independent of the failure.
  EXPECT_EQ(ab->stats().paused_time_ps, 19 * kMicrosecond);
  ASSERT_EQ(ab->pause_log().size(), 1u);
  EXPECT_EQ(ab->pause_log().closed(0).begin, 1 * kMicrosecond);
  EXPECT_EQ(ab->pause_log().closed(0).end, 20 * kMicrosecond);
  EXPECT_FALSE(ab->pause_log().open());
}

// Incast through one switch: many senders, one receiver, queue far larger
// than the receiver drain. Without PFC the egress drops; with PFC pauses
// propagate and nothing is lost.
struct IncastHarness {
  Simulator sim;
  Network net{&sim};
  std::vector<SinkNode*> hosts;
  Topology topo;

  explicit IncastHarness(bool pfc, int64_t queue_bytes) {
    LeafSpineConfig config;
    config.num_tors = 2;
    config.num_spines = 2;
    config.hosts_per_tor = 4;
    // Hosts hold their own backlog (the NIC pauses, it does not drop);
    // fabric queues are the scarce resource PFC must protect.
    config.host_link.queue_capacity_bytes = 8 << 20;
    config.fabric_link.queue_capacity_bytes = queue_bytes;
    topo = BuildLeafSpine(net, config, [this](Network& n, int, const std::string& name) {
      SinkNode* host = n.MakeNode<SinkNode>(name);
      hosts.push_back(host);
      return host;
    });
    if (pfc) {
      for (Switch* sw : topo.switches) {
        sw->ConfigurePfc(PfcConfig{.enabled = true, .xoff_bytes = 20'000, .xon_bytes = 10'000});
      }
    }
  }

  // All rack-0 hosts send line-rate-paced packets at host 4 (rack 1):
  // a 4:1 incast on host 4's downlink (no congestion control).
  void Blast(int packets_per_sender) {
    const TimePs gap = hosts[0]->port(0)->rate().SerializationTime(1500);
    for (int s = 0; s < 4; ++s) {
      SinkNode* sender = hosts[static_cast<size_t>(s)];
      for (int i = 0; i < packets_per_sender; ++i) {
        Packet pkt =
            MakeDataPacket(static_cast<uint32_t>(s + 1), sender->id(), hosts[4]->id(),
                           static_cast<uint32_t>(i), 1436, static_cast<uint16_t>(s * 11));
        sim.Schedule(gap * i, [sender, pkt] { sender->port(0)->Send(pkt); });
      }
    }
  }

  uint64_t TotalDrops() const {
    uint64_t drops = 0;
    for (const DuplexLink& link : net.links()) {
      drops += link.a.node->port(link.a.port)->stats().drops;
      drops += link.b.node->port(link.b.port)->stats().drops;
    }
    return drops;
  }
};

TEST(PfcTest, IncastDropsWithoutPfc) {
  IncastHarness h(/*pfc=*/false, /*queue_bytes=*/60'000);
  h.Blast(200);
  h.sim.Run();
  EXPECT_GT(h.TotalDrops(), 0u);
  EXPECT_LT(h.hosts[4]->received.size(), 800u);
}

TEST(PfcTest, IncastLosslessWithPfc) {
  IncastHarness h(/*pfc=*/true, /*queue_bytes=*/200'000);
  h.Blast(200);
  h.sim.Run();
  EXPECT_EQ(h.TotalDrops(), 0u);
  EXPECT_EQ(h.hosts[4]->received.size(), 800u);
  // Pauses actually happened (it was a real incast).
  uint64_t pauses = 0;
  for (Switch* sw : h.topo.switches) {
    pauses += sw->stats().pfc_pauses_sent;
  }
  EXPECT_GT(pauses, 0u);
}

TEST(PfcTest, ResumeFollowsDrain) {
  IncastHarness h(/*pfc=*/true, /*queue_bytes=*/60'000);
  h.Blast(50);
  h.sim.Run();
  // Every pause was eventually matched by a resume once queues drained.
  for (Switch* sw : h.topo.switches) {
    EXPECT_EQ(sw->stats().pfc_pauses_sent, sw->stats().pfc_resumes_sent) << sw->name();
    for (int p = 0; p < sw->port_count(); ++p) {
      EXPECT_EQ(sw->IngressBufferBytes(p), 0) << sw->name() << " port " << p;
    }
  }
}

TEST(PfcTest, IngressPauseLogMatchesPortAccounting) {
  // The per-interval pause export must agree with the aggregate counters it
  // sits beside: every resume closes exactly one interval, every paused
  // upstream port's interval log sums to its paused_time_ps, and the
  // switch-side per-ingress logs mirror the pause/resume frames it sent.
  IncastHarness h(/*pfc=*/true, /*queue_bytes=*/60'000);
  h.Blast(50);
  h.sim.Run();
  const TimePs now = h.sim.now();

  uint64_t pauses = 0;
  uint64_t resumes = 0;
  uint64_t closed_intervals = 0;
  bool any_overlap = false;
  for (Switch* sw : h.topo.switches) {
    pauses += sw->stats().pfc_pauses_sent;
    resumes += sw->stats().pfc_resumes_sent;
    for (int p = 0; p < sw->port_count(); ++p) {
      const PauseIntervalLog* log = sw->IngressPauseLog(p);
      if (log == nullptr) {
        continue;
      }
      EXPECT_FALSE(log->open()) << sw->name() << " port " << p;
      EXPECT_GT(log->size(), 0u) << sw->name() << " port " << p;  // allocated by a pause
      EXPECT_EQ(log->evicted(), 0u) << sw->name() << " port " << p;
      closed_intervals += log->size();
      if (sw->MaxIngressPauseOverlapPs(0, now) > 0) {
        any_overlap = true;
      }
    }
  }
  ASSERT_GT(pauses, 0u);  // it was a real incast
  EXPECT_EQ(pauses, resumes);
  EXPECT_EQ(closed_intervals, resumes);
  EXPECT_TRUE(any_overlap);

  // Upstream side: ports that were actually paused agree interval-by-
  // interval with their aggregate pause time.
  uint64_t paused_ports = 0;
  for (const DuplexLink& link : h.net.links()) {
    for (Port* port : {link.a.node->port(link.a.port), link.b.node->port(link.b.port)}) {
      if (port->stats().pause_transitions == 0) {
        EXPECT_EQ(port->pause_log().size(), 0u);
        continue;
      }
      ++paused_ports;
      EXPECT_FALSE(port->pause_log().open());
      EXPECT_EQ(port->pause_log().TotalPausedPs(now), port->PausedTimePs());
      EXPECT_EQ(port->pause_log().OverlapPs(0, now, now), port->PausedTimePs());
    }
  }
  EXPECT_GT(paused_ports, 0u);
}

TEST(PfcTest, PauseLogsExistOnlyWhereAPauseHappened) {
  // Logs are allocated at the first pause: an ingress that carried traffic
  // without pausing has none, and a port that never paused reads as empty.
  IncastHarness h(/*pfc=*/true, /*queue_bytes=*/200'000);
  h.Blast(1);  // one packet per sender, far below xoff
  h.sim.Run();
  ASSERT_EQ(h.hosts[4]->received.size(), 4u);
  const TimePs now = h.sim.now();
  for (Switch* sw : h.topo.switches) {
    EXPECT_EQ(sw->stats().pfc_pauses_sent, 0u) << sw->name();
    EXPECT_EQ(sw->MaxIngressPauseOverlapPs(0, now), 0) << sw->name();
    for (int p = 0; p < sw->port_count(); ++p) {
      EXPECT_EQ(sw->IngressPauseLog(p), nullptr) << sw->name() << " port " << p;
      const PauseIntervalLog& log = sw->port(p)->pause_log();
      EXPECT_EQ(log.size(), 0u) << sw->name() << " port " << p;
      EXPECT_FALSE(log.open()) << sw->name() << " port " << p;
      EXPECT_EQ(log.TotalPausedPs(now), 0) << sw->name() << " port " << p;
    }
  }
}

TEST(PfcExperimentTest, ThresholdsAutoScaleWithRate) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  config.link_rate = Rate::Gbps(100);
  Experiment exp(config);
  EXPECT_EQ(exp.config().pfc_xoff_bytes, 150 * 1024 / 4);
  EXPECT_EQ(exp.config().pfc_xon_bytes, 100 * 1024 / 4);
}

TEST(PfcExperimentTest, EcmpCollectiveIsLossless) {
  // The very scenario that drowned in drops without PFC: synchronized
  // elephant flows colliding under ECMP.
  ExperimentConfig config;
  config.num_tors = 4;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = Scheme::kEcmp;
  config.cc = CcKind::kDcqcn;
  config.dcqcn_ti = 55 * kMicrosecond;
  config.dcqcn_td = 50 * kMicrosecond;
  Experiment exp(config);
  auto result = exp.RunCollective(CollectiveKind::kAllreduce, exp.MakeCrossRackGroups(4),
                                  4 << 20, 10 * kSecond);
  ASSERT_TRUE(result.all_done);
  EXPECT_EQ(exp.TotalPortDrops(), 0u);
  EXPECT_EQ(exp.TotalTimeouts(), 0u);
}

TEST(PfcExperimentTest, DisablingPfcRestoresDropBehaviour) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = Scheme::kEcmp;
  config.pfc_enabled = false;
  config.cc = CcKind::kFixedRate;  // no CC reaction: queues must overflow
  config.port_queue_bytes = 100 * 1024;
  config.ecn.enabled = false;
  Experiment exp(config);
  // 4:1 incast: everyone sends to rank 4.
  auto ops = std::vector<std::unique_ptr<CollectiveOp>>{};
  for (int s : {0, 1, 2, 3}) {
    exp.connections().GetChannel(s, 4).tx->PostMessage(2 << 20, nullptr);
  }
  exp.sim().RunUntil(50 * kMillisecond);
  EXPECT_GT(exp.TotalPortDrops(), 0u);
}

// --- Spurious-valid regression (ROADMAP "PFC-aware NACK validity") ------------

// The FCT smoke operating point where the artefact reproduces: a small
// 400 Gbps leaf-spine under an incast-heavy open-loop load. Pause storms
// delay same-path packets long enough that Eq. 3 convicts them as lost.
ExperimentConfig SpuriousValidFabric(bool grace) {
  ExperimentConfig config;
  config.seed = 42;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(400);
  config.scheme = Scheme::kThemis;
  config.themis_spray_mode = SprayMode::kTorEgress;
  config.pfc_enabled = true;
  config.themis_pause_grace = grace;
  return config;
}

FctWorkloadResult RunSpuriousValidWorkload(bool grace) {
  WorkloadSpec workload;
  workload.pattern = TrafficPattern::kIncastMix;
  workload.load = 0.6;
  workload.window = 200 * kMicrosecond;
  workload.incast_fanin = 4;
  workload.incast_fraction = 0.5;
  workload.seed = 42;
  workload.max_flows = 48;
  return RunFctWorkload(SpuriousValidFabric(grace), workload, FlowSizeCdf::AliStorage(),
                        {.deadline = workload.window * 40});
}

TEST(PfcGraceRegressionTest, GraceWindowEliminatesSpuriousValidNacks) {
  // Pre-fix behaviour (grace off): under PFC a large share of "valid" NACKs
  // are pause artefacts — the audit catches the original arriving later.
  const FctWorkloadResult before = RunSpuriousValidWorkload(/*grace=*/false);
  ASSERT_EQ(before.flows_completed, before.flows_total);
  ASSERT_GT(before.themis.nacks_forwarded_spurious, 0u);
  EXPECT_EQ(before.themis.grace_deferred, 0u);

  // Post-fix: the grace window defers those NACKs and the original's
  // arrival cancels them. Acceptance: >= 80% of the spurious-valid share is
  // gone (the no-PFC baseline is zero, so this closes >= 80% of the gap).
  const FctWorkloadResult after = RunSpuriousValidWorkload(/*grace=*/true);
  ASSERT_EQ(after.flows_completed, after.flows_total);
  EXPECT_GT(after.themis.grace_deferred, 0u);
  EXPECT_LE(after.themis.nacks_forwarded_spurious * 5, before.themis.nacks_forwarded_spurious);

  // No regression in genuine-loss recovery: every deferral resolved (no
  // NACK parked forever), every flow still completed, and the tail did not
  // blow up relative to the pre-fix run.
  EXPECT_EQ(after.themis.grace_deferred,
            after.themis.grace_cancelled + after.themis.grace_expired);
  EXPECT_LE(after.slowdown.p99, before.slowdown.p99 * 1.25);
}

}  // namespace
}  // namespace themis
