// FlowTable unit tests (capacity, collision/rehash, eviction-order
// determinism, aging) plus the fail-open-on-eviction property test: a
// capacity-starved, constantly-evicting Themis-D in front of per-flow
// reference NIC-SR receivers must never stall end-to-end loss recovery —
// every inference the ToR loses at eviction time degrades to "forward
// unvalidated" or "deliver the armed compensation", never to a dangled
// obligation.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/themis/flow_table.h"
#include "src/themis/themis_d.h"
#include "src/topo/leaf_spine.h"
#include "tests/reference_nic_sr.h"

namespace themis {
namespace {

// ---------------------------------------------------------------------------
// Container unit tests (FlowTable<uint32_t>, entry value == key).
// ---------------------------------------------------------------------------

FlowTableConfig Config(size_t capacity, EvictionPolicy policy, TimePs idle_timeout = 0,
                       uint32_t entry_bytes = 28) {
  FlowTableConfig config;
  config.capacity = capacity;
  config.policy = policy;
  config.idle_timeout = idle_timeout;
  config.entry_bytes = entry_bytes;
  return config;
}

// FindOrCreate with entry == key and eviction keys appended to `evicted`.
uint32_t* Insert(FlowTable<uint32_t>& table, uint32_t key, TimePs now,
                 std::vector<uint32_t>* evicted = nullptr, bool* inserted_out = nullptr) {
  bool inserted = false;
  uint32_t* entry = table.FindOrCreate(
      key, now, &inserted, [key] { return key; },
      [evicted](uint32_t victim, uint32_t&&, bool) {
        if (evicted != nullptr) {
          evicted->push_back(victim);
        }
      });
  if (inserted_out != nullptr) {
    *inserted_out = inserted;
  }
  return entry;
}

TEST(FlowTableTest, FullTableWithoutPolicyRejectsInserts) {
  FlowTable<uint32_t> table(Config(2, EvictionPolicy::kNone));
  EXPECT_NE(Insert(table, 1, 0), nullptr);
  EXPECT_NE(Insert(table, 2, 0), nullptr);
  bool inserted = true;
  EXPECT_EQ(Insert(table, 3, 0, nullptr, &inserted), nullptr);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.stats().rejected, 1u);
  EXPECT_EQ(table.stats().evictions, 0u);
  // Existing keys are still reachable; the rejected key is not.
  EXPECT_NE(table.Find(1, 0), nullptr);
  EXPECT_EQ(table.Find(3, 0), nullptr);
}

TEST(FlowTableTest, UnboundedModeNeverEvictsAndTracksLiveFootprint) {
  FlowTable<uint32_t> table(Config(0, EvictionPolicy::kLruClock));
  std::vector<uint32_t> evicted;
  for (uint32_t key = 0; key < 1000; ++key) {
    Insert(table, key, 0, &evicted);
  }
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(table.size(), 1000u);
  EXPECT_FALSE(table.bounded());
  // Unbounded: the dataplane model charges only the live population.
  EXPECT_EQ(table.ModelBytes(), 1000u * 28u);
  EXPECT_EQ(table.stats().peak_occupancy, 1000u);
}

TEST(FlowTableTest, BoundedModelBytesAreProvisionedGeometryNotOccupancy) {
  // The §4 register array occupies capacity x entry width whether or not
  // flows are live — exactly what EstimateThemisMemory's per-QP term says.
  FlowTable<uint32_t> table(Config(1600, EvictionPolicy::kLruClock));
  EXPECT_EQ(table.ModelBytes(), 1600u * 28u);
  Insert(table, 7, 0);
  EXPECT_EQ(table.ModelBytes(), 1600u * 28u);
  EXPECT_GT(table.HostBytes(), 0u);
}

TEST(FlowTableTest, EntryPointersSurviveRehash) {
  // Buckets start at 16 and rehash at 75% load; 200 inserts force several
  // growths. Slots live in a deque, so every previously returned pointer
  // must stay valid and keep its value.
  FlowTable<uint32_t> table(Config(0, EvictionPolicy::kNone));
  std::vector<uint32_t*> pointers;
  for (uint32_t key = 0; key < 200; ++key) {
    pointers.push_back(Insert(table, key * 977u, 0));
  }
  for (uint32_t key = 0; key < 200; ++key) {
    ASSERT_NE(pointers[key], nullptr);
    EXPECT_EQ(*pointers[key], key * 977u);
    // Find resolves through the rebuilt index to the same slot.
    EXPECT_EQ(table.Find(key * 977u, 0), pointers[key]);
  }
}

TEST(FlowTableTest, LruClockEvictionOrderIsExact) {
  // Second-chance clock, capacity 4. Inserting keys 1..4 leaves all
  // reference bits set with the hand at slot 0. Key 5 forces a first circle
  // that clears every bit, then evicts slot 0 (key 1). Find(2) re-arms
  // key 2's bit, so key 6 clears it and evicts key 3 — the first unset slot
  // after the hand.
  FlowTable<uint32_t> table(Config(4, EvictionPolicy::kLruClock));
  std::vector<uint32_t> evicted;
  for (uint32_t key = 1; key <= 4; ++key) {
    Insert(table, key, 0, &evicted);
  }
  Insert(table, 5, 0, &evicted);
  ASSERT_EQ(evicted, (std::vector<uint32_t>{1}));
  EXPECT_NE(table.Find(2, 0), nullptr);  // second chance for key 2
  Insert(table, 6, 0, &evicted);
  EXPECT_EQ(evicted, (std::vector<uint32_t>{1, 3}));
  // Final membership is fully determined.
  for (uint32_t key : {2u, 4u, 5u, 6u}) {
    EXPECT_NE(table.Peek(key), nullptr) << key;
  }
  for (uint32_t key : {1u, 3u}) {
    EXPECT_EQ(table.Peek(key), nullptr) << key;
  }
  EXPECT_EQ(table.stats().evictions, 2u);
}

TEST(FlowTableTest, PeekIsInvisibleToTheClockFindIsNot) {
  // After key 4 evicts key 1, the hand sits past the cleared slots. A flow
  // touched via Find survives the next eviction (its bit is re-armed); the
  // same flow merely Peeked does not. Telemetry sampling must therefore
  // never perturb eviction order.
  auto churn = [](bool use_find) {
    FlowTable<uint32_t> table(Config(3, EvictionPolicy::kLruClock));
    std::vector<uint32_t> evicted;
    for (uint32_t key = 1; key <= 3; ++key) {
      Insert(table, key, 0, &evicted);
    }
    Insert(table, 4, 0, &evicted);  // clears all bits, evicts key 1
    if (use_find) {
      table.Find(2, 0);
    } else {
      table.Peek(2);
    }
    Insert(table, 5, 0, &evicted);
    return evicted;
  };
  EXPECT_EQ(churn(/*use_find=*/true), (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(churn(/*use_find=*/false), (std::vector<uint32_t>{1, 2}));
}

TEST(FlowTableTest, IdleTimeoutNeverSacrificesActiveFlows) {
  FlowTable<uint32_t> table(Config(2, EvictionPolicy::kIdleTimeout, /*idle_timeout=*/100));
  std::vector<uint32_t> evicted;
  Insert(table, 1, /*now=*/0, &evicted);
  Insert(table, 2, /*now=*/10, &evicted);
  // Both entries are younger than the timeout: the insert is refused, the
  // live flows keep their state (a full table of active flows fails open).
  bool inserted = true;
  EXPECT_EQ(Insert(table, 3, /*now=*/50, &evicted, &inserted), nullptr);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(table.stats().rejected, 1u);
  EXPECT_TRUE(evicted.empty());
  // Once both have been quiet past the timeout, the pre-insert age scan
  // reclaims them (budgeted, deterministic hand order).
  EXPECT_NE(Insert(table, 4, /*now=*/150, &evicted), nullptr);
  EXPECT_EQ(evicted, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(table.stats().aged_out, 2u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableTest, PeekMutDoesNotRefreshTheIdleClock) {
  // The reorder buffer's flush timer probes entries via PeekMut; that probe
  // must not make an idle flow look hot, or timers would pin flows in the
  // table forever.
  FlowTable<uint32_t> quiet(Config(1, EvictionPolicy::kIdleTimeout, /*idle_timeout=*/100));
  Insert(quiet, 1, /*now=*/0);
  EXPECT_NE(quiet.PeekMut(1), nullptr);  // control-plane probe at t=90
  std::vector<uint32_t> evicted;
  EXPECT_NE(Insert(quiet, 2, /*now=*/150, &evicted), nullptr);
  EXPECT_EQ(evicted, (std::vector<uint32_t>{1}));  // aged despite the probe
  EXPECT_EQ(quiet.stats().aged_out, 1u);

  FlowTable<uint32_t> touched(Config(1, EvictionPolicy::kIdleTimeout, /*idle_timeout=*/100));
  Insert(touched, 1, /*now=*/0);
  EXPECT_NE(touched.Find(1, /*now=*/90), nullptr);  // dataplane touch
  bool inserted = true;
  EXPECT_EQ(Insert(touched, 2, /*now=*/150, nullptr, &inserted), nullptr);
  EXPECT_FALSE(inserted);  // idle for only 60 < 100: still active, refused
  EXPECT_EQ(touched.stats().rejected, 1u);
}

TEST(FlowTableTest, ClearDropsEntriesButKeepsCumulativeStats) {
  FlowTable<uint32_t> table(Config(4, EvictionPolicy::kLruClock));
  for (uint32_t key = 1; key <= 3; ++key) {
    Insert(table, key, 0);
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(1, 0), nullptr);
  EXPECT_EQ(table.stats().inserts, 3u);        // monotonic counters survive
  EXPECT_EQ(table.stats().peak_occupancy, 3u);
  // The cleared table is fully reusable.
  EXPECT_NE(Insert(table, 9, 0), nullptr);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stats().inserts, 4u);
}

TEST(FlowTableTest, HitMissAccounting) {
  FlowTable<uint32_t> table(Config(0, EvictionPolicy::kNone));
  EXPECT_EQ(table.Find(1, 0), nullptr);
  Insert(table, 1, 0);
  EXPECT_NE(table.Find(1, 0), nullptr);
  EXPECT_NE(table.Find(1, 0), nullptr);
  EXPECT_EQ(table.stats().misses, 2u);  // the failed Find + FindOrCreate's probe
  EXPECT_EQ(table.stats().hits, 2u);
}

TEST(FlowTableTest, EvictionOrderIsIdenticalAcrossRunsAndSweepThreads) {
  // The table draws no randomness and never reads the wall clock, so a
  // fixed churn sequence yields a bit-identical eviction stream — including
  // under different THEMIS_SWEEP_THREADS settings (the env var the sweep
  // driver uses; nothing in the table may consult it).
  auto churn = [] {
    FlowTable<uint32_t> table(Config(8, EvictionPolicy::kLruClock));
    std::vector<uint32_t> evicted;
    uint64_t x = 0x9E3779B97F4A7C15ull;  // fixed LCG churn, 64-key universe
    for (TimePs now = 0; now < 4096; ++now) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      Insert(table, static_cast<uint32_t>(x >> 33) % 64, now, &evicted);
    }
    return evicted;
  };
  setenv("THEMIS_SWEEP_THREADS", "1", /*overwrite=*/1);
  const std::vector<uint32_t> first = churn();
  setenv("THEMIS_SWEEP_THREADS", "8", /*overwrite=*/1);
  const std::vector<uint32_t> second = churn();
  unsetenv("THEMIS_SWEEP_THREADS");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Fail-open-on-eviction property test: an evicting Themis-D between real
// senders and the brute-force reference NIC-SR receiver.
// ---------------------------------------------------------------------------

class RecordingHost : public Node {
 public:
  RecordingHost(Simulator* sim, int id, std::string name)
      : Node(sim, id, NodeKind::kHost, std::move(name)) {}
  void ReceivePacket(const Packet& pkt, int) override { received.push_back(pkt); }
  std::vector<Packet> received;
};

// Many flows, random loss/duplication, fully shuffled cross-flow arrival
// order, through a dst ToR whose Themis-D has a 4-entry LRU flow table —
// every flow is evicted over and over mid-recovery. The sender implements
// the NIC-SR contract: selective-retransmit whatever NACK reaches it, plus
// a retransmission-timeout fallback (resend the current ePSN) for rounds
// where Themis blocked the NACK and the armed compensation has not fired
// yet. The property: recovery terminates for every flow within the
// selective-retransmit bound — eviction may cost filtering efficacy (leaked
// spurious NACKs), never correctness.
TEST(FlowTableFailOpenPropertyTest, EvictingThemisDNeverStallsRecovery) {
  constexpr uint32_t kFlows = 12;
  constexpr uint32_t kPackets = 24;

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Simulator sim;
    Network net{&sim};
    std::vector<RecordingHost*> hosts;
    LeafSpineConfig topo_config;
    topo_config.num_tors = 2;
    topo_config.num_spines = 2;
    topo_config.hosts_per_tor = 1;
    Topology topo =
        BuildLeafSpine(net, topo_config, [&hosts](Network& n, int, const std::string& name) {
          RecordingHost* host = n.MakeNode<RecordingHost>(name);
          hosts.push_back(host);
          return host;
        });
    Switch* dst_tor = topo.tors[1];
    RecordingHost* sender = hosts[0];
    RecordingHost* receiver = hosts[1];

    ThemisDConfig config;
    config.num_paths = 2;
    config.queue_capacity = 16;
    config.truncate_entries = true;
    config.compensation_enabled = true;
    config.flow_table.capacity = 4;  // 12 live flows -> constant eviction
    config.flow_table.policy = EvictionPolicy::kLruClock;
    ThemisD hook(config);
    dst_tor->AddHook(&hook);

    std::vector<ReferenceNicSr> refs(kFlows);
    Rng rng(seed);

    // Per-flow loss/dup schedule, then a global shuffle so packets of
    // different flows interleave arbitrarily (maximal table churn).
    std::vector<std::pair<uint32_t, uint32_t>> schedule;  // (flow, psn)
    for (uint32_t flow = 0; flow < kFlows; ++flow) {
      for (uint32_t psn = 0; psn < kPackets; ++psn) {
        if (rng.Chance(0.15)) {
          continue;  // lost in the fabric
        }
        schedule.push_back({flow, psn});
        if (rng.Chance(0.10)) {
          schedule.push_back({flow, psn});
        }
      }
    }
    for (size_t i = schedule.size(); i > 1; --i) {
      std::swap(schedule[i - 1], schedule[rng.Below(i)]);
    }

    auto send_data = [&](uint32_t flow, uint32_t psn) {
      dst_tor->ReceivePacket(
          MakeDataPacket(flow + 1, sender->id(), receiver->id(), psn, 100, 0x42),
          /*in=*/1);
    };
    size_t rx_consumed = 0;
    // Drains the fabric, hands newly arrived data to the per-flow reference
    // receivers, and plays their ACK/NACK stream back through the ToR —
    // where Themis-D snoops ACKs and validates (or blocks) NACKs.
    auto pump = [&] {
      sim.Run();
      for (; rx_consumed < receiver->received.size(); ++rx_consumed) {
        const Packet& pkt = receiver->received[rx_consumed];
        if (pkt.type != PacketType::kData) {
          continue;
        }
        const uint32_t flow = pkt.flow_id - 1;
        for (const RefControl& ctrl : refs[flow].Deliver(pkt.psn, 100)) {
          dst_tor->ReceivePacket(MakeControlPacket(ctrl.type, pkt.flow_id, receiver->id(),
                                                   sender->id(), ctrl.psn, 0x42),
                                 /*in=*/0);
        }
      }
      sim.Run();
    };

    for (const auto& [flow, psn] : schedule) {
      send_data(flow, psn);
    }
    pump();

    auto incomplete = [&] {
      for (const ReferenceNicSr& ref : refs) {
        if (ref.epsn() < kPackets) {
          return true;
        }
      }
      return false;
    };

    size_t tx_consumed = 0;
    uint32_t rounds = 0;
    while (incomplete()) {
      // Selective retransmit advances every incomplete flow's ePSN by at
      // least one per round, so recovery is bounded by the stream length.
      ASSERT_LT(rounds, kPackets + 4) << "recovery stalled, seed " << seed;
      ++rounds;
      std::set<std::pair<uint32_t, uint32_t>> resend;
      // NACKs that reached the sender (validated-genuine, fail-open
      // forwarded after an eviction, or eviction-time compensations) each
      // name an ePSN: retransmit exactly that PSN.
      for (; tx_consumed < sender->received.size(); ++tx_consumed) {
        const Packet& pkt = sender->received[tx_consumed];
        if (pkt.type == PacketType::kNack) {
          resend.insert({pkt.flow_id - 1, pkt.psn});
        }
      }
      // RTO fallback: a blocked NACK whose compensation has not fired yet
      // must not stall the flow — the sender's timeout path covers it.
      for (uint32_t flow = 0; flow < kFlows; ++flow) {
        if (refs[flow].epsn() < kPackets) {
          resend.insert({flow, refs[flow].epsn()});
        }
      }
      for (const auto& [flow, psn] : resend) {
        send_data(flow, psn);
      }
      pump();
    }

    for (uint32_t flow = 0; flow < kFlows; ++flow) {
      EXPECT_EQ(refs[flow].epsn(), kPackets) << "seed " << seed << " flow " << flow;
      EXPECT_EQ(refs[flow].ooo_size(), 0u) << "seed " << seed << " flow " << flow;
    }
    // The property is only meaningful if eviction actually happened — with
    // 12 flows in 4 slots it must have, constantly.
    EXPECT_GT(hook.flow_table_stats().evictions, 100u) << "seed " << seed;
    EXPECT_EQ(hook.flow_table_stats().rejected, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace themis
