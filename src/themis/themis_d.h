// Themis-Destination (paper Sections 3.3 & 3.4): NACK validation at the
// destination ToR.
//
// For every cross-rack data packet forwarded down the last hop, the PSN is
// pushed into that QP's ring-based PSN queue. When the local RNIC emits a
// NACK (which carries only the ePSN), the queue is scanned for the first
// PSN greater than the ePSN — the tPSN, i.e. the out-of-order packet that
// triggered this NACK. Eq. 3 then decides validity:
//     valid  <=>  tPSN mod N == ePSN mod N
// Valid NACKs (same path: the expected packet is genuinely lost) pass
// through; invalid NACKs (different path: mere delay variation) are blocked.
//
// Blocking creates the Section 3.4 obligation: the RNIC will never NACK
// that ePSN again, so if a later same-path packet proves the loss, Themis-D
// generates the NACK on the RNIC's behalf (BePSN/Valid fields).
//
// Fail-open safety: any NACK whose tPSN cannot be identified (unknown flow,
// drained queue, overflowed ring) is forwarded, never dropped.
//
// Flow state lives in a bounded FlowTable modelling the §4 register-array
// budget (see flow_table.h). The default — unbounded, no aging — is
// bit-identical to the historical STL-map behaviour; with a capacity set,
// evictions resolve fail-open: the flow's armed compensation NACK is
// delivered (not dangled), a parked grace NACK is released, and the flow's
// next NACK simply misses the table and is forwarded unvalidated.

#ifndef THEMIS_SRC_THEMIS_THEMIS_D_H_
#define THEMIS_SRC_THEMIS_THEMIS_D_H_

#include <functional>
#include <string>
#include <unordered_map>

#include "src/telemetry/counters.h"
#include "src/themis/flow_table.h"
#include "src/themis/psn_queue.h"
#include "src/topo/switch.h"

namespace themis {

struct ThemisDConfig {
  uint32_t num_paths = 0;      // N of Eq. 1/3 (0 = fill from topology)
  size_t queue_capacity = 64;  // PSN-queue entries per QP (Section 4 rule)
  bool truncate_entries = true;
  bool compensation_enabled = true;  // Section 3.4 (ablation knob)
  // Pause-aware validity (ROADMAP "PFC-aware NACK validity"): Eq. 3 assumes
  // same-path packets are only delayed by queuing, but a PFC pause stretches
  // same-path delivery arbitrarily, so under zero loss a share of
  // reorder-NACKs still tests valid (the spurious-valid audit). With
  // pause_grace on, a valid NACK whose suspect in-flight window overlaps a
  // pause this ToR asserted is *deferred* instead of forwarded: it is
  // dropped if the supposedly-lost ePSN packet shows up (or the NIC's
  // cumulative ACK passes it), and released once the window — extended by
  // the still-accumulating pause overlap plus `grace_slack_ps` — expires.
  // Deferral consumes no simulator events (deadlines are checked on the
  // flow's own packet stream), so it is provably inert when no pause ever
  // happens.
  bool pause_grace = false;
  TimePs grace_lookback_ps = 0;  // suspect window starts this far before the tPSN
  TimePs grace_slack_ps = 0;     // quiet time after the last overlapping pause
  // Register-array realism (Section 4): capacity/policy of the per-ToR flow
  // table. Defaults (capacity 0, kNone) keep the legacy unbounded
  // behaviour. entry_bytes of 0 derives the §4 width from queue_capacity.
  FlowTableConfig flow_table;
  // Per-flow telemetry columns are registered lazily as flows appear; at
  // million-flow scale that is O(flows) registry growth forever. Beyond
  // this many flows, verdict tallies aggregate into one shared overflow
  // bucket and `<prefix>.flow_table.telemetry_overflow` counts the events
  // that landed there.
  size_t telemetry_flow_cap = 256;
};

struct ThemisDStats {
  uint64_t data_tracked = 0;
  uint64_t flows_created = 0;
  uint64_t nacks_seen = 0;
  uint64_t nacks_blocked = 0;
  uint64_t nacks_forwarded_valid = 0;
  uint64_t nacks_forwarded_unmatched = 0;  // fail-open: no tPSN identified
  // Verdict audit for valid-forwarded NACKs: if the ePSN packet later
  // arrives as an original (non-retransmission) — or the receiver's
  // cumulative ACK passes the ePSN without this hook seeing a
  // retransmission, proving the original slipped past before the audit
  // armed — the "loss" Eq. 3 inferred was really delay — typically PFC
  // pause stalling the same path (ROADMAP "PFC-aware NACK validity") — and
  // the forwarded NACK was spurious. If the sender's retransmission shows
  // up first, the verdict was genuine.
  uint64_t nacks_forwarded_spurious = 0;
  uint64_t nacks_forwarded_genuine = 0;
  uint64_t compensated_nacks = 0;          // NACKs generated on the RNIC's behalf
  uint64_t compensations_cancelled = 0;    // BePSN packet showed up after all
  uint64_t compensations_suppressed = 0;   // BePSN was already past the ToR at block time
  // Pause-aware grace window (pause_grace): valid NACKs held back because a
  // PFC pause overlapped the suspect in-flight interval, and how each hold
  // resolved. deferred == cancelled + expired + (still pending).
  uint64_t grace_deferred = 0;   // valid NACK parked instead of forwarded
  uint64_t grace_cancelled = 0;  // ePSN arrived during grace: NACK was spurious
  uint64_t grace_expired = 0;    // window elapsed: NACK released to the sender
  // Flow-table pressure (bounded tables only; all zero when unbounded).
  uint64_t flows_evicted = 0;    // LRU-clock capacity victims
  uint64_t flows_aged_out = 0;   // idle-timeout victims
  uint64_t flows_rejected = 0;   // insert attempts refused (untracked packets)
  uint64_t grace_evicted = 0;    // parked grace NACK released because its flow was evicted
  uint64_t compensations_evicted = 0;  // armed BePSN delivered at eviction time
};

class ThemisD : public SwitchHook {
 public:
  // `is_cross_rack(pkt)` gates tracking to cross-rack QPs (Section 4: ToR
  // state is kept only for QPs between different racks). Pass nullptr to
  // track everything.
  ThemisD(const ThemisDConfig& config, std::function<bool(const Packet&)> is_cross_rack)
      : config_(config), is_cross_rack_(std::move(is_cross_rack)) {
    if (config_.num_paths == 0) {
      config_.num_paths = 1;
    }
    if (config_.flow_table.entry_bytes == 0) {
      config_.flow_table.entry_bytes =
          kSection4FlowEntryBytes +
          static_cast<uint32_t>(config_.queue_capacity) * kSection4PsnEntryBytes;
    }
    flows_ = FlowTable<FlowEntry>(config_.flow_table);
  }

  bool OnIngress(Switch& sw, Packet& pkt, int in_port) override;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Drops all per-flow state (ring queues, BePSN/Valid, ACK trackers).
  // Called when Themis re-engages after an ECMP fallback period: PSNs
  // recorded under a different routing mode would misidentify tPSNs.
  void ResetFlowState() {
    flows_.Clear();
    cached_entry_ = nullptr;
    cached_slot_ = -1;
  }

  const ThemisDConfig& config() const { return config_; }
  const ThemisDStats& stats() const { return stats_; }
  size_t flow_count() const { return flows_.size(); }
  // Bounded-flow-table observability (occupancy/eviction/churn/footprint).
  const FlowTableStats& flow_table_stats() const { return flows_.stats(); }
  uint64_t FlowTableModelBytes() const { return flows_.ModelBytes(); }
  uint64_t FlowTableHostBytes() const { return flows_.HostBytes(); }

  // Telemetry: per-flow NACK-verdict counters register lazily under
  // "<prefix>.flow<id>.*" as flows are provisioned (aggregated into a
  // shared "<prefix>.flow_overflow.*" bucket beyond telemetry_flow_cap),
  // plus a BePSN-lag gauge (how far the armed compensation's BePSN sits
  // ahead of the NIC's cumulative ACK) and "<prefix>.flow_table.*"
  // occupancy/eviction/churn counters. Tallies live outside the flow table
  // so ResetFlowState() never dangles a registered pointer. Registry must
  // outlive this hook.
  void set_telemetry(CounterRegistry* registry, std::string prefix);

  // Total PSN-queue ring overflows across flows (diagnostic).
  uint64_t TotalQueueOverflows() const;

  // Live PSN-ring occupancy snapshot (bench diagnostic: compare against the
  // analytic §4 queue_entries sizing).
  struct RingOccupancy {
    size_t flows = 0;
    size_t max_entries = 0;
    double mean_entries = 0.0;
  };
  RingOccupancy SnapshotRingOccupancy() const;

 private:
  struct FlowEntry {
    explicit FlowEntry(const ThemisDConfig& config)
        : queue(config.queue_capacity, config.truncate_entries) {}
    PsnQueue queue;
    uint32_t blocked_epsn = 0;  // BePSN
    bool valid = false;         // Valid flag of Section 3.4
    // Highest cumulative ACK observed from the local NIC (ACK/NACK packets
    // carry the receiver's ePSN). Guards compensation against the race
    // where the BePSN packet had already passed the ToR before the NACK
    // came back: once the NIC acknowledges past BePSN, the packet was
    // received and no compensation must be generated.
    uint32_t cum_ack = 0;
    bool cum_ack_seen = false;
    // Verdict audit (stats only, never affects forwarding): the ePSN of the
    // last NACK forwarded as valid, pending proof of loss vs. delay.
    uint32_t valid_epsn = 0;
    bool valid_pending = false;
    // Connection addressing, mirroring the 13 B QP id of the §4 entry
    // layout: lets an eviction deliver the armed compensation NACK instead
    // of dangling the Section 3.4 obligation.
    int32_t src_host = 0;
    int32_t dst_host = 0;
    uint16_t udp_sport = 0;
    // Pause-aware grace window: one deferred valid NACK per flow (the RNIC
    // emits at most one NACK per ePSN epoch, so one slot suffices — mirrors
    // the single BePSN compensation slot).
    Packet grace_nack;            // the withheld NACK, forwarded on expiry
    TimePs grace_from = 0;        // suspect window start (tPSN push - lookback)
    TimePs grace_armed = 0;       // when the NACK was parked
    bool grace_pending = false;
  };

  // Per-flow verdict tallies, kept apart from FlowEntry so the pointers
  // handed to CounterRegistry survive ResetFlowState() and evictions.
  struct FlowTelemetry {
    uint64_t nacks_valid = 0;
    uint64_t nacks_blocked = 0;
    uint64_t nacks_spurious = 0;
    uint64_t grace_deferred = 0;
    uint64_t grace_cancelled = 0;
  };

  bool SamePath(uint32_t psn_a, uint32_t psn_b) const {
    return psn_a % config_.num_paths == psn_b % config_.num_paths;
  }

  bool HandleData(Switch& sw, const Packet& pkt);
  bool HandleNack(Switch& sw, const Packet& pkt);
  void ObserveCumulativeAck(Switch& sw, uint32_t flow_id, FlowEntry& entry, uint32_t epsn);
  FlowTelemetry& TelemetryFor(uint32_t flow_id);
  // Fail-open resolution of an evicted flow's armed state (Section 3.4
  // obligation, parked grace NACK) — called by the flow table's eviction
  // hook with the entry already unlinked.
  void OnFlowEvicted(Switch& sw, uint32_t flow_id, FlowEntry&& entry, bool aged);

  // Grace-window resolution (all no-ops unless entry.grace_pending).
  void CancelGrace(Switch& sw, uint32_t flow_id, FlowEntry& entry);
  void ReleaseGrace(Switch& sw, uint32_t flow_id, FlowEntry& entry);
  void ExpireGraceIfDue(Switch& sw, uint32_t flow_id, FlowEntry& entry);

  ThemisDConfig config_;
  std::function<bool(const Packet&)> is_cross_rack_;
  bool enabled_ = true;
  // Last-flow cache for the data hot path: same-tick bursts are dominated by
  // runs of packets from few flows, and FlowTable entry pointers stay valid
  // across inserts, so one compare replaces the hash lookup for run-mates.
  // Invalidation contract: cleared by ResetFlowState AND whenever the cached
  // flow itself is evicted (OnFlowEvicted) — eviction reuses the slot, so a
  // stale pointer would alias the replacement flow's entry. cached_slot_
  // keeps the clock reference bit honest on cache hits without re-probing.
  uint32_t cached_flow_id_ = 0;
  FlowEntry* cached_entry_ = nullptr;
  int32_t cached_slot_ = -1;
  FlowTable<FlowEntry> flows_;
  std::unordered_map<uint32_t, FlowTelemetry> flow_telemetry_;
  FlowTelemetry overflow_telemetry_;  // shared bucket beyond telemetry_flow_cap
  uint64_t telemetry_overflow_ = 0;   // tally events routed to the bucket
  ThemisDStats stats_;
  CounterRegistry* counter_registry_ = nullptr;
  std::string counter_prefix_;
};

}  // namespace themis

#endif  // THEMIS_SRC_THEMIS_THEMIS_D_H_
