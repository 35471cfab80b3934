// In-network reordering baseline (ConWeave-flavoured, Section 2.3).
//
// The destination ToR holds out-of-order data packets of each cross-rack
// flow in a per-flow reorder buffer and releases them to the NIC strictly
// in PSN order; a flush timer bounds head-of-line waiting when the expected
// packet is genuinely lost. The NIC then sees (almost) no OOO arrivals, so
// NIC-SR generates (almost) no NACKs.
//
// The paper's §2.3 argument against this approach for *packet-level*
// spraying is resource blow-up: with every packet taking its own path, the
// ToR must buffer up to a path-delay-spread × bandwidth product per flow.
// `max_buffered_bytes` is tracked so benchmarks can quantify exactly that
// (compare with Themis-D's ~120 B/QP flow state).
//
// Flow state lives in the same bounded FlowTable as Themis-D's (register-
// array realism, flow_table.h). Default config is unbounded and
// bit-identical to the historical STL-map behaviour; with a capacity set,
// evicting a flow flushes its held packets in PSN order (fail open — held
// data is never dropped) before the slot is reclaimed.

#ifndef THEMIS_SRC_THEMIS_REORDER_BUFFER_H_
#define THEMIS_SRC_THEMIS_REORDER_BUFFER_H_

#include <map>
#include <memory>

#include "src/themis/flow_table.h"
#include "src/topo/switch.h"

namespace themis {

struct ReorderHookConfig {
  // Maximum bytes buffered per flow; exceeding it force-flushes (in order).
  int64_t per_flow_buffer_bytes = 1 << 20;
  // Max time the expected packet may be awaited before flushing. Must
  // comfortably exceed the worst-case path-delay *difference* (propagation
  // skew + queueing spread), or transient congestion triggers premature
  // flushes and NACK leakage.
  TimePs flush_timeout = 100 * kMicrosecond;
  // Register-array budget for per-flow reorder state. Defaults (capacity 0,
  // kNone) keep the legacy unbounded behaviour.
  FlowTableConfig flow_table;
};

struct ReorderHookStats {
  uint64_t packets_held = 0;
  uint64_t packets_released_in_order = 0;
  uint64_t timeout_flushes = 0;
  uint64_t overflow_flushes = 0;
  uint64_t eviction_flushes = 0;  // flow evicted with packets still held
  uint64_t flows_rejected = 0;    // table full: flow passes through unbuffered
  int64_t max_buffered_bytes = 0;      // peak across flows, single flow
  int64_t max_total_buffered_bytes = 0;  // peak summed over all flows
};

class InNetworkReorderHook : public SwitchHook {
 public:
  InNetworkReorderHook(Simulator* sim, const ReorderHookConfig& config)
      : sim_(sim), config_(config), flows_(config_.flow_table) {}

  bool OnIngress(Switch& sw, Packet& pkt, int in_port) override;

  const ReorderHookStats& stats() const { return stats_; }
  const FlowTableStats& flow_table_stats() const { return flows_.stats(); }
  int64_t total_buffered_bytes() const { return total_buffered_; }

 private:
  // PSN-serial-ordered buffer: all live PSNs of a flow sit within a window
  // far smaller than half the 24-bit space, so serial comparison is a
  // strict weak ordering over the keys present.
  struct SerialLess {
    bool operator()(uint32_t a, uint32_t b) const { return PsnLt(a, b); }
  };
  struct FlowState {
    uint32_t expected = 0;
    std::map<uint32_t, Packet, SerialLess> buffered;
    int64_t buffered_bytes = 0;
    std::unique_ptr<Timer> flush_timer;
    Switch* sw = nullptr;  // the ToR this flow is buffered at
  };

  void Release(FlowState& flow, const Packet& pkt);
  void DrainInOrder(FlowState& flow);
  void Flush(FlowState& flow);

  Simulator* sim_;
  ReorderHookConfig config_;
  FlowTable<FlowState> flows_;
  int64_t total_buffered_ = 0;
  ReorderHookStats stats_;
};

}  // namespace themis

#endif  // THEMIS_SRC_THEMIS_REORDER_BUFFER_H_
