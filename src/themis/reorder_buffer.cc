#include "src/themis/reorder_buffer.h"

namespace themis {

bool InNetworkReorderHook::OnIngress(Switch& sw, Packet& pkt, int in_port) {
  (void)in_port;
  // Cross-rack data on its last hop only: a source this ToR also reaches in
  // one hop is a same-rack peer.
  if (pkt.type != PacketType::kData || !sw.IsLastHop(pkt.dst_host) ||
      sw.IsLastHop(pkt.src_host)) {
    return true;
  }

  bool inserted = false;
  FlowState* found = flows_.FindOrCreate(
      pkt.flow_id, sim_->now(), &inserted,
      [this, &sw, &pkt] {
        FlowState flow;
        // Models the connection-handshake interception that tells the ToR
        // each QP's initial PSN (0 for every QP in this simulator).
        // Anchoring on the first *arrival* would mis-order whenever the
        // first packet is itself out of order.
        flow.expected = 0;
        flow.sw = &sw;
        const uint32_t flow_id = pkt.flow_id;
        flow.flush_timer = std::make_unique<Timer>(sim_, [this, flow_id] {
          // PeekMut, not Find: a timeout firing means the flow went quiet —
          // the probe must not refresh its idle clock.
          FlowState* state = flows_.PeekMut(flow_id);
          if (state != nullptr) {
            ++stats_.timeout_flushes;
            Flush(*state);
          }
        });
        return flow;
      },
      [this](uint32_t, FlowState&& victim, bool) {
        // Fail open: held data is never dropped with its slot. Releasing in
        // PSN order re-creates at worst the OOO arrival the buffer existed
        // to hide; the NIC's own NACK path takes over from there. The Timer
        // dtor cancels any armed flush when `victim` goes out of scope.
        if (!victim.buffered.empty()) {
          ++stats_.eviction_flushes;
          Flush(victim);
        }
      });
  if (found == nullptr) {
    // Table full, nothing reclaimable: the flow is simply not buffered and
    // its OOO packets reach the NIC as they would without this hook.
    ++stats_.flows_rejected;
    return true;
  }
  FlowState& flow = *found;

  if (pkt.psn == flow.expected) {
    // In order: deliver immediately, then everything contiguous behind it.
    // Forward here (not via the switch's normal path) so the drained
    // followers cannot overtake the trigger packet.
    flow.expected = PsnAdd(flow.expected, 1);
    ++stats_.packets_released_in_order;
    sw.Forward(pkt);
    DrainInOrder(flow);
    return false;  // already forwarded
  }
  if (PsnLt(pkt.psn, flow.expected)) {
    return true;  // duplicate/old (e.g. retransmission): pass through
  }

  // Out of order: hold it. Duplicate OOO packets overwrite harmlessly.
  auto [it, ins] = flow.buffered.emplace(pkt.psn, pkt);
  (void)it;
  if (ins) {
    flow.buffered_bytes += pkt.wire_bytes;
    total_buffered_ += pkt.wire_bytes;
    ++stats_.packets_held;
    stats_.max_buffered_bytes = std::max(stats_.max_buffered_bytes, flow.buffered_bytes);
    stats_.max_total_buffered_bytes = std::max(stats_.max_total_buffered_bytes, total_buffered_);
  }
  if (flow.buffered_bytes > config_.per_flow_buffer_bytes) {
    ++stats_.overflow_flushes;
    Flush(flow);
    return false;
  }
  if (!flow.flush_timer->armed()) {
    flow.flush_timer->Arm(config_.flush_timeout);
  }
  return false;  // consumed (held in the reorder buffer)
}

void InNetworkReorderHook::Release(FlowState& flow, const Packet& pkt) {
  flow.buffered_bytes -= pkt.wire_bytes;
  total_buffered_ -= pkt.wire_bytes;
  flow.sw->Forward(pkt);
}

void InNetworkReorderHook::DrainInOrder(FlowState& flow) {
  while (!flow.buffered.empty()) {
    auto it = flow.buffered.begin();
    if (it->first != flow.expected) {
      break;
    }
    Packet pkt = it->second;
    flow.buffered.erase(it);
    flow.expected = PsnAdd(flow.expected, 1);
    ++stats_.packets_released_in_order;
    Release(flow, pkt);
  }
  if (flow.buffered.empty()) {
    flow.flush_timer->Cancel();
  } else if (!flow.flush_timer->armed()) {
    flow.flush_timer->Arm(config_.flush_timeout);
  }
}

void InNetworkReorderHook::Flush(FlowState& flow) {
  // Give up on the gap: release everything in PSN order and resume
  // expecting after the highest released PSN. The NIC will see the gap and
  // NACK it — which is correct, because after the timeout the packet is
  // presumed genuinely lost.
  uint32_t last = flow.expected;
  while (!flow.buffered.empty()) {
    auto it = flow.buffered.begin();
    Packet pkt = it->second;
    last = it->first;
    flow.buffered.erase(it);
    Release(flow, pkt);
  }
  flow.expected = PsnAdd(last, 1);
  flow.flush_timer->Cancel();
}

}  // namespace themis
