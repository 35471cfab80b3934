#include "src/rnic/rnic_host.h"

#include <cassert>

#include "src/sim/logging.h"
#include "src/telemetry/trace.h"

namespace themis {

void RnicHost::ReceivePacket(const Packet& pkt, int in_port) {
  (void)in_port;
  // NIC CRC check: a packet corrupted on the last hop (gray failure) is
  // counted and dropped before any QP sees it — never silently delivered.
  // The sender recovers through the normal loss machinery (NACK/RTO).
  if (pkt.corrupted) {
    ++host_stats_.corrupt_rx;
    TraceRnic(sim(), RnicTrace::kCorruptRx, static_cast<uint16_t>(id()), pkt.flow_id,
              pkt.psn, pkt.wire_bytes);
    return;
  }
  switch (pkt.type) {
    case PacketType::kData: {
      ReceiverQp* qp = receiver_qp(pkt.flow_id);
      if (qp == nullptr) {
        ++host_stats_.unknown_flow_drops;
        THEMIS_LOG(LogLevel::kWarn, sim()->now(), "%s: no receiver QP for %s", name().c_str(),
                   pkt.ToString().c_str());
        return;
      }
      qp->HandleData(pkt);
      return;
    }
    case PacketType::kAck:
    case PacketType::kNack:
    case PacketType::kCnp: {
      SenderQp* qp = sender_qp(pkt.flow_id);
      if (qp == nullptr) {
        ++host_stats_.unknown_flow_drops;
        THEMIS_LOG(LogLevel::kWarn, sim()->now(), "%s: no sender QP for %s", name().c_str(),
                   pkt.ToString().c_str());
        return;
      }
      if (pkt.type == PacketType::kAck) {
        qp->HandleAck(pkt);
      } else if (pkt.type == PacketType::kNack) {
        qp->HandleNack(pkt);
      } else {
        qp->HandleCnp(pkt);
      }
      return;
    }
  }
}

SenderQp* RnicHost::CreateSenderQp(uint32_t flow_id, int dst_host, const QpConfig& config) {
  auto qp = std::make_unique<SenderQp>(this, flow_id, dst_host, config);
  SenderQp* raw = qp.get();
  auto [it, inserted] = senders_.emplace(flow_id, std::move(qp));
  (void)it;
  assert(inserted && "duplicate sender flow id");
  sender_list_.push_back(raw);
  if (counter_registry_ != nullptr) {
    const std::string prefix = name() + ".qp" + std::to_string(flow_id);
    counter_registry_->RegisterCounter(prefix + ".nacks_rx", &raw->stats().nacks_received);
    counter_registry_->RegisterCounter(prefix + ".rtx_packets", &raw->stats().rtx_packets);
    counter_registry_->RegisterCounter(prefix + ".timeouts", &raw->stats().timeouts);
  }
  return raw;
}

ReceiverQp* RnicHost::CreateReceiverQp(uint32_t flow_id, int src_host, const QpConfig& config) {
  auto qp = std::make_unique<ReceiverQp>(this, flow_id, src_host, config);
  ReceiverQp* raw = qp.get();
  auto [it, inserted] = receivers_.emplace(flow_id, std::move(qp));
  (void)it;
  assert(inserted && "duplicate receiver flow id");
  receiver_list_.push_back(raw);
  if (counter_registry_ != nullptr) {
    const std::string prefix = name() + ".qp" + std::to_string(flow_id);
    counter_registry_->RegisterCounter(prefix + ".nacks_tx", &raw->stats().nacks_sent);
    counter_registry_->RegisterGauge(
        prefix + ".ooo_depth", [raw] { return static_cast<double>(raw->ooo_depth()); });
  }
  return raw;
}

SenderQp* RnicHost::sender_qp(uint32_t flow_id) {
  auto it = senders_.find(flow_id);
  return it == senders_.end() ? nullptr : it->second.get();
}

ReceiverQp* RnicHost::receiver_qp(uint32_t flow_id) {
  auto it = receivers_.find(flow_id);
  return it == receivers_.end() ? nullptr : it->second.get();
}

void RnicHost::SendControl(const Packet& pkt) {
  ++host_stats_.control_packets_sent;
  uplink()->Send(pkt);
}

void RnicHost::NotifyWork() {
  if (!auto_schedule_) {
    return;
  }
  if (state_ == SchedulerState::kTransmitting) {
    return;  // loop continues once the current packet finishes serializing
  }
  if (state_ == SchedulerState::kSleeping) {
    wake_timer_.Cancel();  // remove the pending wake-up from the callback heap
    state_ = SchedulerState::kIdle;
  }
  RunScheduler();
}

void RnicHost::OnWake() {
  assert(state_ == SchedulerState::kSleeping);
  state_ = SchedulerState::kIdle;
  RunScheduler();
}

void RnicHost::RunScheduler() {
  assert(state_ == SchedulerState::kIdle);

  // Earliest-eligible QP with pending work; round-robin among equals.
  SenderQp* best = nullptr;
  TimePs best_time = 0;
  const size_t n = sender_list_.size();
  for (size_t i = 0; i < n; ++i) {
    SenderQp* qp = sender_list_[(rr_cursor_ + i) % n];
    if (!qp->HasWork()) {
      continue;
    }
    const TimePs t = qp->next_eligible();
    if (best == nullptr || t < best_time) {
      best = qp;
      best_time = t;
    }
  }
  if (best == nullptr) {
    state_ = SchedulerState::kIdle;
    return;
  }

  // PFC back-pressure: while the uplink is paused (or its data queue has
  // not drained previously injected packets), hold off — the switch's pause
  // frame throttles the NIC MAC. Poll at one MTU serialization time.
  if (uplink()->paused() || uplink()->queued_data_bytes() >= 2 * 1500) {
    state_ = SchedulerState::kSleeping;
    wake_timer_.Arm(line_rate().SerializationTime(1500));
    return;
  }

  const TimePs now = sim()->now();
  if (best_time > now) {
    // All eligible QPs are pacing; sleep until the earliest slot.
    state_ = SchedulerState::kSleeping;
    wake_timer_.Arm(best_time - now);
    return;
  }

  // Transmit one packet; hold the line for its serialization time. This is
  // one line-rate event per transmitted packet — exactly the calendar tier's
  // customer — so it rides the uplink as a port tag, which DispatchBurst
  // turns into OnTransmitHoldDone. (The pacing/PFC wake-ups above stay on
  // the callback heap: NotifyWork cancels them, and only the callback heap
  // supports cancel, leaving no garbage event behind.)
  const Packet pkt = best->DequeuePacket();
  ++rr_cursor_;
  uplink()->Send(pkt);
  state_ = SchedulerState::kTransmitting;
  uplink()->ScheduleTransmitHold(line_rate().SerializationTime(pkt.wire_bytes));
}

void RnicHost::OnTransmitHoldDone() {
  state_ = SchedulerState::kIdle;
  RunScheduler();
}

}  // namespace themis
