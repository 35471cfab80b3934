#include "src/net/port.h"

#include "src/sim/logging.h"
#include "src/telemetry/trace.h"

namespace themis {

bool Port::Send(Packet pkt) {
  if (failed_) {
    ++stats_.drops;
    stats_.drop_bytes += pkt.wire_bytes;
    TracePort(sim_, PortTrace::kDrop, static_cast<uint16_t>(owner_->id()),
              static_cast<uint8_t>(index_), pkt.flow_id, pkt.wire_bytes,
              static_cast<uint64_t>(queued_data_bytes_));
    THEMIS_LOG(LogLevel::kDebug, sim_->now(), "%s port %d: failed-link drop %s",
               owner_->name().c_str(), index_, pkt.ToString().c_str());
    return false;
  }
  if (pkt.IsControl()) {
    control_queue_.push_back(pkt);
  } else {
    if (queued_data_bytes_ + pkt.wire_bytes > data_queue_capacity_) {
      ++stats_.drops;
      stats_.drop_bytes += pkt.wire_bytes;
      TracePort(sim_, PortTrace::kDrop, static_cast<uint16_t>(owner_->id()),
                static_cast<uint8_t>(index_), pkt.flow_id, pkt.wire_bytes,
                static_cast<uint64_t>(queued_data_bytes_));
      THEMIS_LOG(LogLevel::kDebug, sim_->now(), "%s port %d: drop-tail %s (queued %lld)",
                 owner_->name().c_str(), index_, pkt.ToString().c_str(),
                 static_cast<long long>(queued_data_bytes_));
      return false;
    }
    // WRED sees the effective depth (real + exogenous); with no background
    // model attached exo_bytes_ == 0 and this is bit-identical to marking on
    // queued_data_bytes_ alone — same comparisons, same RNG draws.
    const int64_t effective_bytes = queued_data_bytes_ + exo_bytes_;
    if (ecn_.ShouldMark(effective_bytes, sim_->rng())) {
      pkt.ecn_ce = true;
      ++stats_.ecn_marks;
      if (exo_bytes_ > 0 && queued_data_bytes_ < ecn_.kmin_bytes) {
        // Real depth alone was below the ramp: only the modelled background
        // put this packet in the marking region.
        ++stats_.ecn_marks_exogenous;
      }
      TracePort(sim_, PortTrace::kEcnMark, static_cast<uint16_t>(owner_->id()),
                static_cast<uint8_t>(index_), pkt.flow_id,
                static_cast<uint64_t>(effective_bytes));
    }
    queued_data_bytes_ += pkt.wire_bytes;
    if (queued_data_bytes_ > stats_.max_queue_bytes) {
      stats_.max_queue_bytes = queued_data_bytes_;
    }
    data_queue_.push_back(pkt);
    TracePort(sim_, PortTrace::kEnqueue, static_cast<uint16_t>(owner_->id()),
              static_cast<uint8_t>(index_), pkt.flow_id,
              static_cast<uint64_t>(queued_data_bytes_), pkt.wire_bytes);
  }
  if (!busy_) {
    StartNextTransmission();
  }
  return true;
}

void Port::set_failed(bool failed) {
  if (failed_ == failed) {
    return;
  }
  failed_ = failed;
  owner_->failed_ports_ += failed ? 1 : -1;
  // Restore must restart transmission: packets queued behind the failed port
  // are parked (StartNextTransmission bails while failed), and without this
  // kick they would wait for the next unrelated enqueue on this port.
  if (!failed_ && !busy_) {
    StartNextTransmission();
  }
}

// Wire-level gray failure: one uniform draw per delivered packet decides
// lost / corrupted / clean. Returns false when the packet is lost on the
// wire.
bool Port::ApplyGrayFault(Packet& pkt) {
  const double u = gray_->rng.NextDouble();
  if (u < gray_->drop_prob) {
    ++gray_->drops;
    ++stats_.drops;
    stats_.drop_bytes += pkt.wire_bytes;
    TracePort(sim_, PortTrace::kDrop, static_cast<uint16_t>(owner_->id()),
              static_cast<uint8_t>(index_), pkt.flow_id, pkt.wire_bytes,
              static_cast<uint64_t>(queued_data_bytes_));
    THEMIS_LOG(LogLevel::kDebug, sim_->now(), "%s port %d: gray drop %s",
               owner_->name().c_str(), index_, pkt.ToString().c_str());
    return false;
  }
  if (u < gray_->drop_prob + gray_->corrupt_prob) {
    ++gray_->corrupts;
    pkt.corrupted = true;
  }
  return true;
}

void Port::SetPaused(bool paused) {
  if (paused && !paused_) {
    ++stats_.pause_transitions;
    pause_since_ = sim_->now();
    if (pause_log_ == nullptr) {
      pause_log_ = std::make_unique<PauseIntervalLog>();
    }
    pause_log_->Open(sim_->now());
    TracePort(sim_, PortTrace::kPauseOn, static_cast<uint16_t>(owner_->id()),
              static_cast<uint8_t>(index_), 0, static_cast<uint64_t>(stats_.paused_time_ps));
  } else if (!paused && paused_) {
    stats_.paused_time_ps += sim_->now() - pause_since_;
    pause_log_->Close(sim_->now());  // allocated by the pause being closed
    TracePort(sim_, PortTrace::kPauseOff, static_cast<uint16_t>(owner_->id()),
              static_cast<uint8_t>(index_), 0, static_cast<uint64_t>(stats_.paused_time_ps));
  }
  paused_ = paused;
  if (!paused_ && !busy_) {
    StartNextTransmission();
  }
}

void Port::StartNextTransmission() {
  if (failed_) {
    // Park: hold queued packets through the outage (the switch buffer keeps
    // them); set_failed(false) restarts the loop.
    busy_ = false;
    return;
  }
  Packet pkt;
  if (!control_queue_.empty()) {
    pkt = control_queue_.front();
    control_queue_.pop_front();
  } else if (!data_queue_.empty() && !paused_) {
    pkt = data_queue_.front();
    data_queue_.pop_front();
    queued_data_bytes_ -= pkt.wire_bytes;
    owner_->OnDataPacketDequeued(pkt);
    TracePort(sim_, PortTrace::kDequeue, static_cast<uint16_t>(owner_->id()),
              static_cast<uint8_t>(index_), pkt.flow_id,
              static_cast<uint64_t>(queued_data_bytes_));
  } else {
    busy_ = false;
    return;
  }

  busy_ = true;
  ++stats_.tx_packets;
  stats_.tx_bytes += pkt.wire_bytes;
  if (!pkt.IsControl()) {
    stats_.tx_data_bytes += pkt.wire_bytes;
  }

  TimePs serialization = rate_.SerializationTime(pkt.wire_bytes);
  // Asymmetric link degradation (scenario engine): the physical link runs at
  // factor * rate for the fault window, so every packet's serialization slot
  // stretches by 1/factor — Q16 integer math, zero-cost and bit-identical
  // when no degradation is active. Applies to control packets too: the wire
  // itself is slow, not one traffic class.
  if (degrade_q16_ != 0) {
    serialization += static_cast<TimePs>(
        (static_cast<uint64_t>(serialization) * degrade_q16_) >> 16);
  }
  // Serialization-slot stealing (hybrid fidelity): modelled background
  // traffic shares the wire, so a data packet's effective service time is
  // x/(1-rho) — computed in Q16 integer math (bg_steal_q16_ = rho/(1-rho)
  // in 16.16) to keep the hot path FP-free. Zero-cost and bit-identical
  // when no model drives this port. Control packets keep their priority
  // slot (they ride the lossless class the model does not congest).
  if (bg_steal_q16_ != 0 && !pkt.IsControl()) {
    serialization += static_cast<TimePs>(
        (static_cast<uint64_t>(serialization) * bg_steal_q16_) >> 16);
  }

  // Wire frees up after serialization completes. Both events below are the
  // per-packet hot path: tagged, callback-free calendar entries that
  // Port::DispatchBurst decodes — when several fire on one tick, the
  // executive hands them over as one run.
  sim_->SchedulePortEvent(serialization, MakeTag(this, kPortTagTxDone));

  // Peer sees the packet after serialization + propagation, unless the link
  // failed while the packet was in flight. Per-link arrivals are FIFO, so
  // the event needs no payload.
  in_flight_.push_back(pkt);
  sim_->SchedulePortEvent(serialization + propagation_delay_,
                          MakeTag(this, kPortTagDeliver));
}

void Port::DeliverHeadInFlight() {
  Packet pkt = in_flight_.front();
  in_flight_.pop_front();
  if (failed_) {
    // The link died while the packet was in flight: account it like the
    // other drop paths instead of discarding it silently.
    ++stats_.drops;
    stats_.drop_bytes += pkt.wire_bytes;
    TracePort(sim_, PortTrace::kDrop, static_cast<uint16_t>(owner_->id()),
              static_cast<uint8_t>(index_), pkt.flow_id, pkt.wire_bytes,
              static_cast<uint64_t>(queued_data_bytes_));
    THEMIS_LOG(LogLevel::kDebug, sim_->now(), "%s port %d: in-flight drop %s",
               owner_->name().c_str(), index_, pkt.ToString().c_str());
    return;
  }
  if (gray_ != nullptr && !ApplyGrayFault(pkt)) {
    return;
  }
  peer_->ReceivePacket(pkt, peer_port_);
}

size_t Port::DispatchBurst(Simulator& sim, const uint64_t* tags, size_t n) {
  static_assert(alignof(Port) >= kPortTagKindMask + 1,
                "port pointers must leave the tag-kind bits free");
  for (size_t i = 0; i < n; ++i) {
    if (sim.stop_requested()) {
      return i;  // executive restores the tail with original (time, seq)
    }
    Port* port = PortFromTag(tags[i]);
    const uint64_t kind = TagKind(tags[i]);
    if (kind == kPortTagTxDone) {
      port->StartNextTransmission();
    } else if (kind == kPortTagDeliver) {
      port->DeliverHeadInFlight();
    } else {  // kPortTagHold
      port->owner_->OnTransmitHoldDone();
    }
  }
  return n;
}

}  // namespace themis
