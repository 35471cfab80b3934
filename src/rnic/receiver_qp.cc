#include "src/rnic/receiver_qp.h"

#include "src/rnic/rnic_host.h"
#include "src/telemetry/trace.h"

namespace themis {

ReceiverQp::ReceiverQp(RnicHost* host, uint32_t flow_id, int src_host, const QpConfig& config)
    : host_(host), flow_id_(flow_id), src_host_(src_host), config_(config) {}

void ReceiverQp::HandleData(const Packet& pkt) {
  ++stats_.data_packets;
  if (pkt.ecn_ce) {
    ++stats_.ce_marked;
    MaybeSendCnp();
  }

  const int32_t delta = PsnDiff(pkt.psn, epsn_);
  if (delta == 0) {
    // The expected packet: advance ePSN past everything contiguously held.
    AcceptInOrder(pkt.payload_bytes);
    const uint32_t arrived_psn = pkt.psn;
    epsn_ = PsnAdd(epsn_, 1);
    nacked_current_epsn_ = false;
    while (held_ != 0 && (ooo_ring_[epsn_].flags & kHeld) != 0) {
      PsnSlot& slot = ooo_ring_[epsn_];
      AcceptInOrder(slot.payload);
      slot.flags = 0;
      --held_;
      epsn_ = PsnAdd(epsn_, 1);
    }
    if (config_.transport == TransportKind::kMultipath) {
      SendSack(arrived_psn);
    } else {
      SendAck();
    }
    DeliverReadyMessages();
    return;
  }

  if (delta > 0) {
    // Out-of-order arrival.
    ++stats_.ooo_arrivals;
    switch (config_.transport) {
      case TransportKind::kGoBackN:
        // Previous-generation RNICs drop OOO packets entirely and NAK the
        // expected PSN (once per ePSN).
        ++stats_.dropped_ooo;
        if (!nacked_current_epsn_) {
          SendNack();
          nacked_current_epsn_ = true;
        }
        return;
      case TransportKind::kNicSr: {
        if (!Hold(pkt, delta)) {
          // Spurious retransmission of a packet already sitting in the
          // bitmap: pure waste.
          ++stats_.duplicates;
          stats_.duplicate_bytes += pkt.wire_bytes;
          SendAck();
          return;
        }
        // Blind loss assumption: NACK the ePSN — but at most once per ePSN.
        if (!nacked_current_epsn_) {
          SendNack();
          nacked_current_epsn_ = true;
        }
        return;
      }
      case TransportKind::kIdeal: {
        if (!Hold(pkt, delta)) {
          ++stats_.duplicates;
          stats_.duplicate_bytes += pkt.wire_bytes;
        }
        // The oracle never mistakes reordering for loss; it just keeps the
        // cumulative ACK clock running.
        SendAck();
        return;
      }
      case TransportKind::kIrn: {
        if (!Hold(pkt, delta)) {
          ++stats_.duplicates;
          stats_.duplicate_bytes += pkt.wire_bytes;
          SendAck();
          return;
        }
        // IRN NACKs every OOO arrival and includes the triggering PSN so
        // the sender can retransmit the precise gap [ePSN, tPSN).
        SendIrnNack(pkt.psn);
        return;
      }
      case TransportKind::kMultipath: {
        if (!Hold(pkt, delta)) {
          ++stats_.duplicates;
          stats_.duplicate_bytes += pkt.wire_bytes;
        }
        // Fully OOO-tolerant: selective ACK for every arrival, never a NACK.
        SendSack(pkt.psn);
        return;
      }
    }
    return;
  }

  // delta < 0: duplicate of an already-delivered packet (e.g. a spurious
  // retransmission that lost the race with the original). ACK so the sender
  // advances.
  ++stats_.duplicates;
  stats_.duplicate_bytes += pkt.wire_bytes;
  SendAck();
}

bool ReceiverQp::Hold(const Packet& pkt, int32_t delta) {
  // Growth moves [ePSN, ePSN + old size): every held PSN and ePSN's empty slot.
  ooo_ring_.Reserve(static_cast<uint32_t>(delta) + 1, epsn_, ooo_ring_.size());
  PsnSlot& slot = ooo_ring_[pkt.psn];
  if ((slot.flags & kHeld) != 0) {
    return false;
  }
  slot = PsnSlot{pkt.payload_bytes, kHeld};
  ++held_;
  return true;
}

void ReceiverQp::AcceptInOrder(uint32_t payload_bytes) {
  in_order_bytes_ += payload_bytes;
  stats_.goodput_bytes += payload_bytes;
}

void ReceiverQp::ExpectMessage(uint64_t bytes, std::function<void()> on_delivered) {
  expected_cursor_ += bytes;
  expected_.push_back(ExpectedMessage{expected_cursor_, std::move(on_delivered)});
  // A zero-byte (or already-satisfied) expectation may complete immediately.
  DeliverReadyMessages();
}

void ReceiverQp::DeliverReadyMessages() {
  while (!expected_.empty() && in_order_bytes_ >= expected_.front().boundary) {
    ExpectedMessage msg = std::move(expected_.front());
    expected_.pop_front();
    ++stats_.messages_delivered;
    if (msg.callback) {
      msg.callback();
    }
  }
}

void ReceiverQp::SendAck() {
  ++stats_.acks_sent;
  TraceRnic(host_->sim(), RnicTrace::kAckTx, static_cast<uint16_t>(host_->id()), flow_id_,
            epsn_, held_);
  host_->SendControl(
      MakeControlPacket(PacketType::kAck, flow_id_, host_->id(), src_host_, epsn_,
                        config_.udp_sport));
}

void ReceiverQp::SendNack() {
  // Per Section 2.2 the NACK carries only the ePSN — not the PSN of the OOO
  // packet that triggered it. Themis-D must reconstruct that tPSN itself.
  ++stats_.nacks_sent;
  TraceRnic(host_->sim(), RnicTrace::kNackTx, static_cast<uint16_t>(host_->id()), flow_id_,
            epsn_, held_);
  host_->SendControl(
      MakeControlPacket(PacketType::kNack, flow_id_, host_->id(), src_host_, epsn_,
                        config_.udp_sport));
}

void ReceiverQp::SendIrnNack(uint32_t trigger_psn) {
  // IRN extension: the NACK names both the cumulative ePSN and the OOO PSN
  // that triggered it (the very information commodity NACKs omit).
  ++stats_.nacks_sent;
  TraceRnic(host_->sim(), RnicTrace::kNackTx, static_cast<uint16_t>(host_->id()), flow_id_,
            epsn_, held_);
  Packet nack = MakeControlPacket(PacketType::kNack, flow_id_, host_->id(), src_host_,
                                  epsn_, config_.udp_sport);
  nack.aux_psn = trigger_psn & kPsnMask;
  host_->SendControl(nack);
}

void ReceiverQp::SendSack(uint32_t sacked_psn) {
  // Multipath transport: cumulative ACK plus a selective acknowledgment of
  // the packet that just arrived.
  ++stats_.acks_sent;
  Packet ack = MakeControlPacket(PacketType::kAck, flow_id_, host_->id(), src_host_, epsn_,
                                 config_.udp_sport);
  ack.aux_psn = sacked_psn & kPsnMask;
  host_->SendControl(ack);
}

void ReceiverQp::MaybeSendCnp() {
  const TimePs now = host_->sim()->now();
  // Wrapping subtraction, deliberately. last_cnp_time_ starts at
  // -kTimeInfinity, so for any now > 0 the true difference exceeds the int64
  // range; the seed engine's (undefined) signed overflow wrapped it negative,
  // holding the pacing window shut — only a CE mark at exactly t = 0 opens
  // it. The golden determinism hashes and the experiment tables pin that
  // behaviour (in-fabric DCQCN reacts to NACKs; see ROADMAP.md), so
  // reproduce the wrap with well-defined unsigned arithmetic rather than
  // leaving the UB in place.
  const TimePs since_last = static_cast<TimePs>(
      static_cast<uint64_t>(now) - static_cast<uint64_t>(last_cnp_time_));
  if (since_last < config_.cnp_interval) {
    return;
  }
  last_cnp_time_ = now;
  ++stats_.cnps_sent;
  host_->SendControl(
      MakeControlPacket(PacketType::kCnp, flow_id_, host_->id(), src_host_, epsn_,
                        config_.udp_sport));
}

}  // namespace themis
