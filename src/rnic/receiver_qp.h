// Receiver-side queue pair: the reliable-transport behaviour that makes or
// breaks packet spraying (paper Section 2.2).
//
// kNicSr models current-generation commodity RNICs:
//  * maintains ePSN; everything below ePSN has been received;
//  * OOO packets (PSN > ePSN) are kept in a bitmap indexed by their offset
//    from the ePSN (here: a PSN-indexed ring of payload slots);
//  * an OOO arrival triggers a NACK carrying *only the ePSN*, and each ePSN
//    triggers at most one NACK no matter how many OOO packets arrive;
//  * duplicates are acknowledged so the sender can advance.
// kGoBackN models CX-4/5: OOO packets are dropped outright.
// kIdeal is the Fig. 1d oracle: OOO tolerated silently, never NACKs.

#ifndef THEMIS_SRC_RNIC_RECEIVER_QP_H_
#define THEMIS_SRC_RNIC_RECEIVER_QP_H_

#include <deque>
#include <functional>

#include "src/net/packet.h"
#include "src/net/psn.h"
#include "src/rnic/psn_ring.h"
#include "src/rnic/qp_config.h"
#include "src/sim/simulator.h"

namespace themis {

class RnicHost;

struct ReceiverQpStats {
  uint64_t data_packets = 0;
  uint64_t goodput_bytes = 0;     // distinct payload bytes delivered in order
  uint64_t ooo_arrivals = 0;      // packets with PSN > ePSN on arrival
  uint64_t dropped_ooo = 0;       // OOO packets discarded (go-back-N only)
  uint64_t duplicates = 0;        // spurious (already-received) packets
  uint64_t duplicate_bytes = 0;   // wire bytes wasted on duplicates
  uint64_t acks_sent = 0;
  uint64_t nacks_sent = 0;
  uint64_t cnps_sent = 0;
  uint64_t ce_marked = 0;
  uint64_t messages_delivered = 0;
};

class ReceiverQp {
 public:
  ReceiverQp(RnicHost* host, uint32_t flow_id, int src_host, const QpConfig& config);

  ReceiverQp(const ReceiverQp&) = delete;
  ReceiverQp& operator=(const ReceiverQp&) = delete;

  void HandleData(const Packet& pkt);

  // Registers an expected message of `bytes`; `on_delivered` fires when the
  // in-order byte stream crosses the message boundary (receive completion).
  void ExpectMessage(uint64_t bytes, std::function<void()> on_delivered);

  uint32_t epsn() const { return epsn_; }
  uint64_t in_order_bytes() const { return in_order_bytes_; }
  // Current OOO-bitmap occupancy (packets held ahead of ePSN); telemetry gauge.
  size_t ooo_depth() const { return held_; }
  uint32_t flow_id() const { return flow_id_; }
  int src_host() const { return src_host_; }
  const ReceiverQpStats& stats() const { return stats_; }
  const QpConfig& config() const { return config_; }

 private:
  // Keeps the OOO packet `delta` PSNs ahead of ePSN; false if it was
  // already held.
  bool Hold(const Packet& pkt, int32_t delta);
  void AcceptInOrder(uint32_t payload_bytes);
  void DeliverReadyMessages();
  void SendAck();
  void SendNack();
  void SendIrnNack(uint32_t trigger_psn);
  void SendSack(uint32_t sacked_psn);
  void MaybeSendCnp();

  RnicHost* host_;
  uint32_t flow_id_;
  int src_host_;
  QpConfig config_;

  uint32_t epsn_ = 0;
  // OOO packets received ahead of ePSN (every transport but go-back-N). A
  // held PSN is in (ePSN, ePSN + ring size) with kHeld set in its slot; the
  // in-order path clears each slot as ePSN passes it.
  static constexpr uint8_t kHeld = 1;
  PsnRing ooo_ring_;
  uint32_t held_ = 0;
  // One-NACK-per-ePSN rule: set when a NACK for the *current* ePSN has been
  // generated; cleared whenever ePSN advances.
  bool nacked_current_epsn_ = false;

  uint64_t in_order_bytes_ = 0;
  struct ExpectedMessage {
    uint64_t boundary;  // cumulative in-order byte offset ending the message
    std::function<void()> callback;
  };
  std::deque<ExpectedMessage> expected_;
  uint64_t expected_cursor_ = 0;  // cumulative bytes registered so far

  TimePs last_cnp_time_ = -kTimeInfinity;
  ReceiverQpStats stats_;
};

}  // namespace themis

#endif  // THEMIS_SRC_RNIC_RECEIVER_QP_H_
