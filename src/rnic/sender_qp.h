// Sender-side queue pair: packetization, pacing input, selective / go-back-N
// retransmission, message completion tracking, and CC signal plumbing.
//
// The sender never touches the wire directly: the host's NIC scheduler asks
// `HasWork()` / `next_eligible()` and pulls packets with `DequeuePacket()`,
// which models the hardware rate pacer that makes flowlet gaps disappear
// (Section 2.3).

#ifndef THEMIS_SRC_RNIC_SENDER_QP_H_
#define THEMIS_SRC_RNIC_SENDER_QP_H_

#include <deque>
#include <functional>
#include <memory>

#include "src/cc/congestion_control.h"
#include "src/net/packet.h"
#include "src/net/psn.h"
#include "src/rnic/psn_ring.h"
#include "src/rnic/qp_config.h"
#include "src/sim/simulator.h"

namespace themis {

class RnicHost;

struct SenderQpStats {
  uint64_t bytes_posted = 0;
  uint64_t messages_posted = 0;
  uint64_t messages_completed = 0;
  uint64_t data_packets_sent = 0;
  uint64_t data_bytes_sent = 0;     // wire bytes, including retransmissions
  uint64_t payload_bytes_sent = 0;  // payload bytes, including retransmissions
  uint64_t rtx_packets = 0;
  uint64_t rtx_bytes = 0;  // wire bytes of retransmissions
  uint64_t acks_received = 0;
  uint64_t nacks_received = 0;
  uint64_t cnps_received = 0;
  uint64_t timeouts = 0;
  TimePs first_post_time = -1;
  TimePs last_completion_time = -1;

  // Fraction of sent wire bytes that were retransmissions (Fig. 1b metric).
  double RetransmissionRatio() const {
    return data_bytes_sent == 0
               ? 0.0
               : static_cast<double>(rtx_bytes) / static_cast<double>(data_bytes_sent);
  }
};

class SenderQp {
 public:
  SenderQp(RnicHost* host, uint32_t flow_id, int dst_host, const QpConfig& config);
  ~SenderQp();

  SenderQp(const SenderQp&) = delete;
  SenderQp& operator=(const SenderQp&) = delete;

  // Queues `bytes` for transmission; `on_complete` fires when the last byte
  // is acknowledged. Zero-byte messages complete immediately.
  void PostMessage(uint64_t bytes, std::function<void()> on_complete);

  // Flow-completion hook for workload drivers: fires after each message
  // completion that drains the QP (no posted work left), i.e. when this
  // flow's last byte has been acknowledged. Repostable flows fire once per
  // drain. Fires after the message's own on_complete callback.
  void set_flow_completion_hook(std::function<void(SenderQp&)> hook) {
    flow_completion_hook_ = std::move(hook);
  }

  // --- NIC scheduler interface --------------------------------------------
  // Also prunes retransmit-queue entries that were acknowledged while
  // queued, so a true return guarantees DequeuePacket() can produce a
  // packet.
  bool HasWork();
  TimePs next_eligible() const { return next_send_time_; }
  // Pops the next packet (retransmissions first) and advances the pacer.
  // Pre: HasWork().
  Packet DequeuePacket();

  // --- Control-plane input -------------------------------------------------
  void HandleAck(const Packet& ack);
  void HandleNack(const Packet& nack);
  void HandleCnp(const Packet& cnp);

  // --- Introspection -------------------------------------------------------
  uint32_t flow_id() const { return flow_id_; }
  int dst_host() const { return dst_host_; }
  const QpConfig& config() const { return config_; }
  CongestionControl& cc() { return *cc_; }
  const SenderQpStats& stats() const { return stats_; }
  uint32_t snd_una() const { return snd_una_; }
  uint32_t snd_nxt() const { return snd_nxt_; }
  int64_t unacked_bytes() const { return unacked_bytes_; }
  bool AllCompleted() const { return completions_.empty() && post_queue_.empty(); }

 private:
  void EnqueueRetransmit(uint32_t psn);
  // kMultipath: records a selective acknowledgment and fires the head
  // retransmit when the SACK reordering depth proves head loss.
  void ProcessSack(uint32_t sacked_psn);
  // Advances snd_una to `new_una` (cumulative acknowledgment), firing message
  // completions and releasing window.
  void AdvanceUna(uint32_t new_una);
  void OnRetransmitTimeout();
  void ResetRtoIfNeeded();

  RnicHost* host_;
  uint32_t flow_id_;
  int dst_host_;
  QpConfig config_;
  std::unique_ptr<CongestionControl> cc_;

  // Messages not yet fully packetized; front is being cut into packets.
  // message_callbacks_ runs parallel to post_queue_.
  struct PendingMessage {
    uint64_t remaining;
  };
  std::deque<PendingMessage> post_queue_;
  std::deque<std::function<void()>> message_callbacks_;

  // Message completion: fires when last_psn is cumulatively acknowledged.
  struct CompletionRecord {
    uint32_t last_psn;
    std::function<void()> callback;
  };
  std::deque<CompletionRecord> completions_;
  bool current_message_open_ = false;  // front of post_queue_ has sent >=1 pkt

  // Whether `psn` has been sent and not yet cumulatively acknowledged.
  bool InFlight(uint32_t psn) const { return PsnLe(snd_una_, psn) && PsnLt(psn, snd_nxt_); }
  uint32_t InFlightCount() const {
    return PsnLt(snd_una_, snd_nxt_) ? static_cast<uint32_t>(PsnDiff(snd_nxt_, snd_una_)) : 0;
  }

  uint32_t snd_una_ = 0;  // oldest unacknowledged PSN
  uint32_t snd_nxt_ = 0;  // next fresh PSN
  // Payload and flags of each in-flight PSN, [snd_una_, snd_nxt_). A slot's
  // flags are reset when a fresh PSN takes it and read only while its PSN is
  // in flight, so stale rtx_queue_ entries leave nothing behind.
  PsnRing ring_;
  int64_t unacked_bytes_ = 0;

  // Slot flags.
  static constexpr uint8_t kRtxQueued = 1;  // in rtx_queue_
  // kIrn: retransmitted once since it was sent — prevents every further
  // NACK from re-firing the same gap.
  static constexpr uint8_t kRtxOnce = 2;

  std::deque<uint32_t> rtx_queue_;

  // kMultipath selective-ack state. A repeated SACK needs no per-PSN record:
  // highest_sacked_ only rises, so a PSN SACKed before cannot raise it.
  uint32_t highest_sacked_ = 0;
  bool any_sacked_ = false;
  bool head_rtx_fired_ = false;  // head-loss retransmit armed once per una

  TimePs next_send_time_ = 0;
  TimePs last_progress_time_ = 0;  // last send or cumulative-ack advance
  Timer rto_timer_;
  std::function<void(SenderQp&)> flow_completion_hook_;
  SenderQpStats stats_;
};

}  // namespace themis

#endif  // THEMIS_SRC_RNIC_SENDER_QP_H_
