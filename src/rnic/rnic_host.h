// A host with one RNIC attached to its ToR through port 0.
//
// The embedded NIC scheduler arbitrates all sender QPs onto the line: each
// QP is paced at its congestion-control rate, the scheduler round-robins
// among QPs that are eligible *now*, and the line itself is never
// oversubscribed (at most one data packet is serialized at a time). This
// models the hardware rate pacing of commodity RNICs. Control packets
// (ACK/NACK/CNP) bypass the scheduler and ride the port's strict-priority
// queue.

#ifndef THEMIS_SRC_RNIC_RNIC_HOST_H_
#define THEMIS_SRC_RNIC_RNIC_HOST_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/node.h"
#include "src/net/port.h"
#include "src/rnic/receiver_qp.h"
#include "src/rnic/sender_qp.h"
#include "src/telemetry/counters.h"

namespace themis {

struct RnicHostStats {
  uint64_t unknown_flow_drops = 0;
  uint64_t control_packets_sent = 0;
  uint64_t corrupt_rx = 0;  // wire-corrupted arrivals CRC-dropped by the NIC
};

class RnicHost : public Node {
 public:
  RnicHost(Simulator* sim, int id, std::string name)
      : Node(sim, id, NodeKind::kHost, std::move(name)),
        wake_timer_(sim, [this] { OnWake(); }) {}

  void ReceivePacket(const Packet& pkt, int in_port) override;

  // --- QP management -------------------------------------------------------
  SenderQp* CreateSenderQp(uint32_t flow_id, int dst_host, const QpConfig& config);
  ReceiverQp* CreateReceiverQp(uint32_t flow_id, int src_host, const QpConfig& config);
  SenderQp* sender_qp(uint32_t flow_id);
  ReceiverQp* receiver_qp(uint32_t flow_id);
  const std::vector<SenderQp*>& sender_qps() const { return sender_list_; }
  const std::vector<ReceiverQp*>& receiver_qps() const { return receiver_list_; }

  // --- Wire access ---------------------------------------------------------
  // Sends a control packet immediately (strict-priority queue, no pacing).
  void SendControl(const Packet& pkt);
  // Wakes the scheduler; called by QPs when work appears or windows open.
  void NotifyWork();

  Port* uplink() { return port(0); }
  Rate line_rate() const { return port(0)->rate(); }

  // Disables the autonomous NIC scheduler; unit tests use this to pull
  // packets from QPs by hand.
  void set_auto_schedule(bool enabled) { auto_schedule_ = enabled; }

  // Telemetry: when set, every QP created afterwards registers its per-QP
  // counters (NACKs received, retransmits, OOO-bitmap occupancy) under
  // "<host>.qp<flow>.*". The registry must outlive the host.
  void set_counter_registry(CounterRegistry* registry) { counter_registry_ = registry; }

  const RnicHostStats& stats() const { return host_stats_; }

 private:
  enum class SchedulerState : uint8_t { kIdle, kSleeping, kTransmitting };

  // Core arbitration loop; picks the earliest-eligible QP with work.
  void RunScheduler();
  // Fires when a scheduler sleep (pacing gap or PFC poll) elapses.
  void OnWake();

  std::unordered_map<uint32_t, std::unique_ptr<SenderQp>> senders_;
  std::unordered_map<uint32_t, std::unique_ptr<ReceiverQp>> receivers_;
  // Deterministic iteration order (unordered_map order is not portable).
  std::vector<SenderQp*> sender_list_;
  std::vector<ReceiverQp*> receiver_list_;

  bool auto_schedule_ = true;
  SchedulerState state_ = SchedulerState::kIdle;
  // Scheduler wake-up (pacing gap / PFC poll). A cancellable timer on the
  // callback heap, so the arm-on-sleep / cancel-on-NotifyWork churn leaves
  // no stale events in the queue.
  Timer wake_timer_;
  size_t rr_cursor_ = 0;  // round-robin start index for fairness
  RnicHostStats host_stats_;
  CounterRegistry* counter_registry_ = nullptr;
};

}  // namespace themis

#endif  // THEMIS_SRC_RNIC_RNIC_HOST_H_
