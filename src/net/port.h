// An egress port: the transmit side of one directional link.
//
// Each port owns a finite drop-tail data queue plus a strict-priority
// control queue (ACK/NACK/CNP are tiny and ride the high-priority traffic
// class, as in production RoCE deployments). Serialization and propagation
// are modeled store-and-forward: a packet becomes visible at the peer
// serialization-time + propagation-delay after transmission starts.

#ifndef THEMIS_SRC_NET_PORT_H_
#define THEMIS_SRC_NET_PORT_H_

#include <cstdint>
#include <memory>

#include "src/net/ecn.h"
#include "src/net/node.h"
#include "src/net/packet.h"
#include "src/net/packet_queue.h"
#include "src/net/pause_log.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace themis {

// A gray failure on one link (scenario engine): every delivered packet is
// independently dropped or corrupted at a low rate. The state is owned by the
// ScenarioEngine and attached to a Port for the fault window; the RNG is a
// private per-port stream (MixSeed-derived), so draws never touch the
// simulator RNG and the outcome is the same with the same-tick drain on or
// off and across sweep thread counts.
struct GrayFault {
  Rng rng;
  double drop_prob = 0.0;
  double corrupt_prob = 0.0;
  uint64_t drops = 0;     // packets silently lost on this link
  uint64_t corrupts = 0;  // packets delivered damaged (CRC-dropped downstream)
};

struct PortStats {
  uint64_t tx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t tx_data_bytes = 0;
  uint64_t drops = 0;
  uint64_t drop_bytes = 0;
  uint64_t ecn_marks = 0;
  // Subset of ecn_marks that only happened because exogenous (background
  // model) occupancy lifted the effective depth past kmin — the hybrid
  // engine's model-induced marks.
  uint64_t ecn_marks_exogenous = 0;
  uint64_t pause_transitions = 0;  // PFC pause assertions received
  int64_t max_queue_bytes = 0;
  TimePs paused_time_ps = 0;  // closed pause intervals only; see PausedTimePs()
};

// Tagged line-rate events: a port event is fully described by the port
// pointer plus a kind in the pointer's low alignment bits, so the
// serialization/delivery chain and the owner's transmit hold schedule raw
// uint64 tags instead of callbacks. Port::DispatchBurst decodes them.
inline constexpr uint64_t kPortTagTxDone = 0;   // wire freed: start next transmission
inline constexpr uint64_t kPortTagDeliver = 1;  // head of in_flight_ reaches the peer
inline constexpr uint64_t kPortTagHold = 2;     // owner's transmit hold ends
inline constexpr uint64_t kPortTagKindMask = 7;

class Port {
 public:
  Port(Simulator* sim, Node* owner, int index)
      : sim_(sim),
        owner_(owner),
        index_(index),
        control_queue_(owner->packet_arena()),
        data_queue_(owner->packet_arena()),
        in_flight_(owner->packet_arena()) {}

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  // Wires this port to `peer`'s ingress `peer_port`. Must be called exactly
  // once before any Send().
  void ConnectTo(Node* peer, int peer_port, Rate rate, TimePs propagation_delay,
                 int64_t data_queue_capacity_bytes) {
    peer_ = peer;
    peer_port_ = peer_port;
    rate_ = rate;
    propagation_delay_ = propagation_delay;
    data_queue_capacity_ = data_queue_capacity_bytes;
    // Every connected port schedules tagged events; make sure the simulator
    // can decode them (idempotent).
    sim_->SetLineRateDispatcher(&Port::DispatchBurst);
  }

  // Decodes and executes a same-tick run of tagged port events one at a
  // time, in order: a tx-done starts the next transmission, a delivery hands
  // the head in-flight packet to the peer's ReceivePacket, and a hold calls
  // the owner's Node::OnTransmitHoldDone. Checks sim.stop_requested() between
  // events and returns how many completed — the executive re-queues the
  // rest. Registered by ConnectTo.
  static size_t DispatchBurst(Simulator& sim, const uint64_t* tags, size_t n);

  // Schedules the owner's transmit hold on this port's tag: `delay` from now,
  // DispatchBurst calls owner()->OnTransmitHoldDone().
  void ScheduleTransmitHold(TimePs delay) {
    sim_->SchedulePortEvent(delay, MakeTag(this, kPortTagHold));
  }

  // Enqueues a packet for transmission. Data packets exceeding the queue
  // capacity are dropped (drop-tail); control packets are never dropped.
  // Returns false if the packet was dropped (caller may use this for
  // buffer accounting).
  bool Send(Packet pkt);

  // Administratively fails/restores the link. A failed port drops packets
  // handed to it and packets completing their flight; packets already queued
  // stay parked (the switch buffer holds them through the outage) and resume
  // transmission on restore — restoring kicks StartNextTransmission so parked
  // packets do not wait for the next unrelated enqueue.
  void set_failed(bool failed);
  bool failed() const { return failed_; }

  // --- Scenario-engine fault hooks (src/scenario) ---------------------------
  // Gray failure: while non-null, every delivery draws from `gray`'s private
  // RNG to drop or corrupt the packet. Null (the default) costs one pointer
  // check on the delivery path and changes nothing.
  void set_gray_fault(GrayFault* gray) { gray_ = gray; }
  GrayFault* gray_fault() const { return gray_; }

  // Asymmetric degradation: temporarily scales this link's effective rate by
  // `factor` (0 < factor <= 1) by stretching serialization slots in Q16
  // integer math, like the hybrid engine's slot stealing. factor >= 1 (or
  // exactly 1.0) clears it; zero-cost and bit-identical when clear.
  void set_degrade_factor(double factor) {
    degrade_q16_ = (factor > 0.0 && factor < 1.0)
                       ? static_cast<uint64_t>((1.0 / factor - 1.0) * 65536.0 + 0.5)
                       : 0;
  }
  bool degraded() const { return degrade_q16_ != 0; }

  // PFC pause state for the data traffic class. While paused the port keeps
  // serving the (lossless-priority) control queue but holds data packets.
  void SetPaused(bool paused);
  bool paused() const { return paused_; }

  int64_t queued_data_bytes() const { return queued_data_bytes_; }

  // --- Hybrid-fidelity exogenous pressure (src/traffic) ---------------------
  // The BackgroundTrafficEngine folds modelled background load into this port
  // as (virtual occupancy bytes, link utilization). Effects:
  //   * EffectiveQueueBytes() — what depth-reading LB policies and the WRED
  //     profile see — becomes real + exogenous bytes;
  //   * foreground serialization slots stretch by 1/(1 - utilization)
  //     (processor sharing with the modelled background), via integer Q16
  //     math so the hot path stays FP-free and bit-identical when off.
  // Drop-tail capacity and PFC accounting stay on *real* bytes: modelled
  // background must not consume real buffer credit (fidelity boundary,
  // DESIGN.md "Hybrid fidelity").
  void SetBackgroundPressure(int64_t occupancy_bytes, double utilization) {
    exo_bytes_ = occupancy_bytes > 0 ? occupancy_bytes : 0;
    constexpr double kMaxUtil = 0.95;  // TrafficModel::kMaxUtilization
    const double util = utilization < 0.0 ? 0.0 : (utilization > kMaxUtil ? kMaxUtil : utilization);
    // Q16 fixed-point of util / (1 - util): extra serialization per unit.
    bg_steal_q16_ = util > 0.0 ? static_cast<uint64_t>(util / (1.0 - util) * 65536.0 + 0.5) : 0;
  }
  int64_t exogenous_bytes() const { return exo_bytes_; }

  // The single depth accessor for congestion-reactive readers (adaptive
  // routing, WRED/ECN): real queued data bytes plus exogenous model
  // occupancy. Identical to queued_data_bytes() when no model is attached.
  int64_t EffectiveQueueBytes() const { return queued_data_bytes_ + exo_bytes_; }

  int64_t data_queue_capacity() const { return data_queue_capacity_; }
  bool connected() const { return peer_ != nullptr; }
  Node* peer() const { return peer_; }
  int peer_port() const { return peer_port_; }
  Rate rate() const { return rate_; }
  TimePs propagation_delay() const { return propagation_delay_; }
  int index() const { return index_; }
  Node* owner() const { return owner_; }

  EcnProfile& ecn() { return ecn_; }
  const EcnProfile& ecn() const { return ecn_; }

  const PortStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PortStats{}; }

  // Total time the data class has spent paused, including the currently
  // open interval (stats_.paused_time_ps only accumulates on release).
  TimePs PausedTimePs() const {
    return stats_.paused_time_ps + (paused_ ? sim_->now() - pause_since_ : 0);
  }

  // Per-interval pause history (beyond the aggregate paused_time_ps): which
  // pause intervals overlapped a given window. Feeds the PFC conformance
  // tests. Empty until the port first pauses, which allocates the log: most
  // ports of a large fabric never pause.
  const PauseIntervalLog& pause_log() const {
    static const PauseIntervalLog kNeverPaused;
    return pause_log_ != nullptr ? *pause_log_ : kNeverPaused;
  }

 private:
  static uint64_t MakeTag(Port* port, uint64_t kind) {
    return reinterpret_cast<uint64_t>(port) | kind;
  }
  static Port* PortFromTag(uint64_t tag) {
    return reinterpret_cast<Port*>(tag & ~kPortTagKindMask);
  }
  static uint64_t TagKind(uint64_t tag) { return tag & kPortTagKindMask; }

  void StartNextTransmission();
  // Gray-failure draw for one delivered packet (drop / corrupt-in-place /
  // clean). Call only with gray_ attached. Returns false when the packet is
  // lost on the wire.
  bool ApplyGrayFault(Packet& pkt);
  void DeliverHeadInFlight();

  Simulator* sim_;
  Node* owner_;
  int index_;

  Node* peer_ = nullptr;
  int peer_port_ = -1;
  Rate rate_;
  TimePs propagation_delay_ = 0;
  int64_t data_queue_capacity_ = 0;

  bool busy_ = false;
  bool failed_ = false;
  bool paused_ = false;
  TimePs pause_since_ = 0;  // valid while paused_
  std::unique_ptr<PauseIntervalLog> pause_log_;  // null until the first pause
  // Freelist-backed FIFOs (see packet_queue.h): the per-packet fast path
  // recycles queue nodes through the simulator-wide arena instead of
  // round-tripping the allocator.
  PacketQueue control_queue_;
  PacketQueue data_queue_;
  // Packets serialized onto the wire but not yet delivered. Arrival events
  // capture no packet payload (cheap, allocation-free std::function); the
  // FIFO is valid because per-link arrival times are monotone.
  PacketQueue in_flight_;
  int64_t queued_data_bytes_ = 0;
  // Exogenous pressure (SetBackgroundPressure): virtual occupancy and the
  // Q16 slot-stealing factor util/(1-util). Both zero unless a background
  // model drives this port.
  int64_t exo_bytes_ = 0;
  uint64_t bg_steal_q16_ = 0;
  // Scenario-engine faults: Q16 serialization stretch (1/factor - 1) for
  // asymmetric degradation, and the attached gray-failure state. Both inert
  // (zero / null) unless a ScenarioEngine drives this port.
  uint64_t degrade_q16_ = 0;
  GrayFault* gray_ = nullptr;

  EcnProfile ecn_{.enabled = false};
  PortStats stats_;
};

}  // namespace themis

#endif  // THEMIS_SRC_NET_PORT_H_
