// The switch model.
//
// A switch forwards by (1) running its ingress hooks — this is where Themis-S
// and Themis-D attach, exactly like match-action stages on a programmable
// ToR — then (2) looking up the equal-cost candidate egress set for the
// destination and (3) asking its load-balancing policy to pick one. Control
// packets (ACK/NACK/CNP) always follow plain ECMP.

#ifndef THEMIS_SRC_TOPO_SWITCH_H_
#define THEMIS_SRC_TOPO_SWITCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/lb/policies.h"
#include "src/net/node.h"
#include "src/net/pause_log.h"
#include "src/net/port.h"

namespace themis {

class Switch;

// Programmable-dataplane attachment point. Hooks run in registration order
// on every ingress packet; returning false consumes the packet (Themis-D
// blocking an invalid NACK). Hooks may mutate the packet (Themis-S rewriting
// the UDP source port).
class SwitchHook {
 public:
  virtual ~SwitchHook() = default;
  virtual bool OnIngress(Switch& sw, Packet& pkt, int in_port) = 0;
};

struct SwitchStats {
  uint64_t forwarded = 0;
  uint64_t consumed_by_hook = 0;
  uint64_t no_route_drops = 0;
  uint64_t corrupt_drops = 0;  // ingress CRC check failed (gray failure)
  uint64_t pfc_pauses_sent = 0;
  uint64_t pfc_resumes_sent = 0;
};

// Priority flow control (802.1Qbb) for the data traffic class: when the
// buffer bytes attributed to one ingress port exceed xoff, the switch pauses
// its upstream neighbour; once they drain below xon it resumes. Control
// packets (ACK/NACK/CNP) ride a separate lossless priority and are never
// paused. This is what makes RoCE fabrics drop-free and is assumed by the
// paper's DCQCN setup.
struct PfcConfig {
  bool enabled = false;
  int64_t xoff_bytes = 150 * 1024;
  int64_t xon_bytes = 100 * 1024;
};

class Switch : public Node {
 public:
  Switch(Simulator* sim, int id, std::string name)
      : Node(sim, id, NodeKind::kSwitch, std::move(name)) {}

  void ReceivePacket(const Packet& pkt, int in_port) override;
  void OnDataPacketDequeued(const Packet& pkt) override;

  // Forwards `pkt` according to routing + LB, bypassing ingress hooks. Used
  // by hooks themselves to inject packets (e.g. compensated NACKs).
  void Forward(const Packet& pkt);

  // --- PFC ------------------------------------------------------------------
  void ConfigurePfc(const PfcConfig& config) { pfc_ = config; }
  const PfcConfig& pfc() const { return pfc_; }
  int64_t IngressBufferBytes(int in_port) const {
    return static_cast<size_t>(in_port) < ingress_bytes_.size()
               ? ingress_bytes_[static_cast<size_t>(in_port)]
               : 0;
  }
  // Pause intervals this switch has asserted towards the neighbour on
  // `in_port` (the in-network observation point the paper gives Themis:
  // the ToR sees its own pause frames). Null if never asserted: the log is
  // allocated at that ingress's first pause.
  const PauseIntervalLog* IngressPauseLog(int in_port) const {
    return in_port >= 0 && static_cast<size_t>(in_port) < ingress_pause_log_.size()
               ? ingress_pause_log_[static_cast<size_t>(in_port)].get()
               : nullptr;
  }
  // Max pause time any single upstream neighbour spent paused by this switch
  // overlapping [from, to]. Upstream pauses on different ingress ports run
  // concurrently, so the max (not the sum) bounds one packet's extra delay.
  TimePs MaxIngressPauseOverlapPs(TimePs from, TimePs to) const {
    TimePs max_overlap = 0;
    for (const std::unique_ptr<PauseIntervalLog>& log : ingress_pause_log_) {
      if (log != nullptr) {
        max_overlap = std::max(max_overlap, log->OverlapPs(from, to, sim()->now()));
      }
    }
    return max_overlap;
  }

  // --- Routing table -------------------------------------------------------
  // Equal-cost egress candidates per destination node id. Like a P4 table
  // entry pointing at a shared ECMP member group, each destination holds only
  // a small id into this switch's list of distinct candidate sets: identical
  // port lists are stored once, so a k=16 fat-tree switch keeps 9 to 16 sets
  // for its 1024 destinations. Candidate order is the install order.
  void SetRoute(int dst_node, std::span<const int> port_indices);
  std::span<Port* const> RouteCandidates(int dst_node) const {
    return RouteFor(dst_node).ports;
  }
  // True when every candidate for `dst_node` is a host-facing port, i.e. this
  // switch is the destination's ToR and this is the last switch hop.
  bool IsLastHop(int dst_node) const { return RouteFor(dst_node).last_hop; }
  // Number of distinct non-empty candidate sets.
  size_t route_set_count() const { return route_sets_.size() - 1; }

  // --- Policy & identity ---------------------------------------------------
  void set_data_lb(std::unique_ptr<LoadBalancer> lb) { data_lb_ = std::move(lb); }
  LoadBalancer* data_lb() const { return data_lb_.get(); }
  void set_ecmp_salt(uint32_t salt) { ecmp_salt_ = salt; }
  uint32_t ecmp_salt() const { return ecmp_salt_; }
  // Hash bit-slice this tier consults (decorrelates ECMP stages while
  // keeping GF(2) linearity; see src/themis/path_map.h).
  void set_hash_shift(uint32_t shift) { hash_shift_ = shift; }
  uint32_t hash_shift() const { return hash_shift_; }

  void MarkHostPort(int port_index);
  bool IsHostPort(int port_index) const {
    return port_index >= 0 && static_cast<size_t>(port_index) < host_port_.size() &&
           host_port_[static_cast<size_t>(port_index)];
  }

  void AddHook(SwitchHook* hook) { hooks_.push_back(hook); }

  const SwitchStats& stats() const { return stats_; }

 private:
  // Charges/releases shared-buffer credit for `in_port` and drives PFC
  // pause/resume towards the upstream neighbour.
  void ChargeIngress(int in_port, int64_t bytes);
  void ReleaseIngress(int in_port, int64_t bytes);
  void SendPfcFrame(int in_port, bool pause);

  // One distinct candidate set. Set 0 is the empty set: destinations without
  // a route map to it, so a lookup never branches on "no entry".
  struct RouteSet {
    std::vector<Port*> ports;
    bool last_hop = false;  // non-empty and every candidate faces a host
  };
  const RouteSet& RouteFor(int dst_node) const {
    const auto dst = static_cast<size_t>(dst_node);
    return route_sets_[dst < route_of_.size() ? route_of_[dst] : 0];
  }
  // The id of the set equal to `port_indices`, appending it if new.
  uint16_t InternRoute(std::span<const int> port_indices);

  std::vector<RouteSet> route_sets_ = std::vector<RouteSet>(1);
  std::vector<uint16_t> route_of_;  // dst node id -> index into route_sets_
  // Forward's live candidates when some of a set have failed.
  std::vector<Port*> live_candidates_;
  std::vector<bool> host_port_;  // port index -> faces a host
  std::unique_ptr<LoadBalancer> data_lb_ = std::make_unique<EcmpLb>();
  EcmpLb control_lb_;
  std::vector<SwitchHook*> hooks_;
  uint32_t ecmp_salt_ = 0;
  uint32_t hash_shift_ = 0;
  PfcConfig pfc_;
  std::vector<int64_t> ingress_bytes_;  // buffered bytes per ingress port
  std::vector<bool> ingress_paused_;    // pause currently asserted upstream
  // Assertion history per ingress; null until that ingress first pauses.
  std::vector<std::unique_ptr<PauseIntervalLog>> ingress_pause_log_;
  SwitchStats stats_;
};

}  // namespace themis

#endif  // THEMIS_SRC_TOPO_SWITCH_H_
