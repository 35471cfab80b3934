// Base class for anything attached to the network graph: hosts (RNICs) and
// switches. A node owns its egress ports; packet delivery happens through
// Node::ReceivePacket with the ingress port index.

#ifndef THEMIS_SRC_NET_NODE_H_
#define THEMIS_SRC_NET_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/simulator.h"

namespace themis {

class PacketArena;
class Port;

enum class NodeKind : uint8_t { kHost, kSwitch };

class Node {
 public:
  Node(Simulator* sim, int id, NodeKind kind, std::string name)
      : sim_(sim), id_(id), kind_(kind), name_(std::move(name)) {}
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Delivery of a fully received packet on ingress port `in_port`.
  virtual void ReceivePacket(const Packet& pkt, int in_port) = 0;

  // Called by an owned egress port when a data packet leaves its queue for
  // the wire (releases shared-buffer credit; drives PFC resume).
  virtual void OnDataPacketDequeued(const Packet& pkt) { (void)pkt; }

  // Called when a hold scheduled with Port::ScheduleTransmitHold on an owned
  // port ends (RnicHost: the line is free for its next data packet).
  virtual void OnTransmitHoldDone() {}

  // Creates a new unconnected egress port and returns its index.
  int AddPort();

  // The freelist arena backing this node's port queues. Network injects its
  // simulator-wide arena right after construction; nodes built standalone
  // (unit tests) lazily create a private one.
  PacketArena* packet_arena();
  void set_packet_arena(PacketArena* arena) { packet_arena_ = arena; }

  Port* port(int index) { return ports_[index].get(); }
  const Port* port(int index) const { return ports_[index].get(); }
  int port_count() const { return static_cast<int>(ports_.size()); }

  Simulator* sim() const { return sim_; }
  int id() const { return id_; }
  NodeKind kind() const { return kind_; }
  const std::string& name() const { return name_; }

  // How many of this node's ports are failed; Port::set_failed keeps it.
  int failed_ports() const { return failed_ports_; }

 private:
  friend class Port;  // keeps failed_ports_

  Simulator* sim_;
  int id_;
  NodeKind kind_;
  uint16_t failed_ports_ = 0;  // in the padding after kind_
  std::string name_;
  // Arena members precede ports_ so port queues are destroyed before the
  // (possibly owned) arena their nodes live in.
  PacketArena* packet_arena_ = nullptr;
  std::unique_ptr<PacketArena> owned_arena_;
  std::vector<std::unique_ptr<Port>> ports_;
};

}  // namespace themis

#endif  // THEMIS_SRC_NET_NODE_H_
