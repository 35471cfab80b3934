#include "src/net/node.h"

#include "src/net/packet_queue.h"
#include "src/net/port.h"

namespace themis {

Node::~Node() = default;

PacketArena* Node::packet_arena() {
  if (packet_arena_ == nullptr) {
    owned_arena_ = std::make_unique<PacketArena>();
    packet_arena_ = owned_arena_.get();
  }
  return packet_arena_;
}

int Node::AddPort() {
  const int index = static_cast<int>(ports_.size());
  ports_.push_back(std::make_unique<Port>(sim_, this, index));
  return index;
}

}  // namespace themis
