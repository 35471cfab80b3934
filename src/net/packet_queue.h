// Freelist-backed packet queues for the switch/port fast path.
//
// Port moves every packet through three FIFO queues (control, data,
// in-flight). Backing them with std::deque means the allocator is hit every
// time a deque block is carved or returned, on the hottest path in the
// simulator. A PacketArena recycles fixed-size nodes through a freelist:
// after warm-up, pushing and popping packets performs no allocation at all.
// The arena is per-simulator — Network owns one and shares it across every
// node it creates — so nodes freed by one port are reused by any other,
// and nothing is shared between concurrently running experiments
// (SweepRunner determinism contract).

#ifndef THEMIS_SRC_NET_PACKET_QUEUE_H_
#define THEMIS_SRC_NET_PACKET_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/packet.h"

namespace themis {

class PacketArena {
 public:
  struct Node {
    Packet pkt;
    Node* next = nullptr;
  };

  PacketArena() = default;
  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  Node* Alloc() {
    if (free_head_ != nullptr) {
      Node* node = free_head_;
      free_head_ = node->next;
      ++recycled_;
      return node;
    }
    if (next_in_slab_ == kSlabNodes) {
      slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
      next_in_slab_ = 0;
    }
    ++fresh_;
    return &slabs_.back()[next_in_slab_++];
  }

  void Free(Node* node) {
    node->next = free_head_;
    free_head_ = node;
  }

  // Nodes carved from slabs / served from the freelist, for tests and
  // memory accounting.
  size_t fresh_allocations() const { return fresh_; }
  size_t recycled_allocations() const { return recycled_; }
  size_t slab_count() const { return slabs_.size(); }

 private:
  static constexpr size_t kSlabNodes = 256;

  std::vector<std::unique_ptr<Node[]>> slabs_;
  Node* free_head_ = nullptr;
  size_t next_in_slab_ = kSlabNodes;  // forces the first slab on first Alloc
  size_t fresh_ = 0;
  size_t recycled_ = 0;
};

// FIFO of packets drawing nodes from a PacketArena. The arena must outlive
// the queue.
class PacketQueue {
 public:
  explicit PacketQueue(PacketArena* arena) : arena_(arena) {}

  PacketQueue(const PacketQueue&) = delete;
  PacketQueue& operator=(const PacketQueue&) = delete;

  ~PacketQueue() { clear(); }

  bool empty() const { return head_ == nullptr; }
  size_t size() const { return size_; }

  void push_back(const Packet& pkt) {
    PacketArena::Node* node = arena_->Alloc();
    node->pkt = pkt;
    node->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = node;
    } else {
      head_ = node;
    }
    tail_ = node;
    ++size_;
  }

  Packet& front() {
    assert(head_ != nullptr);
    return head_->pkt;
  }
  const Packet& front() const {
    assert(head_ != nullptr);
    return head_->pkt;
  }

  void pop_front() {
    assert(head_ != nullptr);
    PacketArena::Node* node = head_;
    head_ = node->next;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    arena_->Free(node);
    --size_;
  }

  void clear() {
    while (head_ != nullptr) {
      pop_front();
    }
  }

 private:
  PacketArena* arena_;
  PacketArena::Node* head_ = nullptr;
  PacketArena::Node* tail_ = nullptr;
  size_t size_ = 0;
};

}  // namespace themis

#endif  // THEMIS_SRC_NET_PACKET_QUEUE_H_
