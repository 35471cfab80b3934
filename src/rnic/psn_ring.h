// Per-PSN state of one queue pair, indexed by PSN.
//
// The paper's NIC-SR receiver keeps a bitmap of out-of-order PSNs indexed by
// their offset from the ePSN (Section 2.2); the sender keeps one record per
// unacknowledged PSN. Both sets are runs of consecutive PSNs, so a
// power-of-two ring with slot `psn & (size - 1)` holds them: every access is
// an indexed load or store. The size never exceeds 2^24, so consecutive PSNs
// keep consecutive slots across the 24-bit wrap. The owner knows which PSNs
// are live and says so when the ring grows; nothing is allocated until the
// first Reserve.

#ifndef THEMIS_SRC_RNIC_PSN_RING_H_
#define THEMIS_SRC_RNIC_PSN_RING_H_

#include <cassert>
#include <cstdint>
#include <memory>

#include "src/net/psn.h"

namespace themis {

struct PsnSlot {
  uint32_t payload = 0;  // payload bytes of the packet with this PSN
  uint8_t flags = 0;     // owner-defined per-PSN bits
};

class PsnRing {
 public:
  static constexpr uint32_t kMinSize = 64;

  uint32_t size() const { return size_; }

  // Pre: a Reserve made room for `psn` among the live PSNs.
  PsnSlot& operator[](uint32_t psn) { return slots_[psn & (size_ - 1)]; }

  // Makes room for `needed` consecutive PSNs: doubles the size, from
  // kMinSize, until they fit, and moves the `live` PSNs starting at `first`
  // to their new slots. Every other slot of a grown ring is empty.
  void Reserve(uint32_t needed, uint32_t first, uint32_t live) {
    if (needed > size()) {
      Grow(needed, first, live);
    }
  }

 private:
  void Grow(uint32_t needed, uint32_t first, uint32_t live) {
    uint32_t grown = size_ == 0 ? kMinSize : size_;
    while (grown < needed) {
      grown *= 2;
    }
    assert(grown <= kPsnSpace && live <= size_);
    std::unique_ptr<PsnSlot[]> slots = std::make_unique<PsnSlot[]>(grown);
    for (uint32_t i = 0; i < live; ++i) {
      const uint32_t psn = PsnAdd(first, i);
      slots[psn & (grown - 1)] = (*this)[psn];
    }
    slots_ = std::move(slots);
    size_ = grown;
  }

  std::unique_ptr<PsnSlot[]> slots_;
  uint32_t size_ = 0;
};

}  // namespace themis

#endif  // THEMIS_SRC_RNIC_PSN_RING_H_
