// Load-balancing policy interface.
//
// A switch consults its policy to pick one egress among the equal-cost
// candidate ports for a *data* packet (control packets always follow plain
// ECMP, matching deployments where ACK/CNP ride a separate traffic class and
// need no reordering protection).

#ifndef THEMIS_SRC_LB_LOAD_BALANCER_H_
#define THEMIS_SRC_LB_LOAD_BALANCER_H_

#include <cstdint>
#include <span>

#include "src/net/packet.h"
#include "src/net/port.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace themis {

class PacketBurst;  // never defined; see LoadBalancer::SelectBurst

struct LbContext {
  uint32_t switch_salt = 0;   // per-switch perturbation XORed into the hash
  uint32_t hash_shift = 0;    // bit-slice of the hash this tier consults
  TimePs now = 0;
  Rng* rng = nullptr;
};

class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;

  virtual const char* name() const = 0;

  // Picks an index into `candidates` (non-empty) for `pkt`.
  virtual size_t Select(const Packet& pkt, std::span<Port* const> candidates,
                        const LbContext& ctx) = 0;

  // Kept only because perfbench/perfbench.cc's TimedLb overrides these two
  // declarations: nothing in src/ calls them, and every switch selects per
  // packet through Select.
  virtual bool burst_stageable() const { return false; }
  virtual void SelectBurst(PacketBurst& /*burst*/, const uint32_t* /*idx*/,
                           const std::span<Port* const>* /*candidates*/, size_t /*n*/,
                           const LbContext& /*ctx*/, uint32_t* /*choices*/) {}
};

enum class LbKind : uint8_t {
  kEcmp = 0,         // flow-level hashing (baseline)
  kRandomSpray = 1,  // uniform per-packet spraying
  kAdaptive = 2,     // per-packet least-queue ("adaptive routing" baseline)
  kFlowlet = 3,      // flowlet switching (gap-based)
  kPsnSpray = 4,     // deterministic PSN-based spraying (Themis-S, Eq. 1)
};

constexpr const char* LbKindName(LbKind kind) {
  switch (kind) {
    case LbKind::kEcmp:
      return "ecmp";
    case LbKind::kRandomSpray:
      return "random-spray";
    case LbKind::kAdaptive:
      return "adaptive";
    case LbKind::kFlowlet:
      return "flowlet";
    case LbKind::kPsnSpray:
      return "psn-spray";
  }
  return "?";
}

}  // namespace themis

#endif  // THEMIS_SRC_LB_LOAD_BALANCER_H_
