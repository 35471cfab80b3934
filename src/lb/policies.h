// Concrete load-balancing policies: ECMP, random packet spraying, adaptive
// routing, flowlet switching, and the PSN-based deterministic spraying that
// Themis-S enforces (paper Eq. 1).

#ifndef THEMIS_SRC_LB_POLICIES_H_
#define THEMIS_SRC_LB_POLICIES_H_

#include <memory>
#include <unordered_map>

#include "src/lb/ecmp_hash.h"
#include "src/lb/load_balancer.h"

namespace themis {

// Flow-level ECMP: hash the 5-tuple once, same path for the flow's lifetime.
class EcmpLb : public LoadBalancer {
 public:
  // The whole policy as a static pure function; PsnSprayLb takes its P_base
  // from it.
  static size_t Pick(const Packet& pkt, size_t n_candidates, const LbContext& ctx) {
    const uint32_t hash = (EcmpHash(TupleFromPacket(pkt)) ^ ctx.switch_salt) >> ctx.hash_shift;
    return EcmpBucket(hash, static_cast<uint32_t>(n_candidates));
  }

  const char* name() const override { return "ecmp"; }
  size_t Select(const Packet& pkt, std::span<Port* const> candidates,
                const LbContext& ctx) override {
    return Pick(pkt, candidates.size(), ctx);
  }
};

// Random packet spraying: uniform random egress per packet.
class RandomSprayLb : public LoadBalancer {
 public:
  const char* name() const override { return "random-spray"; }
  size_t Select(const Packet& pkt, std::span<Port* const> candidates,
                const LbContext& ctx) override {
    (void)pkt;
    return static_cast<size_t>(ctx.rng->Below(candidates.size()));
  }
};

// Adaptive routing: per-packet least-loaded egress (queue depth in bytes),
// random tie-break. Models switch-local adaptive routing as shipped in
// modern fabrics. Depth is read through Port::EffectiveQueueBytes() — real
// queue plus any exogenous background-model occupancy — so hybrid-fidelity
// runs steer around modelled congestion through the same code path.
class AdaptiveRoutingLb : public LoadBalancer {
 public:
  const char* name() const override { return "adaptive"; }
  size_t Select(const Packet& pkt, std::span<Port* const> candidates,
                const LbContext& ctx) override;
};

// Flowlet switching: a flow re-picks its path only after an idle gap longer
// than `flowlet_gap`. With RNIC hardware pacing the gaps rarely appear, which
// is the incompatibility Section 2.3 describes; the policy exists as a
// baseline to demonstrate exactly that.
class FlowletLb : public LoadBalancer {
 public:
  explicit FlowletLb(TimePs flowlet_gap) : flowlet_gap_(flowlet_gap) {}

  const char* name() const override { return "flowlet"; }
  size_t Select(const Packet& pkt, std::span<Port* const> candidates,
                const LbContext& ctx) override;

  // Number of distinct flowlets observed (path re-selections + initial picks).
  uint64_t flowlet_count() const { return flowlet_count_; }

 private:
  struct FlowletState {
    size_t port_index = 0;
    TimePs last_packet = 0;
  };

  TimePs flowlet_gap_;
  uint64_t flowlet_count_ = 0;
  std::unordered_map<uint32_t, FlowletState> flows_;
};

// PSN-based deterministic spraying (paper Eq. 1):
//   path_i = (PSN_i mod N + P_base) mod N,  P_base = ECMP hash of the flow.
// Implemented directly as the ToR egress choice in 2-tier fabrics; the
// multi-tier sport-rewrite variant lives in src/themis/path_map.h.
class PsnSprayLb : public LoadBalancer {
 public:
  const char* name() const override { return "psn-spray"; }
  size_t Select(const Packet& pkt, std::span<Port* const> candidates,
                const LbContext& ctx) override {
    const uint32_t n = static_cast<uint32_t>(candidates.size());
    const uint32_t base = static_cast<uint32_t>(EcmpLb::Pick(pkt, n, ctx));
    return static_cast<size_t>(((pkt.psn % n) + base) % n);
  }
};

struct LbParams {
  TimePs flowlet_gap = 50 * kMicrosecond;
};

// Creates a fresh policy instance (policies with per-flow state must not be
// shared across switches).
std::unique_ptr<LoadBalancer> MakeLoadBalancer(LbKind kind, const LbParams& params = {});

}  // namespace themis

#endif  // THEMIS_SRC_LB_POLICIES_H_
