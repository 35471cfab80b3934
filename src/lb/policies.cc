#include "src/lb/policies.h"

namespace themis {

size_t AdaptiveRoutingLb::Select(const Packet& pkt, std::span<Port* const> candidates,
                                 const LbContext& ctx) {
  (void)pkt;
  int64_t best_bytes = INT64_MAX;
  size_t best_count = 0;
  size_t best_index = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    // Effective depth = real + exogenous (hybrid background model); the one
    // depth accessor every congestion-reactive reader goes through, so
    // packet-level and hybrid runs share this code path exactly.
    const int64_t queued = candidates[i]->EffectiveQueueBytes();
    if (queued < best_bytes) {
      best_bytes = queued;
      best_count = 1;
      best_index = i;
    } else if (queued == best_bytes) {
      // Reservoir-sample among ties for an unbiased random tie-break.
      ++best_count;
      if (ctx.rng->Below(best_count) == 0) {
        best_index = i;
      }
    }
  }
  return best_index;
}

size_t FlowletLb::Select(const Packet& pkt, std::span<Port* const> candidates,
                         const LbContext& ctx) {
  auto [it, inserted] = flows_.try_emplace(pkt.flow_id);
  FlowletState& state = it->second;
  const bool expired = !inserted && (ctx.now - state.last_packet) > flowlet_gap_;
  if (inserted || expired || state.port_index >= candidates.size()) {
    state.port_index = static_cast<size_t>(ctx.rng->Below(candidates.size()));
    ++flowlet_count_;
  }
  state.last_packet = ctx.now;
  return state.port_index;
}

std::unique_ptr<LoadBalancer> MakeLoadBalancer(LbKind kind, const LbParams& params) {
  switch (kind) {
    case LbKind::kEcmp:
      return std::make_unique<EcmpLb>();
    case LbKind::kRandomSpray:
      return std::make_unique<RandomSprayLb>();
    case LbKind::kAdaptive:
      return std::make_unique<AdaptiveRoutingLb>();
    case LbKind::kFlowlet:
      return std::make_unique<FlowletLb>(params.flowlet_gap);
    case LbKind::kPsnSpray:
      return std::make_unique<PsnSprayLb>();
  }
  return nullptr;
}

}  // namespace themis
