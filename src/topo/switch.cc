#include "src/topo/switch.h"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>

namespace themis {
namespace {

bool AnyFailed(std::span<Port* const> ports) {
  return std::any_of(ports.begin(), ports.end(), [](const Port* port) { return port->failed(); });
}

}  // namespace

void SwitchHook::OnIngressBurst(Switch& sw, PacketBurst& burst) {
  const size_t n = burst.size();
  for (size_t i = 0; i < n; ++i) {
    if (!burst.consumed(i) && !OnIngress(sw, burst.packet(i), burst.in_port(i))) {
      burst.Consume(i);
    }
  }
}

void Switch::ReceivePacket(const Packet& pkt, int in_port) {
  // Ingress CRC check: a wire-corrupted packet (gray failure) is counted and
  // dropped before any match-action stage sees it, as real switch MACs do.
  if (pkt.corrupted) {
    ++stats_.corrupt_drops;
    return;
  }
  Packet mutable_pkt = pkt;
  // Re-home the buffer attribution to this switch's ingress.
  mutable_pkt.sim_ingress = in_port;
  for (SwitchHook* hook : hooks_) {
    if (!hook->OnIngress(*this, mutable_pkt, in_port)) {
      ++stats_.consumed_by_hook;
      return;
    }
  }
  Forward(mutable_pkt);
}

void Switch::Forward(const Packet& pkt) {
  std::span<Port* const> candidates = RouteCandidates(pkt.dst_host);
  // The common case has no failed candidate and chooses from the set itself;
  // otherwise the live ones are copied into storage that grows with the set.
  if (AnyFailed(candidates)) {
    live_candidates_.clear();
    std::copy_if(candidates.begin(), candidates.end(), std::back_inserter(live_candidates_),
                 [](const Port* port) { return !port->failed(); });
    candidates = live_candidates_;
  }
  if (candidates.empty()) {
    ++stats_.no_route_drops;
    return;
  }

  LbContext ctx{.switch_salt = ecmp_salt_,
                .hash_shift = hash_shift_,
                .now = sim()->now(),
                .rng = &sim()->rng()};
  LoadBalancer* lb = pkt.IsControl() ? &control_lb_ : data_lb_.get();
  const size_t choice = lb->Select(pkt, candidates, ctx);
  SendResolved(pkt, candidates[choice]);
}

void Switch::SendResolved(const Packet& pkt, Port* egress) {
  ++stats_.forwarded;
  // Charge shared-buffer credit BEFORE handing to the egress: an idle port
  // transmits synchronously, and the dequeue callback releases the credit.
  const bool track = pfc_.enabled && !pkt.IsControl() && pkt.sim_ingress >= 0;
  if (track) {
    ChargeIngress(pkt.sim_ingress, pkt.wire_bytes);
  }
  const bool accepted = egress->Send(pkt);
  if (track && !accepted) {
    ReleaseIngress(pkt.sim_ingress, pkt.wire_bytes);
  }
}

void Switch::RefreshHookClasses() {
  hook_stage_prefix_ = 0;
  any_generic_hook_ = false;
  tail_all_per_packet_ = true;
  bool in_prefix = true;
  for (SwitchHook* hook : hooks_) {
    const SwitchHook::IngressBurstClass cls = hook->burst_class();
    if (cls == SwitchHook::IngressBurstClass::kGeneric) {
      any_generic_hook_ = true;
    }
    if (in_prefix && cls == SwitchHook::IngressBurstClass::kStageable) {
      ++hook_stage_prefix_;
    } else {
      in_prefix = false;
      // A stageable (i.e. packet-mutating rewrite) hook stranded in the tail
      // still runs per packet — but it may rewrite LB-relevant fields after
      // StageEgress consumed them, so it forbids LB staging just like a
      // generic hook would.
      if (cls != SwitchHook::IngressBurstClass::kPerPacket) {
        tail_all_per_packet_ = false;
      }
    }
  }
}

void Switch::StageEgress(PacketBurst& burst, const LbContext& ctx) {
  const size_t n = burst.size();
  burst.egress.assign(n, nullptr);
  burst.lb_idx.clear();
  burst.lb_cands.clear();
  burst.live_pool.clear();
  // Reserve the worst case up front: spans handed to SelectBurst point into
  // live_pool, so it must never reallocate mid-stage.
  size_t pool_cap = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!burst.consumed(i)) {
      pool_cap += RouteCandidates(burst.packet(i).dst_host).size();
    }
  }
  burst.live_pool.reserve(pool_cap);

  for (size_t i = 0; i < n; ++i) {
    if (burst.consumed(i)) {
      continue;
    }
    Packet& pkt = burst.packet(i);
    std::span<Port* const> candidates = RouteCandidates(pkt.dst_host);
    if (candidates.empty()) {
      continue;  // egress stays null → counted as a no-route drop in order
    }
    if (AnyFailed(candidates)) {
      // Hooks audited for burst mode never fail ports, so the filtered set
      // is valid for the whole burst.
      const size_t start = burst.live_pool.size();
      for (Port* port : candidates) {
        if (!port->failed()) {
          burst.live_pool.push_back(port);
        }
      }
      if (burst.live_pool.size() == start) {
        continue;  // all candidates failed → null egress, no-route drop
      }
      candidates = std::span<Port* const>(burst.live_pool.data() + start,
                                          burst.live_pool.size() - start);
    }
    if (burst.is_control(i)) {
      // Control traffic always follows plain ECMP: pick inline, devirtualized.
      burst.egress[i] = candidates[EcmpLb::Pick(pkt, candidates.size(), ctx)];
    } else {
      burst.lb_idx.push_back(static_cast<uint32_t>(i));
      burst.lb_cands.push_back(candidates);
    }
  }

  const size_t staged = burst.lb_idx.size();
  if (staged > 0) {
    burst.lb_choice.resize(staged);
    data_lb_->SelectBurst(burst, burst.lb_idx.data(), burst.lb_cands.data(), staged,
                          ctx, burst.lb_choice.data());
    for (size_t k = 0; k < staged; ++k) {
      burst.egress[burst.lb_idx[k]] = burst.lb_cands[k][burst.lb_choice[k]];
    }
  }
}

void Switch::ReceiveBurst(PacketBurst& burst) {
  // Any unaudited hook → replay the exact scalar path for the whole burst.
  if (any_generic_hook_) {
    Node::ReceiveBurst(burst);
    return;
  }
  const size_t n = burst.size();
  // Re-home buffer attribution once for the whole burst (scalar does this
  // per packet before the hooks run). The ingress CRC pre-pass consumes
  // wire-corrupted packets (gray failure) before any hook stage, mirroring
  // the scalar path's drop-before-hooks position; stage 3 tells these apart
  // from hook consumption via the corrupt flag column.
  for (size_t i = 0; i < n; ++i) {
    burst.packet(i).sim_ingress = burst.in_port(i);
    if (burst.is_corrupt(i)) {
      ++stats_.corrupt_drops;
      burst.Consume(i);
    }
  }
  // Stage 1: the stageable hook prefix runs as whole-burst column loops.
  // Legal because stageable hooks are pure per-packet rewrites — hoisting
  // hook(h, pkt_i) ahead of hook(h', pkt_j) for a later h' changes nothing
  // any packet observes.
  for (size_t h = 0; h < hook_stage_prefix_; ++h) {
    hooks_[h]->OnIngressBurst(*this, burst);
  }
  // Stage 2: pre-select egress ports when the data policy is a pure function
  // of the (post-prefix) packet AND every tail hook is kPerPacket — audited
  // to never invalidate these choices.
  const bool staged_lb = tail_all_per_packet_ && data_lb_->burst_stageable();
  LbContext ctx{.switch_salt = ecmp_salt_,
                .hash_shift = hash_shift_,
                .now = sim()->now(),
                .rng = &sim()->rng()};
  if (staged_lb) {
    StageEgress(burst, ctx);
  }
  // Stage 3: fused per-packet loop — tail hooks at their registered position,
  // then PFC charge + send, in strict packet order (RNG draws and event-seq
  // allocations happen here, exactly as the scalar path interleaves them).
  for (size_t i = 0; i < n; ++i) {
    if (burst.consumed(i)) {
      // CRC pre-pass drops were already counted as corrupt_drops, not hook
      // consumption (scalar parity: hooks never see corrupted packets).
      if (!burst.is_corrupt(i)) {
        ++stats_.consumed_by_hook;
      }
      continue;
    }
    burst.PrefetchPacket(i + 1);
    Packet& pkt = burst.packet(i);
    bool consumed = false;
    for (size_t h = hook_stage_prefix_; h < hooks_.size(); ++h) {
      if (!hooks_[h]->OnIngress(*this, pkt, burst.in_port(i))) {
        consumed = true;
        break;
      }
    }
    if (consumed) {
      ++stats_.consumed_by_hook;
      continue;
    }
    if (staged_lb) {
      Port* egress = burst.egress[i];
      if (egress == nullptr) {
        ++stats_.no_route_drops;
        continue;
      }
      SendResolved(pkt, egress);
    } else {
      Forward(pkt);
    }
  }
}

void Switch::OnDataPacketDequeued(const Packet& pkt) {
  if (pfc_.enabled && pkt.sim_ingress >= 0) {
    ReleaseIngress(pkt.sim_ingress, pkt.wire_bytes);
  }
}

void Switch::ChargeIngress(int in_port, int64_t bytes) {
  const auto index = static_cast<size_t>(in_port);
  if (ingress_bytes_.size() <= index) {
    ingress_bytes_.resize(index + 1, 0);
    ingress_paused_.resize(index + 1, false);
    ingress_pause_log_.resize(index + 1);
  }
  ingress_bytes_[index] += bytes;
  if (!ingress_paused_[index] && ingress_bytes_[index] >= pfc_.xoff_bytes) {
    ingress_paused_[index] = true;
    ++stats_.pfc_pauses_sent;
    std::unique_ptr<PauseIntervalLog>& log = ingress_pause_log_[index];
    if (log == nullptr) {
      log = std::make_unique<PauseIntervalLog>();
    }
    log->Open(sim()->now());
    SendPfcFrame(in_port, /*pause=*/true);
  }
}

void Switch::ReleaseIngress(int in_port, int64_t bytes) {
  const auto index = static_cast<size_t>(in_port);
  if (ingress_bytes_.size() <= index) {
    return;
  }
  ingress_bytes_[index] -= bytes;
  if (ingress_paused_[index] && ingress_bytes_[index] <= pfc_.xon_bytes) {
    ingress_paused_[index] = false;
    ++stats_.pfc_resumes_sent;
    ingress_pause_log_[index]->Close(sim()->now());  // opened by the pause
    SendPfcFrame(in_port, /*pause=*/false);
  }
}

void Switch::SendPfcFrame(int in_port, bool pause) {
  // PFC frames are link-local and ride the highest priority: model them as
  // an out-of-band signal delivered after one frame time + propagation.
  Port* reverse = port(in_port);
  if (!reverse->connected() || reverse->failed()) {
    return;
  }
  Port* upstream_port = reverse->peer()->port(reverse->peer_port());
  const TimePs latency =
      reverse->rate().SerializationTime(kControlPacketBytes) + reverse->propagation_delay();
  sim()->Schedule(latency, [upstream_port, pause] { upstream_port->SetPaused(pause); });
}

void Switch::SetRoute(int dst_node, std::span<const int> port_indices) {
  const auto dst = static_cast<size_t>(dst_node);
  if (route_of_.size() <= dst) {
    route_of_.resize(dst + 1, 0);
  }
  route_of_[dst] = InternRoute(port_indices);
}

uint16_t Switch::InternRoute(std::span<const int> port_indices) {
  // A switch holds a handful of sets, so a linear scan is the whole index.
  for (size_t id = 0; id < route_sets_.size(); ++id) {
    const std::vector<Port*>& ports = route_sets_[id].ports;
    if (std::equal(ports.begin(), ports.end(), port_indices.begin(), port_indices.end(),
                   [this](const Port* set_port, int index) { return set_port == port(index); })) {
      return static_cast<uint16_t>(id);
    }
  }
  if (route_sets_.size() > std::numeric_limits<uint16_t>::max()) {
    std::fprintf(stderr, "%s: more than %zu distinct route sets\n", name().c_str(),
                 route_sets_.size());
    std::abort();
  }
  RouteSet set;
  set.last_hop = true;  // port_indices is non-empty: set 0 matched the empty list
  for (int index : port_indices) {
    set.ports.push_back(port(index));
    set.last_hop = set.last_hop && IsHostPort(index);
  }
  route_sets_.push_back(std::move(set));
  return static_cast<uint16_t>(route_sets_.size() - 1);
}

void Switch::MarkHostPort(int port_index) {
  if (host_port_.size() <= static_cast<size_t>(port_index)) {
    host_port_.resize(static_cast<size_t>(port_index) + 1, false);
  }
  host_port_[static_cast<size_t>(port_index)] = true;
}

}  // namespace themis
