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
  ++stats_.forwarded;
  // Charge shared-buffer credit BEFORE handing to the egress: an idle port
  // transmits synchronously, and the dequeue callback releases the credit.
  const bool track = pfc_.enabled && !pkt.IsControl() && pkt.sim_ingress >= 0;
  if (track) {
    ChargeIngress(pkt.sim_ingress, pkt.wire_bytes);
  }
  const bool accepted = candidates[choice]->Send(pkt);
  if (track && !accepted) {
    ReleaseIngress(pkt.sim_ingress, pkt.wire_bytes);
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
