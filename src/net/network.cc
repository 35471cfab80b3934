#include "src/net/network.h"

#include <algorithm>

namespace themis {

DuplexLink Network::Connect(Node* a, Node* b, const LinkSpec& spec) {
  const int port_a = a->AddPort();
  const int port_b = b->AddPort();
  a->port(port_a)->ConnectTo(b, port_b, spec.rate, spec.propagation_delay,
                             spec.queue_capacity_bytes);
  b->port(port_b)->ConnectTo(a, port_a, spec.rate, spec.propagation_delay,
                             spec.queue_capacity_bytes);
  DuplexLink link{{a, port_a}, {b, port_b}};
  links_.push_back(link);
  if (spec.rate > fastest_link_rate_) {
    fastest_link_rate_ = spec.rate;
  }
  max_propagation_delay_ = std::max(max_propagation_delay_, spec.propagation_delay);
  return link;
}

bool Network::AutoSizeScheduler(uint32_t mtu_bytes) {
  if (fastest_link_rate_.IsZero()) {
    return false;
  }
  const TimePs quantum = fastest_link_rate_.SerializationTime(mtu_bytes);
  if (quantum <= 0) {
    return false;
  }
  // Bucket width: largest power of two <= one MTU serialization time at the
  // fastest rate, so a bucket holds at most a couple of events per active
  // port — but every active port fires into the same window, so buckets are
  // large: collected buckets averaged 48 / 717 / 115 / 17 entries on the four
  // perfbench workloads (fig1 / fig5 / k=16 / k=8 at seed 1), and some k=16
  // buckets held 4,096. Clamped to [1 ns, ~16.8 us] to keep degenerate rates
  // harmless.
  int width_bits = 63 - __builtin_clzll(static_cast<uint64_t>(quantum));
  width_bits = std::clamp(width_bits, 10, 24);
  const TimePs width = TimePs{1} << width_bits;
  // Horizon: serialization + the longest propagation delay, doubled because
  // the cursor re-anchors half a horizon behind the first event after an
  // idle stretch, plus slack for ECN/PFC timing jitter around the quantum.
  const TimePs needed = 2 * (quantum + max_propagation_delay_) + 16 * width;
  int bucket_count = 64;
  while (static_cast<TimePs>(bucket_count) * width < needed && bucket_count < 4096) {
    bucket_count <<= 1;
  }
  return sim_->ConfigureCalendar(width_bits, bucket_count);
}

}  // namespace themis
