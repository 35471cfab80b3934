// Themis-Source (paper Section 3.2): enforces PSN-based packet spraying at
// the source ToR.
//
// Two deployment modes, matching the paper:
//  * 2-tier fabrics: path selection is entirely the ToR's egress choice, so
//    Themis-S *is* the PsnSprayLb policy installed on the ToR
//    (InstallTorLoadBalancer(topo, LbKind::kPsnSpray)); no header rewrite is
//    needed and this hook stays out of the picture.
//  * 3-tier/multi-tier fabrics: this hook rewrites the UDP source port with
//    the PathMap delta for PSN mod N (Fig. 3), making every downstream
//    ECMP stage a deterministic function of PSN mod N while requiring
//    programmability only at the ToR.

#ifndef THEMIS_SRC_THEMIS_THEMIS_S_H_
#define THEMIS_SRC_THEMIS_THEMIS_S_H_

#include <cstdint>

#include "src/themis/path_map.h"
#include "src/topo/switch.h"

namespace themis {

struct ThemisSStats {
  uint64_t rewrites = 0;
};

class ThemisS : public SwitchHook {
 public:
  explicit ThemisS(PathMap path_map) : path_map_(std::move(path_map)) {}

  bool OnIngress(Switch& sw, Packet& pkt, int in_port) override {
    if (!enabled_ || pkt.type != PacketType::kData) {
      return true;
    }
    // Only rewrite packets entering the fabric from a local host, and only
    // when they actually cross the fabric (intra-rack traffic never sprays).
    if (!sw.IsHostPort(in_port) || sw.IsLastHop(pkt.dst_host)) {
      return true;
    }
    pkt.udp_sport ^= path_map_.DeltaFor(pkt.psn % path_map_.path_count());
    ++stats_.rewrites;
    return true;
  }

  // Failure fallback (Section 6): disabling the rewrite reverts the fabric
  // to plain per-flow ECMP.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  const PathMap& path_map() const { return path_map_; }
  const ThemisSStats& stats() const { return stats_; }

 private:
  PathMap path_map_;
  bool enabled_ = true;
  ThemisSStats stats_;
};

}  // namespace themis

#endif  // THEMIS_SRC_THEMIS_THEMIS_S_H_
