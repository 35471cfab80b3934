// Table 1 / Section 4: Themis switch-memory overhead.
//
// Reproduces the paper's worked example — a k=32 three-layer fat-tree
// (N_paths = 256, 16 NICs/ToR, 100 cross-rack QPs per RNIC, 400 Gbps last
// hop, 2 us last-hop RTT, MTU 1500 B, expansion factor F = 1.5) needs
// ~193 KB of ToR SRAM — and sweeps each parameter to show scaling. The
// PathMap half of the estimate is cross-checked against an actually
// constructed PathMap.

#include <cstdio>
#include <cstdlib>

#include "src/stats/report.h"
#include "src/themis/memory_model.h"
#include "src/themis/path_map.h"
#include "src/themis/themis_d.h"

namespace themis {
namespace {

void PrintTable1() {
  std::printf("\n=== Table 1 / Section 4: Themis memory overhead ===\n");
  Table table({"N_paths", "BW", "RTT_us", "N_NIC", "N_QP", "entries/QP", "M_QP(B)",
               "M_total(KB)", "SRAM%"});

  auto add_row = [&table](MemoryModelParams params) {
    const MemoryModelResult r = EstimateThemisMemory(params);
    table.AddRow({std::to_string(params.num_paths),
                  FormatDouble(params.last_hop_bandwidth.gbps(), 0) + "G",
                  FormatDouble(ToMicroseconds(params.last_hop_rtt), 1),
                  std::to_string(params.nics_per_tor), std::to_string(params.qps_per_nic),
                  std::to_string(r.queue_entries), std::to_string(r.per_qp_bytes),
                  FormatDouble(static_cast<double>(r.total_bytes) / 1000.0, 1),
                  FormatDouble(r.sram_fraction * 100.0, 2)});
  };

  MemoryModelParams reference;  // the paper's example -> ~193 KB
  add_row(reference);

  // Parameter sweeps (scaling behaviour).
  for (uint32_t qps : {10u, 50u, 200u, 400u}) {
    MemoryModelParams p = reference;
    p.qps_per_nic = qps;
    add_row(p);
  }
  for (int64_t gbps : {100, 200, 800}) {
    MemoryModelParams p = reference;
    p.last_hop_bandwidth = Rate::Gbps(gbps);
    add_row(p);
  }
  for (uint32_t paths : {16u, 64u, 1024u}) {
    MemoryModelParams p = reference;
    p.num_paths = paths;
    add_row(p);
  }
  table.Print();

  const MemoryModelResult r = EstimateThemisMemory(reference);
  std::printf("reference total: %llu bytes = %.1f KB (paper: ~193 KB); %.2f%% of a 64 MB "
              "Tofino SRAM\n",
              static_cast<unsigned long long>(r.total_bytes),
              static_cast<double>(r.total_bytes) / 1000.0, r.sram_fraction * 100.0);

  auto map = PathMap::Build({EcmpStage{.shift = 0, .group_size = 16},
                             EcmpStage{.shift = 8, .group_size = 16}});
  if (map.has_value()) {
    std::printf("constructed 256-path PathMap: %llu bytes (model says %llu)\n\n",
                static_cast<unsigned long long>(map->MemoryBytes()),
                static_cast<unsigned long long>(r.path_map_bytes));
  }
}

// Analytic vs. measured: instantiate the actual bounded FlowTable at each
// Table-1 geometry and compare its dataplane footprint against the per-QP
// term of Eq. 4. The table's entry width is derived from MemoryModelParams,
// so the two must agree to the byte — any slack would mean padding crept
// into the modelled register array (host-side container padding is reported
// separately and deliberately excluded from the dataplane number).
void PrintAnalyticVsMeasured() {
  std::printf("=== §4 analytic vs. measured FlowTable bytes ===\n");
  Table table({"N_NIC", "N_QP", "capacity", "analytic_kb", "measured_kb", "host_kb"});

  auto check_row = [&table](MemoryModelParams params) {
    const MemoryModelResult r = EstimateThemisMemory(params);
    const uint64_t analytic = r.per_qp_bytes * FlowTableCapacity(params);

    ThemisDConfig config;
    config.queue_capacity = r.queue_entries;
    config.flow_table = DeriveFlowTableConfig(params, EvictionPolicy::kLruClock);
    ThemisD hook(config, nullptr);
    const uint64_t measured = hook.FlowTableModelBytes();

    table.AddRow({std::to_string(params.nics_per_tor), std::to_string(params.qps_per_nic),
                  std::to_string(FlowTableCapacity(params)),
                  FormatDouble(static_cast<double>(analytic) / 1000.0, 1),
                  FormatDouble(static_cast<double>(measured) / 1000.0, 1),
                  FormatDouble(static_cast<double>(hook.FlowTableHostBytes()) / 1000.0, 1)});
    if (measured != analytic) {
      std::fprintf(stderr,
                   "FATAL: FlowTable measured %llu B != analytic %llu B "
                   "(N_NIC=%u N_QP=%u entries/QP=%llu)\n",
                   static_cast<unsigned long long>(measured),
                   static_cast<unsigned long long>(analytic), params.nics_per_tor,
                   params.qps_per_nic, static_cast<unsigned long long>(r.queue_entries));
      std::exit(1);
    }
  };

  MemoryModelParams reference;  // the ~193 KB worked example
  check_row(reference);
  for (uint32_t qps : {10u, 50u, 200u, 400u}) {
    MemoryModelParams p = reference;
    p.qps_per_nic = qps;
    check_row(p);
  }
  for (uint32_t nics : {8u, 32u}) {
    MemoryModelParams p = reference;
    p.nics_per_tor = nics;
    check_row(p);
  }
  table.Print();
  std::printf("measured == analytic at every geometry (exact; host container "
              "overhead reported, not counted)\n\n");
}

}  // namespace
}  // namespace themis

int main() {
  themis::PrintTable1();
  themis::PrintAnalyticVsMeasured();
  return 0;
}
