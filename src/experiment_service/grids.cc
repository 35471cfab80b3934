#include "src/experiment_service/grids.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/core/sweep_runner.h"
#include "src/experiment_service/config_hash.h"
#include "src/scenario/scenario_script.h"
#include "src/sim/parse.h"
#include "src/stats/report.h"
#include "src/stats/summary.h"

namespace themis {
namespace {

std::string JoinCsv(const RowCells& cells) {
  std::string row;
  for (size_t i = 0; i < cells.size(); ++i) {
    row.append(i > 0 ? "," : "").append(cells[i]);
  }
  return row;
}

template <typename... Args>
std::string Sprintf(const char* format, Args... args) {
  std::string text(std::snprintf(nullptr, 0, format, args...), '\0');
  std::snprintf(text.data(), text.size() + 1, format, args...);
  return text;
}

// Appends a case at the grid's next index.
void AddCase(GridDef& grid, std::string name, uint64_t config_hash, uint64_t seed,
             std::function<std::vector<RowCells>()> run) {
  GridCase gc;
  gc.point.index = static_cast<uint32_t>(grid.cases.size());
  gc.point.config_hash = config_hash;
  gc.point.seed = seed;
  gc.point.name = std::move(name);
  gc.run = std::move(run);
  grid.cases.push_back(std::move(gc));
}

// Prints why a point yields no rows, and returns false.
bool FailPoint(const std::string& point, const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", point.c_str(), why.c_str());
  return false;
}

}  // namespace

// --- Generic grid contract --------------------------------------------------

std::vector<std::string> SplitCsvHeader(const char* header) {
  std::vector<std::string> columns;
  std::string column;
  for (const char* p = header; *p != '\0'; ++p) {
    if (*p == ',') {
      columns.push_back(column);
      column.clear();
    } else {
      column.push_back(*p);
    }
  }
  columns.push_back(column);
  return columns;
}

SweepManifest GridManifest(const GridDef& grid) {
  SweepManifest manifest;
  manifest.grid = grid.name;
  manifest.csv_header = grid.csv_header;
  manifest.points.reserve(grid.cases.size());
  for (const GridCase& c : grid.cases) {
    manifest.points.push_back(c.point);
  }
  return manifest;
}

std::vector<std::string> CsvRows(const GridCase& c) {
  std::vector<std::string> lines;
  for (const RowCells& cells : c.run()) {
    lines.push_back(JoinCsv(cells));
  }
  return lines;
}

std::vector<std::vector<RowCells>> RunGridRows(const GridDef& grid, int threads) {
  SweepRunner runner(threads);
  std::vector<std::vector<RowCells>> rows(grid.cases.size());
  runner.RunIndexed(grid.cases.size(), [&](size_t i) { rows[i] = grid.cases[i].run(); });
  return rows;
}

bool WriteGridCsv(const GridDef& grid, const std::vector<std::vector<RowCells>>& rows,
                  const std::string& out_csv, std::string* error) {
  std::ofstream out(out_csv);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open " + out_csv + " for writing";
    }
    return false;
  }
  out << grid.csv_header << "\n";
  for (const std::vector<RowCells>& case_rows : rows) {
    for (const RowCells& cells : case_rows) {
      out << JoinCsv(cells) << "\n";
    }
  }
  out.flush();
  if (!out) {
    if (error != nullptr) {
      *error = "write to " + out_csv + " failed";
    }
    return false;
  }
  return true;
}

std::string MissingRowReport(const GridDef& grid,
                             const std::vector<std::vector<RowCells>>& rows) {
  std::string report;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].empty()) {
      report += Sprintf("%s: point %zu (%s) yielded no row\n", grid.name.c_str(), i,
                        grid.cases[i].point.name.c_str());
    }
  }
  return report;
}

// --- FCT workload grid ------------------------------------------------------

const char kFctCsvHeader[] =
    "dist,load,scheme,flows,done,p50,p95,p99,goodput_gbps,rtx_ratio,drops,nacks_valid,"
    "spurious,grace_defer,grace_cancel";

namespace {

// The four schemes every FCT-style sweep compares: the FCT sweep, the chaos
// campaigns and the hybrid fat-tree sweep.
const FctSchemeSpec kComparedSchemes[] = {
    {"ECMP", Scheme::kEcmp, SprayMode::kTorEgress},
    {"RandomSpray", Scheme::kRandomSpray, SprayMode::kTorEgress},
    {"Themis-S", Scheme::kThemis, SprayMode::kSportRewrite},
    {"Themis-D", Scheme::kThemis, SprayMode::kTorEgress},
};

// `config` running scheme `s`.
ExperimentConfig WithScheme(ExperimentConfig config, const FctSchemeSpec& s) {
  config.scheme = s.scheme;
  config.themis_spray_mode = s.spray;
  config.pfc_enabled = s.pfc;
  config.themis_pause_grace = s.grace;
  if (s.background_load > 0.0) {
    config.traffic_model = TrafficModelKind::kFluid;
    config.background_load = s.background_load;
  }
  return config;
}

// A seed-42 leaf-spine of `n` ToRs, `n` spines and `hosts` hosts per ToR.
ExperimentConfig LeafSpine(int n, int hosts, Rate rate) {
  ExperimentConfig config;
  config.seed = 42;
  config.num_tors = n;
  config.num_spines = n;
  config.hosts_per_tor = hosts;
  config.link_rate = rate;
  return config;
}

// The seed-42 k=16 fat-tree (1024 hosts, 320 switches) at 400 Gbps under
// fluid background `load`, a scale out of reach of packet-level background.
ExperimentConfig FatTreeK16(double background_load) {
  ExperimentConfig config;
  config.seed = 42;
  config.fabric = FabricKind::kFatTree;
  config.fat_tree_k = 16;
  config.link_rate = Rate::Gbps(400);
  config.traffic_model = TrafficModelKind::kFluid;
  config.background_load = background_load;
  return config;
}

}  // namespace

const std::vector<FctSchemeSpec>& FctSchemes() {
  static const std::vector<FctSchemeSpec> kSchemes = [] {
    std::vector<FctSchemeSpec> schemes(std::begin(kComparedSchemes), std::end(kComparedSchemes));
    schemes.insert(schemes.end(),
                   {
                       {"Themis-D/noGrace", Scheme::kThemis, SprayMode::kTorEgress, true, false},
                       {"Themis-D/noPFC", Scheme::kThemis, SprayMode::kTorEgress, false, true},
                       {"ECMP/hybridBg", Scheme::kEcmp, SprayMode::kTorEgress, true, true, 0.4},
                       {"Themis-D/hybridBg", Scheme::kThemis, SprayMode::kTorEgress, true, true,
                        0.4},
                   });
    return schemes;
  }();
  return kSchemes;
}

std::vector<FctCaseSpec> FctGridCases(bool smoke) {
  const std::vector<double> loads =
      smoke ? std::vector<double>{0.3, 0.6} : std::vector<double>{0.4, 0.8};
  const std::vector<const FlowSizeCdf*> cdfs =
      smoke ? std::vector<const FlowSizeCdf*>{&FlowSizeCdf::AliStorage()}
            : std::vector<const FlowSizeCdf*>{&FlowSizeCdf::WebSearch(),
                                              &FlowSizeCdf::AliStorage()};
  std::vector<FctCaseSpec> cases;
  for (const FlowSizeCdf* cdf : cdfs) {
    for (double load : loads) {
      for (const FctSchemeSpec& scheme : FctSchemes()) {
        FctCaseSpec c;
        c.scheme = scheme;
        c.cdf = cdf;
        c.load = load;
        c.smoke = smoke;
        c.name = std::string("FCT/") + cdf->name() + "/load=" + FormatDouble(load, 1) + "/" +
                 scheme.label;
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

// Paper-rate (400 Gbps) leaf-spine, scaled down in radix so a full sweep
// runs in seconds. The fabric seed matches the workload seed so a case is
// one reproducible experiment end to end.
ExperimentConfig FctCaseConfig(const FctCaseSpec& c) {
  return WithScheme(LeafSpine(c.smoke ? 2 : 4, 4, Rate::Gbps(400)), c.scheme);
}

WorkloadSpec FctCaseWorkload(const FctCaseSpec& c) {
  WorkloadSpec spec;
  spec.pattern = TrafficPattern::kIncastMix;
  spec.load = c.load;
  spec.window = c.smoke ? 200 * kMicrosecond : 2 * kMillisecond;
  spec.incast_fanin = c.smoke ? 4 : 8;
  spec.incast_fraction = 0.5;
  spec.seed = 42;
  spec.max_flows = c.smoke ? 48 : 1'000;
  return spec;
}

// Open-loop arrivals stop at the window's end; the fabric then gets ample
// drain time. The driver Stop()s the simulator at the last completion, so
// the deadline only bites when flows are stuck (counted as incomplete).
TimePs FctCaseDeadline(const FctCaseSpec& c) { return FctCaseWorkload(c).window * 40; }

uint64_t FctCaseHash(const FctCaseSpec& c) {
  return FctPointHash(FctCaseConfig(c), FctCaseWorkload(c), c.cdf->name(), FctCaseDeadline(c));
}

FctWorkloadResult RunFctGridCase(const FctCaseSpec& c) {
  return RunFctWorkload(FctCaseConfig(c), FctCaseWorkload(c), *c.cdf,
                        {.deadline = FctCaseDeadline(c)});
}

RowCells FctCsvCells(const FctCaseSpec& c, const FctWorkloadResult& r) {
  return {c.cdf->name(),
          FormatDouble(c.load, 1),
          c.scheme.label,
          std::to_string(r.flows_total),
          std::to_string(r.flows_completed),
          FormatDouble(r.slowdown.p50, 2),
          FormatDouble(r.slowdown.p95, 2),
          FormatDouble(r.slowdown.p99, 2),
          FormatDouble(r.goodput_gbps, 2),
          FormatDouble(r.rtx_ratio, 4),
          std::to_string(r.drops),
          std::to_string(r.themis.nacks_forwarded_valid),
          std::to_string(r.themis.nacks_forwarded_spurious),
          std::to_string(r.themis.grace_deferred),
          std::to_string(r.themis.grace_cancelled)};
}

GridDef FctGridDef(bool smoke) {
  GridDef grid;
  grid.name = smoke ? "fct-smoke" : "fct";
  grid.csv_header = kFctCsvHeader;
  for (const FctCaseSpec& spec : FctGridCases(smoke)) {
    AddCase(grid, spec.name, FctCaseHash(spec), FctCaseConfig(spec).seed,
            [spec]() -> std::vector<RowCells> {
              const FctWorkloadResult r = RunFctGridCase(spec);
              if (r.flows_completed == 0) {
                return {};  // failed case: no table row, same as the bench
              }
              return {FctCsvCells(spec, r)};
            });
  }
  return grid;
}

FctAnalysisLines FctAnalyses(const std::vector<FctCaseSpec>& cases,
                             const std::vector<FctWorkloadResult>& results) {
  FctAnalysisLines lines;
  for (size_t b = 0; b < cases.size(); ++b) {
    const double spray_p99 = results[b].slowdown.p99;
    if (cases[b].scheme.scheme != Scheme::kRandomSpray || spray_p99 <= 0.0) {
      continue;
    }
    for (size_t i = 0; i < cases.size(); ++i) {
      const FctCaseSpec& c = cases[i];
      if (c.cdf == cases[b].cdf && c.load == cases[b].load &&
          c.scheme.scheme == Scheme::kThemis) {
        lines.p99_vs_spray.push_back(Sprintf("  %-12s load=%.1f %-14s %.3f",
                                             c.cdf->name().c_str(), c.load, c.scheme.label,
                                             results[i].slowdown.p99 / spray_p99));
      }
    }
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    const FctCaseSpec& c = cases[i];
    if (c.scheme.scheme != Scheme::kThemis || c.scheme.spray != SprayMode::kTorEgress) {
      continue;
    }
    const ThemisDStats& t = results[i].themis;
    lines.spurious.push_back(Sprintf(
        "  %-12s load=%.1f %-16s %llu spurious / %llu genuine of %llu valid"
        " (grace: %llu deferred, %llu cancelled, %llu expired)",
        c.cdf->name().c_str(), c.load, c.scheme.label,
        static_cast<unsigned long long>(t.nacks_forwarded_spurious),
        static_cast<unsigned long long>(t.nacks_forwarded_genuine),
        static_cast<unsigned long long>(t.nacks_forwarded_valid),
        static_cast<unsigned long long>(t.grace_deferred),
        static_cast<unsigned long long>(t.grace_cancelled),
        static_cast<unsigned long long>(t.grace_expired)));
  }
  return lines;
}

// --- Collective grids ------------------------------------------------------

const char kCollectiveCsvHeader[] =
    "config,scheme,completion_ms,rtx_ratio,nacks@sender,nacks_blocked,drops";

ExperimentConfig Fig1Config() {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = Scheme::kRandomSpray;
  config.transport = TransportKind::kNicSr;
  config.cc = CcKind::kDcqcn;
  config.dcqcn_ti = 10 * kMicrosecond;
  config.dcqcn_td = 200 * kMicrosecond;
  config.fabric_delay_skew = 200 * kNanosecond;
  return config;
}

const std::vector<std::vector<int>> kFig1Rings = {{0, 4, 1, 5}, {2, 6, 3, 7}};

namespace {

struct CollectiveCase {
  std::string name;  // the manifest point's
  ExperimentConfig config;
  CollectiveRun run;
  std::string config_cell;  // the row's first cell
  std::string label;        // the row's scheme cell; empty: SchemeName(config.scheme)
};

std::vector<RowCells> RunCollectiveCase(const CollectiveCase& c) {
  Experiment exp(c.config);
  if (c.run.with_loss) {
    const Topology& topo = exp.topology();
    Port* port = topo.switches[topo.tors.size() + CollectiveRun::kLossSpine]->port(
        CollectiveRun::kLossPort);
    exp.sim().Schedule(CollectiveRun::kLossAt, [port] { port->set_failed(true); });
    exp.sim().Schedule(CollectiveRun::kLossAt + CollectiveRun::kLossDuration,
                       [port] { port->set_failed(false); });
  }
  const auto result = exp.RunCollective(
      c.run.kind,
      c.run.groups.empty() ? exp.MakeCrossRackGroups(c.run.cross_rack_groups) : c.run.groups,
      c.run.bytes, c.run.deadline);
  if (!result.all_done) {
    return {};  // missed its deadline: no row
  }
  return {{c.config_cell, c.label.empty() ? SchemeName(c.config.scheme) : c.label,
           FormatDouble(ToMilliseconds(result.tail_completion), 3),
           FormatDouble(exp.AggregateRetransmissionRatio(), 4),
           std::to_string(exp.TotalNacksReceived()),
           std::to_string(exp.themis() != nullptr
                              ? exp.themis()->AggregateDStats().nacks_blocked
                              : 0),
           std::to_string(exp.TotalPortDrops())}};
}

struct DcqcnPoint {
  int64_t ti_us;
  int64_t td_us;
};

constexpr DcqcnPoint kFig5Sweep[] = {
    {900, 4}, {300, 4}, {10, 4}, {10, 50}, {10, 200},
};

constexpr Scheme kFig5Schemes[] = {Scheme::kEcmp, Scheme::kAdaptiveRouting, Scheme::kThemis};

// The paper's 16x16 leaf-spine at 400 Gbps (the config defaults), 16
// cross-rack groups, across the DCQCN sweep.
std::vector<CollectiveCase> Fig5Cases(CollectiveKind kind, uint64_t bytes,
                                      const std::string& figure) {
  std::vector<CollectiveCase> cases;
  for (const DcqcnPoint& point : kFig5Sweep) {
    for (Scheme scheme : kFig5Schemes) {
      CollectiveCase c;
      c.config.scheme = scheme;
      c.config.dcqcn_ti = point.ti_us * kMicrosecond;
      c.config.dcqcn_td = point.td_us * kMicrosecond;
      c.run.kind = kind;
      c.run.bytes = bytes;
      c.run.cross_rack_groups = 16;
      c.run.deadline = 60 * kSecond;
      const std::string ti = std::to_string(point.ti_us);
      const std::string td = std::to_string(point.td_us);
      c.name = figure + "/" + SchemeName(scheme) + "/TI=" + ti + "us/TD=" + td + "us";
      c.config_cell = "(TI=" + ti + "us,TD=" + td + "us)";
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

// A point on the Fig. 1 neighbour rings, `bytes` per hop.
CollectiveCase RingCase(std::string name, const ExperimentConfig& config, uint64_t bytes) {
  CollectiveCase c;
  c.name = std::move(name);
  c.config = config;
  c.run.kind = CollectiveKind::kNeighborRing;
  c.run.bytes = bytes;
  c.run.groups = kFig1Rings;
  c.run.deadline = 120 * kSecond;
  return c;
}

// Themis's design choices: NACK compensation on/off with and without genuine
// loss (Section 3.4), the PSN-queue factor F and entry encoding (Section 4),
// and the spray mode (Fig. 3).
std::vector<CollectiveCase> AblationThemisCases(uint64_t bytes) {
  ExperimentConfig base = Fig1Config();
  base.scheme = Scheme::kThemis;
  std::vector<CollectiveCase> cases;
  const auto add = [&](const std::string& label, const ExperimentConfig& config, bool loss) {
    CollectiveCase c = RingCase(label, config, bytes);
    c.label = label;
    c.config_cell = loss ? "with-loss" : "lossless";
    // With loss, spine0's downlink to rack 1 drops for 10 us: loss only
    // compensation (or the RTO) repairs.
    c.run.with_loss = loss;
    cases.push_back(std::move(c));
  };

  ExperimentConfig no_comp = base;
  no_comp.themis_compensation = false;
  add("Compensation/on/lossless", base, false);
  add("Compensation/off/lossless", no_comp, false);
  add("Compensation/on/loss", base, true);
  add("Compensation/off/loss", no_comp, true);

  for (double f : {0.25, 0.5, 1.0, 1.5, 3.0}) {
    ExperimentConfig config = base;
    config.themis_queue_expansion = f;
    add("QueueFactor/F=" + FormatDouble(f, 2), config, false);
  }

  ExperimentConfig full = base;
  full.themis_truncate_queue_entries = false;
  add("QueueEncoding/truncated-1B", base, false);
  add("QueueEncoding/full-3B", full, false);

  ExperimentConfig sport = base;
  sport.themis_spray_mode = SprayMode::kSportRewrite;
  add("SprayMode/tor-egress", base, false);
  add("SprayMode/sport-rewrite", sport, false);
  return cases;
}

// Reliable-transport generations under packet spraying (Sections 1-2).
std::vector<CollectiveCase> AblationTransportCases(uint64_t bytes) {
  struct Variant {
    TransportKind transport;
    Scheme scheme;
    const char* label;
  };
  constexpr Variant kVariants[] = {
      {TransportKind::kGoBackN, Scheme::kRandomSpray, "go-back-n (CX-4/5)"},
      {TransportKind::kNicSr, Scheme::kRandomSpray, "nic-sr (CX-6/7)"},
      {TransportKind::kIrn, Scheme::kRandomSpray, "irn-style NIC"},
      {TransportKind::kMultipath, Scheme::kRandomSpray, "multipath NIC (MPRDMA-like)"},
      {TransportKind::kIdeal, Scheme::kRandomSpray, "ideal oracle"},
      {TransportKind::kNicSr, Scheme::kThemis, "nic-sr + Themis"},
      {TransportKind::kNicSr, Scheme::kFlowlet, "nic-sr + flowlet"},
      {TransportKind::kNicSr, Scheme::kSprayReorder, "nic-sr + ToR reordering"},
  };
  std::vector<CollectiveCase> cases;
  for (const Variant& v : kVariants) {
    ExperimentConfig config = Fig1Config();
    config.transport = v.transport;
    config.scheme = v.scheme;
    CollectiveCase c = RingCase(std::string("Transport/") + v.label, config, bytes);
    c.config_cell = "spraying-ring";
    c.label = v.label;
    cases.push_back(std::move(c));
  }
  return cases;
}

// Sensitivity to multi-path delay variation: per-spine skew 0-400 ns.
std::vector<CollectiveCase> AblationSkewCases(uint64_t bytes) {
  std::vector<CollectiveCase> cases;
  for (int64_t skew_ns : {0, 50, 100, 200, 400}) {
    for (Scheme scheme : {Scheme::kRandomSpray, Scheme::kAdaptiveRouting, Scheme::kThemis}) {
      ExperimentConfig config = Fig1Config();
      config.scheme = scheme;
      config.fabric_delay_skew = skew_ns * kNanosecond;
      const std::string skew = std::to_string(skew_ns) + "ns";
      CollectiveCase c =
          RingCase(std::string("Skew/") + SchemeName(scheme) + "/" + skew, config, bytes);
      c.config_cell = "skew=" + skew;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

}  // namespace

GridDef CollectiveGrid(const std::string& name, uint64_t bytes) {
  GridDef grid;
  std::vector<CollectiveCase> cases;
  if (name == "fig5-allreduce" || name == "fig5-alltoall") {
    const bool allreduce = name == "fig5-allreduce";
    const std::string figure = allreduce ? "Fig5a-Allreduce" : "Fig5b-Alltoall";
    cases = Fig5Cases(allreduce ? CollectiveKind::kAllreduce : CollectiveKind::kAlltoall, bytes,
                      figure);
    grid.title = figure + " — tail communication completion time (" +
                 std::to_string(bytes >> 20) + " MiB per collective; paper uses 300 MB)";
  } else if (name == "ablation-themis") {
    cases = AblationThemisCases(bytes);
    grid.title = "Themis design-choice ablations";
  } else if (name == "ablation-transport") {
    cases = AblationTransportCases(bytes);
    grid.title = "Transport-generation ablation under packet spraying";
  } else if (name == "ablation-skew") {
    cases = AblationSkewCases(bytes);
    grid.title = "Multi-path delay-variation sensitivity";
  } else {
    return grid;
  }
  grid.name = name;
  grid.csv_header = kCollectiveCsvHeader;
  for (const CollectiveCase& c : cases) {
    AddCase(grid, c.name, CollectivePointHash(c.config, c.run, c.label), c.config.seed,
            [c] { return RunCollectiveCase(c); });
  }
  return grid;
}

// --- Chaos campaigns --------------------------------------------------------

namespace {

const char kChaosCsvHeader[] =
    "topo,scheme,fault,fault_records,recovery_us,p99,p99_vs_clean,fault_drops,victim_flows,"
    "flows_completed";

// A builtin campaign from a ScenarioPreset name or .scn text. The scripts are
// part of the grid, so one that does not parse is a bug: building the grid
// (every test of the builtin grids does) aborts on it.
ChaosFaultRun Campaign(const char* label, const char* preset_or_script) {
  ChaosFaultRun run{label, {}};
  std::string error;
  if (!ScenarioPreset(preset_or_script, &run.script) &&
      !ParseScenario(preset_or_script, &run.script, &error)) {
    std::fprintf(stderr, "bad builtin %s campaign: %s\n", label, error.c_str());
    std::abort();
  }
  return run;
}

// The leaf-spine campaigns: flap and gray are the presets workload_cli
// --scenario names, reboot and degrade are inline. Every fault lands inside
// the 1.2 ms arrival window, so recovery is measured while traffic flows.
std::vector<ChaosFaultRun> LeafSpineFaults() {
  return {
      Campaign("flap", "tor-uplink-flap"),
      Campaign("reboot", "seed 17\nsample-period 20us\nreboot target=spine1 at=400us down=150us\n"),
      Campaign("gray", "gray-spine"),
      Campaign("degrade", "seed 19\nsample-period 20us\n"
                          "degrade target=tor0:up1 at=300us duration=500us factor=0.25\n"),
  };
}

// The same four classes on the fat-tree (a pod0-edge0 uplink, a pod
// aggregation switch, a core switch), compressed into its 300 us window.
std::vector<ChaosFaultRun> FatTreeFaults() {
  return {
      Campaign("flap", "seed 11\nsample-period 10us\n"
                       "flap target=pod0-edge0:up0 at=60us down=60us\n"),
      Campaign("reboot", "seed 17\nsample-period 10us\n"
                         "reboot target=pod0-agg0 at=60us down=80us\n"),
      Campaign("gray", "seed 13\nsample-period 10us\n"
                       "gray target=core0:* at=40us duration=200us drop=2e-3 corrupt=2e-3\n"),
      Campaign("degrade", "seed 19\nsample-period 10us\n"
                          "degrade target=pod0-edge0:up1 at=40us duration=200us factor=0.25\n"),
  };
}

// One scheme on one fabric: its clean run, then one run per fault campaign.
struct ChaosPoint {
  std::string name;
  std::string topo;    // the rows' first cell
  const char* scheme;  // the rows' scheme cell
  ExperimentConfig config;  // the clean run's
  WorkloadSpec workload;
  TimePs deadline;
  std::vector<ChaosFaultRun> faults;
};

// One row per run: its fault records (mean recovery time over the faults
// that recovered, -1 when none did; drops while a fault was open; victim
// flows) and its p99 slowdown over the clean run's. No rows when a run
// completes no flow or a fault run records no fault (its campaign never
// fired).
std::vector<RowCells> RunChaosPoint(const ChaosPoint& p) {
  std::vector<RowCells> rows;
  bool ok = true;
  double clean_p99 = 0.0;
  for (size_t i = 0; i <= p.faults.size(); ++i) {
    ExperimentConfig config = p.config;
    std::string fault = "baseline";
    if (i > 0) {
      config.scenario = p.faults[i - 1].script;
      fault = p.faults[i - 1].label;
    }
    const FctWorkloadResult r =
        RunFctWorkload(config, p.workload, FlowSizeCdf::WebSearch(), {.deadline = p.deadline});
    if (r.flows_completed == 0) {
      ok = FailPoint(p.name, fault + " run completed none of its " +
                                 std::to_string(r.flows_total) + " flows");
    } else if (i > 0 && r.scenario_faults.empty()) {
      ok = FailPoint(p.name, fault + " run recorded no fault");
    }
    double recovery_sum = 0.0;
    int recovered = 0;
    uint64_t drops = 0;
    uint64_t victims = 0;
    for (const FaultRecord& f : r.scenario_faults) {
      if (f.RecoveryTimePs() >= 0) {
        recovery_sum += ToMicroseconds(f.RecoveryTimePs());
        ++recovered;
      }
      drops += f.drops_during;
      victims += f.victim_flows;
    }
    if (i == 0) {
      clean_p99 = r.slowdown.p99;
    }
    const double vs_clean = i == 0 ? 1.0 : clean_p99 > 0.0 ? r.slowdown.p99 / clean_p99 : 0.0;
    rows.push_back({p.topo, p.scheme, fault, std::to_string(r.scenario_faults.size()),
                    FormatDouble(recovered > 0 ? recovery_sum / recovered : -1.0, 1),
                    FormatDouble(r.slowdown.p99, 3), FormatDouble(vs_clean, 3),
                    std::to_string(drops), std::to_string(victims),
                    std::to_string(r.flows_completed)});
  }
  return ok ? rows : std::vector<RowCells>{};
}

// "chaos": the 4x4x4 leaf-spine at 100 Gbps, uniform load 0.5. "chaos-k16":
// the k=16 fat-tree, foreground load 0.3 under fluid background 0.3, where
// the hybrid engine composes with fault injection. Web-search flow sizes.
GridDef ChaosGrid(bool fat_tree) {
  GridDef grid;
  grid.name = fat_tree ? "chaos-k16" : "chaos";
  grid.title = fat_tree ? "Chaos campaigns on the k=16 fat-tree (1024 hosts, 400 Gbps), "
                          "fluid background 0.3"
                        : "Chaos campaigns on the 4x4x4 leaf-spine (100 Gbps)";
  grid.csv_header = kChaosCsvHeader;
  const std::string topo = fat_tree ? "fat-tree-k16" : "leaf-spine";
  const ExperimentConfig fabric = fat_tree ? FatTreeK16(0.3) : LeafSpine(4, 4, Rate::Gbps(100));
  // The fat-tree's flow budget still leaves arrivals over the whole window.
  const WorkloadSpec workload =
      fat_tree ? WorkloadSpec{.load = 0.3, .window = 300 * kMicrosecond, .seed = 42,
                              .max_flows = 4'000}
               : WorkloadSpec{.load = 0.5, .window = 1200 * kMicrosecond, .seed = 42};
  const std::vector<ChaosFaultRun> faults = fat_tree ? FatTreeFaults() : LeafSpineFaults();
  for (const FctSchemeSpec& scheme : kComparedSchemes) {
    const ChaosPoint p{"Chaos/" + topo + "/" + scheme.label, topo, scheme.label,
                       WithScheme(fabric, scheme), workload, workload.window * 100, faults};
    AddCase(grid, p.name,
            ChaosPointHash(p.config, p.workload, FlowSizeCdf::WebSearch().name(), p.deadline,
                           p.faults),
            p.config.seed, [p] { return RunChaosPoint(p); });
  }
  return grid;
}

// --- Hybrid fidelity --------------------------------------------------------

const char kHybridCsvHeader[] =
    "config,variant,bg_load,flows,p50,p99,ks_vs_full,p50_ratio,p99_ratio";

// The validation gate's band. A hybrid models an aggregate and cannot
// reproduce the full run flow for flow, but its slowdown distribution must
// stay close: KS distance to the full run's at most kKsTolerance, and the
// p50 and p99 ratios hybrid/full inside [1/kTailRatio, kTailRatio].
constexpr double kKsTolerance = 0.45;
constexpr double kTailRatio = 3.0;

constexpr TimePs kCalibrationPeriod = 5 * kMicrosecond;

const FlowSizeCdf& ValidationCdf() {
  static const FlowSizeCdf cdf = FlowSizeCdf::FromPoints("small", {{2'000, 0.5}, {32'000, 1.0}});
  return cdf;
}

// One background load on a fabric small enough for packet-level background.
struct HybridValidation {
  std::string name;
  ExperimentConfig config;
  WorkloadSpec foreground;
  WorkloadSpec background;
  TimePs deadline;
};

// The foreground four ways, one row each, against the full run:
//   baseline  no background (what a hybrid must not look like),
//   full      the background as real packet flows (the ground truth),
//   fluid     the analytical model at the background's load,
//   trace     replay of the per-port pressure a run of the background alone
//             recorded (the calibration loop).
// No rows when a run leaves a flow unfinished or a hybrid leaves the band.
std::vector<RowCells> RunHybridValidation(const HybridValidation& v) {
  const FlowSizeCdf& cdf = ValidationCdf();
  FctRunOptions options;
  options.deadline = v.deadline;
  std::vector<std::pair<std::string, FctWorkloadResult>> runs;
  runs.emplace_back("baseline", RunFctWorkload(v.config, v.foreground, cdf, options));

  FctRunOptions full = options;
  full.background_flows = true;
  full.background = v.background;
  runs.emplace_back("full", RunFctWorkload(v.config, v.foreground, cdf, full));

  PortPressureTrace trace;
  FctRunOptions calibrate = options;
  calibrate.record_period = kCalibrationPeriod;
  calibrate.calibration = &trace;
  RunFctWorkload(v.config, v.background, cdf, calibrate);

  ExperimentConfig fluid = v.config;
  fluid.traffic_model = TrafficModelKind::kFluid;
  fluid.background_load = v.background.load;
  runs.emplace_back("fluid", RunFctWorkload(fluid, v.foreground, cdf, options));

  FctRunOptions replay = options;
  replay.replay = &trace;
  runs.emplace_back("trace", RunFctWorkload(v.config, v.foreground, cdf, replay));

  const PercentileSummary& truth = runs[1].second.slowdown;
  const std::vector<double> reference = runs[1].second.Slowdowns();
  std::vector<RowCells> rows;
  bool ok = true;
  for (const auto& [variant, r] : runs) {
    const double ks = KsStatistic(reference, r.Slowdowns());
    const double p50_ratio = r.slowdown.p50 / truth.p50;
    const double p99_ratio = r.slowdown.p99 / truth.p99;
    if (r.flows_completed != r.flows_total) {
      ok = FailPoint(v.name, Sprintf("%s run finished %zu of %zu flows", variant.c_str(),
                                     r.flows_completed, r.flows_total));
    }
    if (variant == "fluid" || variant == "trace") {
      if (!(ks <= kKsTolerance)) {
        ok = FailPoint(v.name, Sprintf("%s KS vs full %.3f, above %.2f", variant.c_str(), ks,
                                       kKsTolerance));
      }
      for (const auto& [what, ratio] : {std::pair{"p50", p50_ratio}, {"p99", p99_ratio}}) {
        if (!(ratio >= 1.0 / kTailRatio && ratio <= kTailRatio)) {
          ok = FailPoint(v.name, Sprintf("%s %s/full %.3f, outside [%.2f, %.1f]",
                                         variant.c_str(), what, ratio, 1.0 / kTailRatio,
                                         kTailRatio));
        }
      }
    }
    rows.push_back({"validate-2x2x2", variant, FormatDouble(v.background.load, 1),
                    std::to_string(r.flows_completed), FormatDouble(r.slowdown.p50, 3),
                    FormatDouble(r.slowdown.p99, 3), FormatDouble(ks, 3),
                    FormatDouble(p50_ratio, 3), FormatDouble(p99_ratio, 3)});
  }
  return ok ? rows : std::vector<RowCells>{};
}

// "hybrid": the validation gate on a 2x2x2 RandomSpray leaf-spine at
// background loads 0.2 and 0.4, then each compared scheme on the k=16
// fat-tree under fluid background 0.4, the run the hybrid engine exists for
// (the model costs one timer event per 5 us). A fat-tree point yields no
// row when a flow is unfinished.
GridDef HybridGrid() {
  GridDef grid;
  grid.name = "hybrid";
  grid.title = Sprintf(
      "Hybrid fidelity: 2x2x2 validation (KS <= %.2f, p50/p99 ratio in [%.2f, %.1f]), then "
      "the 1024-host fat-tree (k=16) under fluid background 0.4",
      kKsTolerance, 1.0 / kTailRatio, kTailRatio);
  grid.csv_header = kHybridCsvHeader;

  ExperimentConfig validation = LeafSpine(2, 2, Rate::Gbps(100));
  validation.scheme = Scheme::kRandomSpray;
  const WorkloadSpec foreground{.load = 0.3, .window = 200 * kMicrosecond, .seed = 1};
  for (double load : {0.2, 0.4}) {
    WorkloadSpec background = foreground;
    background.load = load;
    background.seed = 99;  // arrivals independent of the foreground's
    const HybridValidation v{"Hybrid/validate-2x2x2/bg=" + FormatDouble(load, 1), validation,
                             foreground, background, foreground.window * 100};
    AddCase(grid, v.name,
            HybridPointHash(v.config, v.foreground, ValidationCdf().name(), v.deadline,
                            v.background, kCalibrationPeriod),
            v.config.seed, [v] { return RunHybridValidation(v); });
  }

  // 2,000 flows fit the CI budget and still arrive over the whole window.
  const WorkloadSpec workload{.load = 0.3, .window = 100 * kMicrosecond, .seed = 42,
                              .max_flows = 2'000};
  const TimePs deadline = workload.window * 1000;
  for (const FctSchemeSpec& scheme : kComparedSchemes) {
    const ExperimentConfig config = WithScheme(FatTreeK16(0.4), scheme);
    const std::string name = std::string("Hybrid/fat-tree-k16/") + scheme.label;
    AddCase(grid, name,
            FctPointHash(config, workload, FlowSizeCdf::AliStorage().name(), deadline),
            config.seed, [=]() -> std::vector<RowCells> {
              const FctWorkloadResult r = RunFctWorkload(
                  config, workload, FlowSizeCdf::AliStorage(), {.deadline = deadline});
              if (r.flows_total == 0 || r.flows_completed != r.flows_total) {
                FailPoint(name, Sprintf("finished %zu of %zu flows", r.flows_completed,
                                        r.flows_total));
                return {};
              }
              return {{"fat-tree-k16", scheme.label, FormatDouble(config.background_load, 1),
                       std::to_string(r.flows_completed), FormatDouble(r.slowdown.p50, 3),
                       FormatDouble(r.slowdown.p99, 3), "", "", ""}};
            });
  }
  return grid;
}

}  // namespace

// --- Registry + launcher plumbing -------------------------------------------

bool SweepMessageBytes(uint64_t default_mib, uint64_t* bytes, std::string* error) {
  const auto reject = [error](const char* variable, const char* value, const char* want) {
    if (error != nullptr) {
      *error = std::string(variable) + ": expected " + want + ", got '" + value + "'";
    }
    return false;
  };
  int full_scale = 0;
  const char* full = std::getenv("THEMIS_FULL_SCALE");
  if (full != nullptr && (!ParseInt(full, &full_scale) || full_scale < 0 || full_scale > 1)) {
    return reject("THEMIS_FULL_SCALE", full, "0 or 1");
  }
  uint64_t mib = default_mib;
  const char* env_mib = std::getenv("THEMIS_BENCH_MB");
  if (env_mib != nullptr && (!ParseInt(env_mib, &mib) || mib < 1 || mib >= (1ull << 44))) {
    return reject("THEMIS_BENCH_MB", env_mib, "a whole number of MiB in [1, 2^44)");
  }
  *bytes = full_scale == 1 ? 300ull << 20 : mib << 20;
  return true;
}

std::vector<std::string> BuiltinGridNames() {
  return {"fct-smoke",       "fct",
          "fig5-allreduce",  "fig5-alltoall",
          "ablation-themis", "ablation-transport", "ablation-skew",
          "chaos",           "chaos-k16",          "hybrid"};
}

GridDef MakeBuiltinGrid(const std::string& name, std::string* error) {
  if (name == "fct-smoke" || name == "fct") {
    return FctGridDef(/*smoke=*/name == "fct-smoke");
  }
  if (name == "chaos" || name == "chaos-k16") {
    return ChaosGrid(/*fat_tree=*/name == "chaos-k16");
  }
  if (name == "hybrid") {
    return HybridGrid();
  }
  uint64_t bytes = 0;
  if (!SweepMessageBytes(8, &bytes, error)) {
    return {};
  }
  GridDef grid = CollectiveGrid(name, bytes);
  if (grid.cases.empty() && error != nullptr) {
    *error = "unknown grid '" + name + "' (builtin:";
    for (const std::string& known : BuiltinGridNames()) {
      *error += " " + known;
    }
    *error += ")";
  }
  return grid;
}

}  // namespace themis
