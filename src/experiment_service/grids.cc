#include "src/experiment_service/grids.h"

#include <cstdlib>
#include <fstream>

#include "src/core/sweep_runner.h"
#include "src/experiment_service/config_hash.h"
#include "src/stats/report.h"

namespace themis {
namespace {

std::string JoinCsv(const RowCells& cells) {
  std::string row;
  for (size_t i = 0; i < cells.size(); ++i) {
    row.append(i > 0 ? "," : "").append(cells[i]);
  }
  return row;
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

bool RunGridSingleProcess(const GridDef& grid, int threads, const std::string& out_csv,
                          std::string* error) {
  return WriteGridCsv(grid, RunGridRows(grid, threads), out_csv, error);
}

// --- FCT workload grid ------------------------------------------------------

const char kFctCsvHeader[] =
    "dist,load,scheme,flows,done,p50,p95,p99,goodput_gbps,rtx_ratio,drops,nacks_valid,"
    "spurious,grace_defer,grace_cancel";

const std::vector<FctSchemeSpec>& FctSchemes() {
  static const std::vector<FctSchemeSpec> kSchemes = {
      {"ECMP", Scheme::kEcmp, SprayMode::kTorEgress, true, true},
      {"RandomSpray", Scheme::kRandomSpray, SprayMode::kTorEgress, true, true},
      {"Themis-S", Scheme::kThemis, SprayMode::kSportRewrite, true, true},
      {"Themis-D", Scheme::kThemis, SprayMode::kTorEgress, true, true},
      {"Themis-D/noGrace", Scheme::kThemis, SprayMode::kTorEgress, true, false},
      {"Themis-D/noPFC", Scheme::kThemis, SprayMode::kTorEgress, false, true},
      {"ECMP/hybridBg", Scheme::kEcmp, SprayMode::kTorEgress, true, true, 0.4},
      {"Themis-D/hybridBg", Scheme::kThemis, SprayMode::kTorEgress, true, true, 0.4},
  };
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
  ExperimentConfig config;
  config.seed = 42;
  config.num_tors = c.smoke ? 2 : 4;
  config.num_spines = c.smoke ? 2 : 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(400);
  config.scheme = c.scheme.scheme;
  config.themis_spray_mode = c.scheme.spray;
  config.pfc_enabled = c.scheme.pfc;
  config.themis_pause_grace = c.scheme.grace;
  if (c.scheme.background_load > 0.0) {
    config.traffic_model = TrafficModelKind::kFluid;
    config.background_load = c.scheme.background_load;
  }
  return config;
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
  return RunFctWorkload(FctCaseConfig(c), FctCaseWorkload(c), *c.cdf, FctCaseDeadline(c));
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
  std::vector<FctCaseSpec> cases = FctGridCases(smoke);
  grid.cases.reserve(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    GridCase gc;
    gc.point.index = static_cast<uint32_t>(i);
    gc.point.config_hash = FctCaseHash(cases[i]);
    gc.point.seed = FctCaseConfig(cases[i]).seed;
    gc.point.name = cases[i].name;
    gc.run = [spec = cases[i]]() -> std::vector<RowCells> {
      const FctWorkloadResult r = RunFctGridCase(spec);
      if (r.flows_completed == 0) {
        return {};  // failed case: no table row, same as the bench
      }
      return {FctCsvCells(spec, r)};
    };
    grid.cases.push_back(std::move(gc));
  }
  return grid;
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
  grid.cases.reserve(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    GridCase gc;
    gc.point.index = static_cast<uint32_t>(i);
    gc.point.config_hash = CollectivePointHash(cases[i].config, cases[i].run, cases[i].label);
    gc.point.seed = cases[i].config.seed;
    gc.point.name = cases[i].name;
    gc.run = [c = std::move(cases[i])] { return RunCollectiveCase(c); };
    grid.cases.push_back(std::move(gc));
  }
  return grid;
}

// --- Registry + launcher plumbing -------------------------------------------

uint64_t SweepMessageBytes(uint64_t default_mib) {
  if (const char* full = std::getenv("THEMIS_FULL_SCALE"); full != nullptr && *full == '1') {
    return 300ull << 20;
  }
  if (const char* mib = std::getenv("THEMIS_BENCH_MB"); mib != nullptr) {
    return std::strtoull(mib, nullptr, 10) << 20;
  }
  return default_mib << 20;
}

std::vector<std::string> BuiltinGridNames() {
  return {"fct-smoke",       "fct",
          "fig5-allreduce",  "fig5-alltoall",
          "ablation-themis", "ablation-transport", "ablation-skew"};
}

GridDef MakeBuiltinGrid(const std::string& name, std::string* error) {
  if (name == "fct-smoke" || name == "fct") {
    return FctGridDef(/*smoke=*/name == "fct-smoke");
  }
  GridDef grid = CollectiveGrid(name, SweepMessageBytes(8));
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
