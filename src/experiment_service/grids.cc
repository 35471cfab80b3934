#include "src/experiment_service/grids.h"

#include <cstdlib>
#include <fstream>

#include "src/core/sweep_runner.h"
#include "src/experiment_service/config_hash.h"
#include "src/stats/report.h"

namespace themis {
namespace {

std::string JoinCsv(const std::vector<std::string>& cells) {
  std::string row;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) {
      row.push_back(',');
    }
    row += cells[i];
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

bool RunGridSingleProcess(const GridDef& grid, int threads, const std::string& out_csv,
                          std::string* error) {
  SweepRunner runner(threads);
  std::vector<std::vector<std::string>> rows(grid.cases.size());
  runner.RunIndexed(grid.cases.size(), [&](size_t i) { rows[i] = grid.cases[i].run(); });
  std::ofstream out(out_csv);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open " + out_csv + " for writing";
    }
    return false;
  }
  out << grid.csv_header << "\n";
  for (const std::vector<std::string>& case_rows : rows) {
    for (const std::string& row : case_rows) {
      out << row << "\n";
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

std::vector<std::string> FctCsvCells(const FctCaseSpec& c, const FctWorkloadResult& r) {
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
    gc.run = [spec = cases[i]]() -> std::vector<std::string> {
      const FctWorkloadResult r = RunFctGridCase(spec);
      if (r.flows_completed == 0) {
        return {};  // failed case: no table row, same as the bench
      }
      return {JoinCsv(FctCsvCells(spec, r))};
    };
    grid.cases.push_back(std::move(gc));
  }
  return grid;
}

// --- Fig. 5 collective grids ------------------------------------------------

const char kFig5CsvHeader[] =
    "config,scheme,completion_ms,rtx_ratio,nacks@sender,nacks_blocked,drops";

namespace {

constexpr DcqcnPoint kFig5Sweep[] = {
    {900, 4}, {300, 4}, {10, 4}, {10, 50}, {10, 200},
};

constexpr Scheme kFig5Schemes[] = {Scheme::kEcmp, Scheme::kAdaptiveRouting, Scheme::kThemis};

}  // namespace

std::vector<Fig5CaseSpec> Fig5GridCases(CollectiveKind kind, uint64_t bytes,
                                        const std::string& figure_name) {
  std::vector<Fig5CaseSpec> cases;
  for (const DcqcnPoint& point : kFig5Sweep) {
    for (Scheme scheme : kFig5Schemes) {
      Fig5CaseSpec c;
      c.kind = kind;
      c.scheme = scheme;
      c.point = point;
      c.bytes = bytes;
      c.name = figure_name + "/" + SchemeName(scheme) + "/TI=" + std::to_string(point.ti_us) +
               "us/TD=" + std::to_string(point.td_us) + "us";
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

ExperimentConfig Fig5CaseConfig(const Fig5CaseSpec& c) {
  ExperimentConfig config;  // defaults are the paper's 16x16 @ 400G fabric
  config.scheme = c.scheme;
  config.dcqcn_ti = c.point.ti_us * kMicrosecond;
  config.dcqcn_td = c.point.td_us * kMicrosecond;
  return config;
}

uint64_t Fig5CaseHash(const Fig5CaseSpec& c) {
  ConfigHasher h;
  AppendFields(h, Fig5CaseConfig(c));
  h.Field("collective.kind", static_cast<int64_t>(c.kind));
  h.Field("collective.bytes", c.bytes);
  h.Field("collective.groups", 16);
  h.Field("harness.deadline", 60 * kSecond);
  return h.hash();
}

Fig5Outcome RunFig5GridCase(const Fig5CaseSpec& c) {
  Fig5Outcome out;
  Experiment exp(Fig5CaseConfig(c));
  auto groups = exp.MakeCrossRackGroups(16);
  auto result = exp.RunCollective(c.kind, groups, c.bytes, 60 * kSecond);
  if (!result.all_done) {
    out.error = "collective did not finish before the deadline";
    return out;
  }
  out.ok = true;
  out.sim_seconds = ToSeconds(result.tail_completion);
  out.cells = {"(TI=" + std::to_string(c.point.ti_us) + "us,TD=" +
                   std::to_string(c.point.td_us) + "us)",
               SchemeName(c.scheme),
               FormatDouble(ToMilliseconds(result.tail_completion), 3),
               FormatDouble(exp.AggregateRetransmissionRatio(), 4),
               std::to_string(exp.TotalNacksReceived()),
               std::to_string(exp.themis() != nullptr
                                  ? exp.themis()->AggregateDStats().nacks_blocked
                                  : 0),
               std::to_string(exp.TotalPortDrops())};
  return out;
}

GridDef Fig5GridDef(CollectiveKind kind, uint64_t bytes, const std::string& grid_name,
                    const std::string& figure_name) {
  GridDef grid;
  grid.name = grid_name;
  grid.csv_header = kFig5CsvHeader;
  std::vector<Fig5CaseSpec> cases = Fig5GridCases(kind, bytes, figure_name);
  grid.cases.reserve(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    GridCase gc;
    gc.point.index = static_cast<uint32_t>(i);
    gc.point.config_hash = Fig5CaseHash(cases[i]);
    gc.point.seed = Fig5CaseConfig(cases[i]).seed;
    gc.point.name = cases[i].name;
    gc.run = [spec = cases[i]]() -> std::vector<std::string> {
      const Fig5Outcome out = RunFig5GridCase(spec);
      if (!out.ok) {
        return {};  // skipped case (deadline): no summary row, as in the bench
      }
      return {JoinCsv(out.cells)};
    };
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
  return {"fct-smoke", "fct", "fig5-allreduce", "fig5-alltoall"};
}

GridDef MakeBuiltinGrid(const std::string& name, std::string* error) {
  if (name == "fct-smoke") {
    return FctGridDef(/*smoke=*/true);
  }
  if (name == "fct") {
    return FctGridDef(/*smoke=*/false);
  }
  if (name == "fig5-allreduce") {
    return Fig5GridDef(CollectiveKind::kAllreduce, SweepMessageBytes(8), name,
                       "Fig5a-Allreduce");
  }
  if (name == "fig5-alltoall") {
    return Fig5GridDef(CollectiveKind::kAlltoall, SweepMessageBytes(8), name, "Fig5b-Alltoall");
  }
  if (error != nullptr) {
    *error = "unknown grid '" + name + "' (builtin:";
    for (const std::string& known : BuiltinGridNames()) {
      *error += " " + known;
    }
    *error += ")";
  }
  return GridDef{};
}

}  // namespace themis
