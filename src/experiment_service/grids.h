// Builtin sweep grids on the manifest contract.
//
// A GridDef is the executable side of a SweepManifest: the same ordered
// point list plus, per point, a closure producing that point's CSV rows.
// Every sweep campaign — the FCT workload sweep (bench_fct_workload), the
// Fig. 5 collective sweeps (bench_fig5_*), the Fig. 1-fabric ablations
// (bench_ablation_*), the chaos campaigns (bench_chaos) and the hybrid
// fidelity check (bench_hybrid_fidelity) — is defined HERE and consumed by
// three clients that must agree byte-for-byte:
//
//   * the bench binaries (pretty-printed tables and analyses),
//   * sweep_cli (shard launcher / merger for multi-machine campaigns),
//   * the shard-invariance tests and the CI byte-equality gate.
//
// Keeping the case lists, config resolution, and CSV cell formatting in one
// translation unit is what makes "merged sharded output == single-process
// output" a structural property instead of a convention.

#ifndef THEMIS_SRC_EXPERIMENT_SERVICE_GRIDS_H_
#define THEMIS_SRC_EXPERIMENT_SERVICE_GRIDS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/experiment_service/manifest.h"
#include "src/workload/flow_driver.h"

namespace themis {

// --- Generic grid contract --------------------------------------------------

// One CSV row, as cells. Rows are written comma-joined and unquoted, and a
// cell may hold a comma (Fig. 5's "(TI=900us,TD=4us)"), so the written text
// does not split back into cells: tables are built from these.
using RowCells = std::vector<std::string>;

struct GridCase {
  ManifestPoint point;  // index == position in the grid
  std::function<std::vector<RowCells>()> run;  // the point's rows; none if it failed
};

struct GridDef {
  std::string name;
  std::string title;  // heading of the table a bench prints for the grid
  std::string csv_header;
  std::vector<GridCase> cases;
};

// The manifest a GridDef implies (pure projection of the point list).
SweepManifest GridManifest(const GridDef& grid);

// "a,b,c" -> {"a", "b", "c"}; lets the benches build their pretty-printed
// Table from the same header the CSV writers use.
std::vector<std::string> SplitCsvHeader(const char* header);

// A case's rows as the CSV lines a shard journals.
std::vector<std::string> CsvRows(const GridCase& c);

// Runs every case on a SweepRunner pool (`threads` <= 0: THEMIS_SWEEP_THREADS,
// then hardware concurrency) and returns each case's rows, in case order.
std::vector<std::vector<RowCells>> RunGridRows(const GridDef& grid, int threads);

// Writes header + `rows` in case order — the single-process reference, the
// byte stream every sharded merge of the same grid must reproduce.
bool WriteGridCsv(const GridDef& grid, const std::vector<std::vector<RowCells>>& rows,
                  const std::string& out_csv, std::string* error);

// One "<grid>: point <index> (<name>) yielded no row" line per case without
// rows (a failed point); empty when every case yielded one. A single-process
// run (GridBenchMain, sweep_cli --single) prints it to stderr and fails when
// it is not empty; shard runs journal such a point like any other.
std::string MissingRowReport(const GridDef& grid, const std::vector<std::vector<RowCells>>& rows);

// --- FCT workload grid (bench_fct_workload) ---------------------------------

struct FctSchemeSpec {
  const char* label;
  Scheme scheme;
  SprayMode spray;
  bool pfc = true;
  bool grace = true;
  // > 0: attach the fluid background model at this offered load (the hybrid
  // ablation rows).
  double background_load = 0.0;
};

struct FctCaseSpec {
  FctSchemeSpec scheme;
  const FlowSizeCdf* cdf;
  double load;
  std::string name;  // "FCT/<cdf>/load=<l>/<scheme>"
  bool smoke;
};

// The bench's comparison set: ECMP, RandomSpray, Themis-S and Themis-D (the
// schemes the chaos and hybrid grids compare too), then the noGrace / noPFC /
// hybridBg ablation rows (see bench_fct_workload.cc for their rationale).
const std::vector<FctSchemeSpec>& FctSchemes();

// The full case list: cdfs x loads x schemes, in sweep (and CSV) order.
std::vector<FctCaseSpec> FctGridCases(bool smoke);

ExperimentConfig FctCaseConfig(const FctCaseSpec& c);
WorkloadSpec FctCaseWorkload(const FctCaseSpec& c);
TimePs FctCaseDeadline(const FctCaseSpec& c);
uint64_t FctCaseHash(const FctCaseSpec& c);
FctWorkloadResult RunFctGridCase(const FctCaseSpec& c);

// The slowdown-table cells for one completed case, bench column order.
RowCells FctCsvCells(const FctCaseSpec& c, const FctWorkloadResult& r);
extern const char kFctCsvHeader[];

// Grid names "fct" / "fct-smoke".
GridDef FctGridDef(bool smoke);

// bench_fct_workload's two analyses of one sweep (`results[i]` is
// `cases[i]`'s), as the lines it prints under each heading.
struct FctAnalysisLines {
  // Per (cdf, load) whose RandomSpray p99 is positive, one line per Themis
  // case there: its p99 slowdown over RandomSpray's (<1.0 = better).
  std::vector<std::string> p99_vs_spray;
  // One line per Themis-D (ToR-egress) case: the NACKs its Eq. 3 filter
  // forwarded as valid whose original arrived later, beside the genuine ones
  // and the grace-window tallies.
  std::vector<std::string> spurious;
};
FctAnalysisLines FctAnalyses(const std::vector<FctCaseSpec>& cases,
                             const std::vector<FctWorkloadResult>& results);

// --- Collective grids (bench_fig5_*, bench_ablation_*) ----------------------
//
// One kind of point: a collective on a fabric, yielding one row of
// kCollectiveCsvHeader, or none when it misses its deadline.

extern const char kCollectiveCsvHeader[];

// The Fig. 1 fabric (Fig. 1a): two racks of four hosts, four spines, 100 Gbps
// links, RandomSpray + NIC-SR + DCQCN at (TI=10us, TD=200us), 200 ns of
// per-spine delay skew. The ablations vary it point by point.
ExperimentConfig Fig1Config();

// Its two neighbour rings; every hop crosses racks.
extern const std::vector<std::vector<int>> kFig1Rings;

// "fig5-allreduce" / "fig5-alltoall" (`bytes` per collective) and
// "ablation-themis" / "ablation-transport" / "ablation-skew" (`bytes` per
// ring hop); an empty grid for any other name.
GridDef CollectiveGrid(const std::string& name, uint64_t bytes);

// --- Registry + launcher plumbing -------------------------------------------

// Builtin grids by name: "fct" and "fct-smoke"; the collective grids at
// SweepMessageBytes(8); "chaos" and "chaos-k16" (a point is one scheme on one
// fabric: its clean run and four fault campaigns, 5 rows); "hybrid" (two
// validation points of 4 rows, one per background load, then one 1024-host
// point per scheme). Returns an empty grid (and `error`) for an unknown name
// or a collective grid under a malformed size variable.
GridDef MakeBuiltinGrid(const std::string& name, std::string* error);
std::vector<std::string> BuiltinGridNames();

// Collective message sizing, the only reader of THEMIS_FULL_SCALE (1: the
// paper's 300 MB; 0 or unset: off) and THEMIS_BENCH_MB (n MiB, 1 <= n <
// 2^44); else `default_mib`. Any other value of either is an error that
// names the variable.
bool SweepMessageBytes(uint64_t default_mib, uint64_t* bytes, std::string* error);

}  // namespace themis

#endif  // THEMIS_SRC_EXPERIMENT_SERVICE_GRIDS_H_
