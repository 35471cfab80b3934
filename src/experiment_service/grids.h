// Builtin sweep grids on the manifest contract.
//
// A GridDef is the executable side of a SweepManifest: the same ordered
// point list plus, per point, a closure producing that point's CSV rows.
// Every sweep campaign — the FCT workload sweep (bench_fct_workload), the
// Fig. 5 collective sweeps (bench_fig5_*) and the Fig. 1-fabric ablations
// (bench_ablation_*) — is defined HERE and consumed by three clients that
// must agree byte-for-byte:
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

// Writes header + `rows` in case order — the byte stream every sharded merge
// of the same grid must reproduce.
bool WriteGridCsv(const GridDef& grid, const std::vector<std::vector<RowCells>>& rows,
                  const std::string& out_csv, std::string* error);

// Single-process reference: RunGridRows, then WriteGridCsv.
bool RunGridSingleProcess(const GridDef& grid, int threads, const std::string& out_csv,
                          std::string* error);

// --- FCT workload grid (bench_fct_workload) ---------------------------------

struct FctSchemeSpec {
  const char* label;
  Scheme scheme;
  SprayMode spray;
  bool pfc;
  bool grace;
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

// The bench's comparison set (see bench_fct_workload.cc for the rationale
// behind the noGrace / noPFC / hybridBg ablation rows).
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

// Builtin grids by name: "fct", "fct-smoke" and the collective grids at
// SweepMessageBytes(8). Returns an empty grid (and `error`) for unknown names.
GridDef MakeBuiltinGrid(const std::string& name, std::string* error);
std::vector<std::string> BuiltinGridNames();

// Collective message sizing, the only reader of THEMIS_FULL_SCALE=1 (the
// paper's 300 MB) and THEMIS_BENCH_MB=<n> (n MiB); else `default_mib`.
uint64_t SweepMessageBytes(uint64_t default_mib);

}  // namespace themis

#endif  // THEMIS_SRC_EXPERIMENT_SERVICE_GRIDS_H_
