// Builtin sweep grids on the manifest contract.
//
// A GridDef is the executable side of a SweepManifest: the same ordered
// point list plus, per point, a closure producing that point's CSV rows.
// The two headline campaigns — the FCT workload sweep (bench_fct_workload)
// and the Fig. 5 collective sweeps (bench_fig5_*) — are defined HERE and
// consumed by three clients that must agree byte-for-byte:
//
//   * the bench binaries (pretty-printed analysis + single-process CSV),
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

struct GridCase {
  ManifestPoint point;  // index == position in the grid
  std::function<std::vector<std::string>()> run;  // the point's CSV rows
};

struct GridDef {
  std::string name;
  std::string csv_header;
  std::vector<GridCase> cases;
};

// The manifest a GridDef implies (pure projection of the point list).
SweepManifest GridManifest(const GridDef& grid);

// "a,b,c" -> {"a", "b", "c"}; lets the benches build their pretty-printed
// Table from the same kFctCsvHeader / kFig5CsvHeader the CSV writers use.
std::vector<std::string> SplitCsvHeader(const char* header);

// Single-process reference: runs every case on a SweepRunner pool and writes
// header + rows in case order — the byte stream every sharded merge of the
// same grid must reproduce.
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
std::vector<std::string> FctCsvCells(const FctCaseSpec& c, const FctWorkloadResult& r);
extern const char kFctCsvHeader[];

// Grid names "fct" / "fct-smoke".
GridDef FctGridDef(bool smoke);

// --- Fig. 5 collective grids (bench_fig5_allreduce / _alltoall) -------------

struct DcqcnPoint {
  int64_t ti_us;
  int64_t td_us;
};

struct Fig5CaseSpec {
  CollectiveKind kind;
  Scheme scheme;
  DcqcnPoint point;
  uint64_t bytes;
  std::string name;  // "<figure>/<scheme>/TI=..us/TD=..us"
};

struct Fig5Outcome {
  bool ok = false;
  std::string error;
  double sim_seconds = 0.0;
  std::vector<std::string> cells;  // kFig5CsvHeader order; empty unless ok
};

std::vector<Fig5CaseSpec> Fig5GridCases(CollectiveKind kind, uint64_t bytes,
                                        const std::string& figure_name);
ExperimentConfig Fig5CaseConfig(const Fig5CaseSpec& c);
uint64_t Fig5CaseHash(const Fig5CaseSpec& c);
Fig5Outcome RunFig5GridCase(const Fig5CaseSpec& c);
extern const char kFig5CsvHeader[];

GridDef Fig5GridDef(CollectiveKind kind, uint64_t bytes, const std::string& grid_name,
                    const std::string& figure_name);

// --- Registry + launcher plumbing -------------------------------------------

// Builtin grids by name: "fct", "fct-smoke", "fig5-allreduce",
// "fig5-alltoall". Returns an empty grid (and `error`) for unknown names.
GridDef MakeBuiltinGrid(const std::string& name, std::string* error);
std::vector<std::string> BuiltinGridNames();

// Collective message sizing shared with bench_common.h: THEMIS_FULL_SCALE=1
// -> the paper's 300 MB, THEMIS_BENCH_MB=<n> -> n MiB, else `default_mib`.
uint64_t SweepMessageBytes(uint64_t default_mib);

}  // namespace themis

#endif  // THEMIS_SRC_EXPERIMENT_SERVICE_GRIDS_H_
