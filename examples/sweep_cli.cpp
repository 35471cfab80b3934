// sweep_cli — launcher for the sharded experiment service: split a builtin
// sweep grid across N shards, run one shard (resumably), and merge the
// shards' journals back into the exact CSV a single-process run would write.
//
//   # one machine per shard (any order, any time):
//   $ ./build/examples/sweep_cli --grid=fct-smoke --shards=3 --shard-index=0 --dir=out
//   $ ./build/examples/sweep_cli --grid=fct-smoke --shards=3 --shard-index=1 --dir=out
//   $ ./build/examples/sweep_cli --grid=fct-smoke --shards=3 --shard-index=2 --dir=out
//   # reassemble (byte-identical to --single for any shard count/order):
//   $ ./build/examples/sweep_cli --grid=fct-smoke --shards=3 --dir=out --merge --out=fct.csv
//
// A preempted shard restarts with --resume and recomputes only the points
// its journal is missing; points are keyed on a config hash, so editing one
// grid point invalidates exactly that point. Run with --help for the flags.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "examples/config_flags.h"
#include "src/experiment_service/grids.h"
#include "src/experiment_service/merge.h"
#include "src/experiment_service/shard_executor.h"
#include "src/telemetry/counters.h"

namespace {

using namespace themis;

enum class Mode {
  kShard,         // default: run one shard's slice
  kSingle,        // single-process reference run
  kMerge,         // reassemble shard journals into the final CSV
  kManifestOnly,  // write the manifest and exit
};

struct CliOptions {
  std::string grid = "fct-smoke";
  Mode mode = Mode::kShard;
  int shards = 1;
  int shard_index = 0;
  bool resume = false;
  int threads = 0;
  std::string dir = ".";
  std::string out;  // --single / --merge output; default <dir>/<grid>.csv
  bool counters = false;
};

[[noreturn]] void Usage(int code) {
  std::printf(
      "sweep_cli — sharded, resumable sweep launcher with byte-identical merge\n\n"
      "  --grid=NAME          builtin grid to run (default fct-smoke)\n"
      "  --list-grids         print the builtin grid names and exit\n"
      "  --shards=N           total shard count (default 1)\n"
      "  --shard-index=I      this shard, 0-based (default 0)\n"
      "  --resume             replay this shard's journal and run only missing points\n"
      "  --threads=N          SweepRunner threads (default: THEMIS_SWEEP_THREADS, then\n"
      "                       hardware concurrency)\n"
      "  --dir=PATH           manifest/journal/CSV directory (default .; must exist)\n"
      "  --merge              merge the --shards journals in --dir into --out instead\n"
      "                       of running; fails if any grid point is missing\n"
      "  --single             run the whole grid in-process and write --out — the\n"
      "                       reference byte stream every merge must equal\n"
      "  --manifest-only      write <dir>/<grid>.manifest and exit\n"
      "  --out=PATH           output CSV for --single/--merge (default <dir>/<grid>.csv)\n"
      "  --counters           after a shard run, print the sweep.* telemetry counters\n");
  std::exit(code);
}

CliOptions Parse(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage(0);
    } else if (std::strcmp(arg, "--list-grids") == 0) {
      for (const std::string& name : BuiltinGridNames()) {
        std::printf("%s\n", name.c_str());
      }
      std::exit(0);
    } else if (std::strcmp(arg, "--resume") == 0) {
      opts.resume = true;
    } else if (std::strcmp(arg, "--merge") == 0) {
      opts.mode = Mode::kMerge;
    } else if (std::strcmp(arg, "--single") == 0) {
      opts.mode = Mode::kSingle;
    } else if (std::strcmp(arg, "--manifest-only") == 0) {
      opts.mode = Mode::kManifestOnly;
    } else if (std::strcmp(arg, "--counters") == 0) {
      opts.counters = true;
    } else if (cli::FlagValue(arg, "--grid", &value)) {
      opts.grid = value;
    } else if (cli::FlagValue(arg, "--shards", &value)) {
      opts.shards = cli::IntFlag<int>("--shards", value);
    } else if (cli::FlagValue(arg, "--shard-index", &value)) {
      opts.shard_index = cli::IntFlag<int>("--shard-index", value);
    } else if (cli::FlagValue(arg, "--threads", &value)) {
      opts.threads = cli::IntFlag<int>("--threads", value);
    } else if (cli::FlagValue(arg, "--dir", &value)) {
      opts.dir = value;
    } else if (cli::FlagValue(arg, "--out", &value)) {
      opts.out = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n\n", arg);
      Usage(2);
    }
  }
  return opts;
}

std::string JoinPath(const std::string& dir, const std::string& file) {
  if (dir.empty() || dir.back() == '/') {
    return dir + file;
  }
  return dir + "/" + file;
}

int Run(const CliOptions& opts) {
  std::string error;
  const GridDef grid = MakeBuiltinGrid(opts.grid, &error);
  if (grid.cases.empty() && !error.empty()) {
    std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
    return 2;
  }
  const SweepManifest manifest = GridManifest(grid);
  const std::string out_csv =
      opts.out.empty() ? JoinPath(opts.dir, grid.name + ".csv") : opts.out;

  switch (opts.mode) {
    case Mode::kManifestOnly: {
      const std::string path = JoinPath(opts.dir, grid.name + ".manifest");
      if (!manifest.Write(path, &error)) {
        std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
        return 1;
      }
      std::printf("sweep_cli: wrote %s (%zu points)\n", path.c_str(), manifest.points.size());
      return 0;
    }

    case Mode::kSingle: {
      if (!RunGridSingleProcess(grid, opts.threads, out_csv, &error)) {
        std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
        return 1;
      }
      std::printf("sweep_cli: single-process %s (%zu points) -> %s\n", grid.name.c_str(),
                  grid.cases.size(), out_csv.c_str());
      return 0;
    }

    case Mode::kMerge: {
      if (!MergeShardDir(manifest, opts.dir, opts.shards, out_csv, &error)) {
        std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
        return 1;
      }
      std::printf("sweep_cli: merged %d shard(s) of %s -> %s\n", opts.shards,
                  grid.name.c_str(), out_csv.c_str());
      return 0;
    }

    case Mode::kShard:
      break;
  }

  // Shard mode. The manifest is (re)written first so the artifact directory
  // is self-describing: a later --merge or an out-of-band inspection can
  // check hashes without rebuilding the binary's grid.
  const std::string manifest_path = JoinPath(opts.dir, grid.name + ".manifest");
  if (!manifest.Write(manifest_path, &error)) {
    std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
    return 1;
  }

  ShardOptions shard;
  shard.shard_count = opts.shards;
  shard.shard_index = opts.shard_index;
  shard.resume = opts.resume;
  shard.dir = opts.dir;
  shard.threads = opts.threads;
  ShardExecutor executor(manifest, shard);
  const bool ok = executor.Run(
      [&grid](const ManifestPoint& point) { return CsvRows(grid.cases[point.index]); }, &error);

  const ShardStats& stats = executor.stats();
  std::printf(
      "sweep[%s]: shard %d/%d points_done=%llu points_skipped=%llu points_failed=%llu "
      "wall_ms=%llu -> %s\n",
      grid.name.c_str(), opts.shard_index, opts.shards,
      static_cast<unsigned long long>(stats.points_done),
      static_cast<unsigned long long>(stats.points_skipped),
      static_cast<unsigned long long>(stats.points_failed),
      static_cast<unsigned long long>(stats.shard_wall_ms), executor.CsvPath().c_str());

  if (opts.counters) {
    CounterRegistry registry;
    executor.RegisterCounters(&registry);
    for (size_t i = 0; i < registry.size(); ++i) {
      std::printf("%s=%.0f\n", registry.at(i).name.c_str(), registry.Read(i));
    }
  }

  if (!ok) {
    std::fprintf(stderr, "sweep_cli: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(Parse(argc, argv)); }
