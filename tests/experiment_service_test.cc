// Tests for the sharded, resumable experiment service
// (src/experiment_service): manifest round-trip and slicing, shard
// invariance (merged output byte-identical to a single-process run for any
// shard count and completion order), resume (only journal-missing points
// re-execute), merge failure modes, journal framing, telemetry counters, the
// builtin grids' inputs and analyses, and the config-hash golden table.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/sweep_runner.h"
#include "src/experiment_service/config_hash.h"
#include "src/experiment_service/grids.h"
#include "src/experiment_service/journal.h"
#include "src/experiment_service/manifest.h"
#include "src/experiment_service/merge.h"
#include "src/experiment_service/shard_executor.h"
#include "src/stats/report.h"
#include "src/telemetry/counters.h"

namespace themis {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Fresh scratch directory per test case.
std::string ScratchDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/expsvc_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- Synthetic grid ---------------------------------------------------------
//
// 24 deterministic points with deliberately non-uniform row counts: most
// points emit one CSV row, every 5th-but-2 point emits two, and every
// 5th-but-4 emits none (the "failed case writes no row" convention the FCT
// grid uses). `runs`, when given, counts executions per point.

constexpr int kSyntheticPoints = 24;

uint64_t SyntheticHash(uint32_t index) {
  ConfigHasher h;
  h.Field("synthetic.index", static_cast<uint64_t>(index));
  return h.hash();
}

std::vector<RowCells> SyntheticRows(uint32_t i) {
  if (i % 5 == 4) {
    return {};
  }
  const RowCells row = {std::to_string(i), std::to_string(i * i)};
  if (i % 5 == 2) {
    return {row, {std::to_string(i), "extra"}};
  }
  return {row};
}

GridDef SyntheticGrid(std::vector<std::atomic<int>>* runs = nullptr) {
  GridDef grid;
  grid.name = "synthetic";
  grid.csv_header = "point,value";
  for (uint32_t i = 0; i < kSyntheticPoints; ++i) {
    GridCase gc;
    gc.point.index = i;
    gc.point.config_hash = SyntheticHash(i);
    gc.point.seed = i;
    gc.point.name = "synthetic point " + std::to_string(i);
    gc.run = [i, runs]() {
      if (runs != nullptr) {
        ++(*runs)[i];
      }
      return SyntheticRows(i);
    };
    grid.cases.push_back(std::move(gc));
  }
  return grid;
}

// Runs every shard of `grid` (in the given shard order) and merges into
// `out_csv`. Returns false on the first failure.
bool RunShardsAndMerge(const GridDef& grid, const std::string& dir, int shard_count,
                       const std::vector<int>& shard_order, int threads,
                       const std::string& out_csv, std::string* error) {
  const SweepManifest manifest = GridManifest(grid);
  for (int shard_index : shard_order) {
    ShardOptions options;
    options.shard_count = shard_count;
    options.shard_index = shard_index;
    options.dir = dir;
    options.threads = threads;
    ShardExecutor executor(manifest, options);
    if (!executor.Run(
            [&grid](const ManifestPoint& point) { return CsvRows(grid.cases[point.index]); },
            error)) {
      return false;
    }
  }
  return MergeShardDir(manifest, dir, shard_count, out_csv, error);
}

// --- Manifest ----------------------------------------------------------------

TEST(ManifestTest, WriteLoadRoundTrip) {
  const std::string dir = ScratchDir("manifest_roundtrip");
  const GridDef grid = SyntheticGrid();
  const SweepManifest manifest = GridManifest(grid);

  std::string error;
  ASSERT_TRUE(manifest.Write(dir + "/m.manifest", &error)) << error;
  SweepManifest loaded;
  ASSERT_TRUE(SweepManifest::Load(dir + "/m.manifest", &loaded, &error)) << error;

  EXPECT_EQ(loaded.grid, manifest.grid);
  EXPECT_EQ(loaded.csv_header, manifest.csv_header);
  ASSERT_EQ(loaded.points.size(), manifest.points.size());
  for (size_t i = 0; i < manifest.points.size(); ++i) {
    EXPECT_EQ(loaded.points[i].index, manifest.points[i].index);
    EXPECT_EQ(loaded.points[i].config_hash, manifest.points[i].config_hash);
    EXPECT_EQ(loaded.points[i].seed, manifest.points[i].seed);
    // Names carry spaces; the parser must keep the rest of the line intact.
    EXPECT_EQ(loaded.points[i].name, manifest.points[i].name);
  }
}

TEST(ManifestTest, LoadRejectsPointCountMismatch) {
  const std::string dir = ScratchDir("manifest_badcount");
  std::ofstream out(dir + "/m.manifest");
  out << "# themis sweep manifest v1\ngrid g\nheader a,b\npoints 2\n"
      << "point 0 0000000000000001 1 only one\n";
  out.close();
  SweepManifest loaded;
  std::string error;
  EXPECT_FALSE(SweepManifest::Load(dir + "/m.manifest", &loaded, &error));
  EXPECT_NE(error.find("point"), std::string::npos) << error;
}

TEST(ManifestTest, ShardSlicePartitionsEveryPointExactlyOnce) {
  const SweepManifest manifest = GridManifest(SyntheticGrid());
  for (int shard_count : {1, 2, 3, 7, kSyntheticPoints, kSyntheticPoints + 5}) {
    std::vector<int> covered(manifest.points.size(), 0);
    for (int shard = 0; shard < shard_count; ++shard) {
      for (size_t pos : manifest.ShardSlice(shard_count, shard)) {
        ASSERT_LT(pos, manifest.points.size());
        ++covered[pos];
        EXPECT_EQ(static_cast<int>(manifest.points[pos].index % shard_count), shard);
      }
    }
    for (size_t i = 0; i < covered.size(); ++i) {
      EXPECT_EQ(covered[i], 1) << "shard_count=" << shard_count << " point " << i;
    }
  }
  EXPECT_TRUE(manifest.ShardSlice(0, 0).empty());
  EXPECT_TRUE(manifest.ShardSlice(3, 3).empty());
  EXPECT_TRUE(manifest.ShardSlice(3, -1).empty());
}

// --- Shard invariance (satellite 1) ------------------------------------------

TEST(ShardInvarianceTest, MergedCsvByteIdenticalForAnyShardCountAndOrder) {
  const std::string dir = ScratchDir("invariance");
  const GridDef grid = SyntheticGrid();

  std::string error;
  const std::string ref_csv = dir + "/reference.csv";
  ASSERT_TRUE(WriteGridCsv(grid, RunGridRows(grid, /*threads=*/1), ref_csv, &error)) << error;
  const std::string reference = ReadFile(ref_csv);
  ASSERT_FALSE(reference.empty());

  // Shards executed out of order (reversed and interleaved), with a thread
  // pool, so journal append order differs wildly from point order.
  const std::vector<std::vector<int>> orders = {
      {0}, {1, 0}, {2, 0, 1}, {5, 1, 6, 0, 3, 2, 4}};
  const int shard_counts[] = {1, 2, 3, 7};
  for (size_t i = 0; i < 4; ++i) {
    const std::string subdir = dir + "/n" + std::to_string(shard_counts[i]);
    std::filesystem::create_directories(subdir);
    const std::string merged_csv = subdir + "/merged.csv";
    ASSERT_TRUE(RunShardsAndMerge(grid, subdir, shard_counts[i], orders[i], /*threads=*/3,
                                  merged_csv, &error))
        << error;
    EXPECT_EQ(ReadFile(merged_csv), reference) << "shard_count=" << shard_counts[i];
  }
}

TEST(ShardInvarianceTest, SingleProcessOutputIdenticalAcrossThreadCounts) {
  const std::string dir = ScratchDir("thread_invariance");
  const GridDef grid = SyntheticGrid();
  std::string error;
  ASSERT_TRUE(WriteGridCsv(grid, RunGridRows(grid, 1), dir + "/t1.csv", &error)) << error;
  ASSERT_TRUE(WriteGridCsv(grid, RunGridRows(grid, 5), dir + "/t5.csv", &error)) << error;
  EXPECT_EQ(ReadFile(dir + "/t1.csv"), ReadFile(dir + "/t5.csv"));
}

// The check a single-process sweep fails on: every synthetic point that
// yields no row (index % 5 == 4), and only those, is named.
TEST(GridContractTest, MissingRowReportNamesEveryPointWithoutRows) {
  const GridDef grid = SyntheticGrid();
  const std::string report = MissingRowReport(grid, RunGridRows(grid, /*threads=*/2));
  std::vector<std::string> lines;
  std::istringstream in(report);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u) << report;
  const int empty_points[] = {4, 9, 14, 19};
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string index = std::to_string(empty_points[i]);
    EXPECT_EQ(lines[i], "synthetic: point " + index + " (synthetic point " + index +
                            ") yielded no row");
  }
  EXPECT_EQ(MissingRowReport(grid, std::vector<std::vector<RowCells>>(
                                       kSyntheticPoints, std::vector<RowCells>(1))),
            "");
}

// The acceptance gate: the real FCT smoke grid and a collective grid (the
// Themis ablations at 1 MiB per ring hop), sharded {1, 2, 3, 7} ways, must
// merge to the exact byte stream of the single-process sweep.
TEST(ShardInvarianceTest, FctSmokeGridMergesByteIdentical) {
  const std::pair<GridDef, size_t> grids[] = {
      {FctGridDef(/*smoke=*/true), 16},
      {CollectiveGrid("ablation-themis", 1ull << 20), 13},
  };
  for (const auto& [grid, points] : grids) {
    SCOPED_TRACE(grid.name);
    const std::string dir = ScratchDir(grid.name);
    ASSERT_EQ(grid.cases.size(), points);

    std::string error;
    const std::string ref_csv = dir + "/reference.csv";
    ASSERT_TRUE(WriteGridCsv(grid, RunGridRows(grid, /*threads=*/0), ref_csv, &error)) << error;
    const std::string reference = ReadFile(ref_csv);
    ASSERT_GT(reference.size(), grid.csv_header.size() + 1);

    for (int shard_count : {1, 2, 3, 7}) {
      const std::string subdir = dir + "/n" + std::to_string(shard_count);
      std::filesystem::create_directories(subdir);
      // Run shards highest-first: completion order is the reverse of manifest
      // order, which the merge must not care about.
      std::vector<int> order;
      for (int s = shard_count - 1; s >= 0; --s) {
        order.push_back(s);
      }
      const std::string merged_csv = subdir + "/merged.csv";
      ASSERT_TRUE(
          RunShardsAndMerge(grid, subdir, shard_count, order, /*threads=*/0, merged_csv, &error))
          << error;
      EXPECT_EQ(ReadFile(merged_csv), reference) << "shard_count=" << shard_count;
    }
  }
}

// --- Collective grids ---------------------------------------------------------

// The with-loss ablation points blackhole one spine downlink in one
// direction for 10 us: packets drop there, and nowhere in the lossless ones.
TEST(CollectiveGridTest, LossWindowDropsPacketsOnlyInWithLossPoints) {
  const GridDef grid = CollectiveGrid("ablation-themis", 1ull << 20);
  const auto row = [&grid](size_t i) {
    const std::vector<RowCells> rows = grid.cases[i].run();
    EXPECT_EQ(rows.size(), 1u) << grid.cases[i].point.name;
    return rows.empty() ? RowCells(7) : rows[0];
  };
  const RowCells lossless = row(0);
  const RowCells lossy = row(2);
  EXPECT_EQ(lossless[0], "lossless");
  EXPECT_EQ(lossless[6], "0");  // drops
  EXPECT_EQ(lossy[0], "with-loss");
  EXPECT_NE(lossy[6], "0");
}

// Sets an environment variable (unsets it for null) until the end of the
// scope, then restores what was there.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      saved_ = old;
    }
    Set(value);
  }
  ~ScopedEnv() { Set(saved_ ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void Set(const char* value) {
    if (value != nullptr) {
      setenv(name_, value, 1);
    } else {
      unsetenv(name_);
    }
  }

  const char* name_;
  std::optional<std::string> saved_;
};

// The collective grids read their message size from THEMIS_BENCH_MB (MiB in
// [1, 2^44)) and THEMIS_FULL_SCALE (0 or 1); any other value yields no grid
// and an error that names the variable, before a point could run.
TEST(BuiltinGridTest, MessageSizeVariablesParseStrictly) {
  const auto build = [](const char* bench_mb, const char* full_scale, std::string* error) {
    ScopedEnv mb("THEMIS_BENCH_MB", bench_mb);
    ScopedEnv full("THEMIS_FULL_SCALE", full_scale);
    error->clear();
    return MakeBuiltinGrid("fig5-allreduce", error);
  };
  std::string error;
  for (const char* bad : {"abc", "", "0", "-1", "8x", " 8", "17592186044416",
                          "18446744073709551616"}) {
    EXPECT_TRUE(build(bad, nullptr, &error).cases.empty()) << "THEMIS_BENCH_MB=" << bad;
    EXPECT_NE(error.find("THEMIS_BENCH_MB"), std::string::npos) << error;
  }
  for (const char* bad : {"true", "2", "", "-0x1"}) {
    EXPECT_TRUE(build(nullptr, bad, &error).cases.empty()) << "THEMIS_FULL_SCALE=" << bad;
    EXPECT_NE(error.find("THEMIS_FULL_SCALE"), std::string::npos) << error;
  }

  // The title states the size each collective moves.
  const auto size_of = [&build, &error](const char* bench_mb, const char* full_scale) {
    const GridDef grid = build(bench_mb, full_scale, &error);
    EXPECT_EQ(grid.cases.size(), 15u) << error;
    const size_t open = grid.title.find('(');
    return grid.title.substr(open + 1, grid.title.find(" MiB") - open - 1);
  };
  EXPECT_EQ(size_of(nullptr, nullptr), "8");
  EXPECT_EQ(size_of("1", "0"), "1");
  EXPECT_EQ(size_of("17592186044415", nullptr), "17592186044415");
  EXPECT_EQ(size_of("2", "1"), "300");
}

// The grids beyond the paper: chaos campaigns (one scheme on one fabric per
// point) and the hybrid check (two validation loads, then one fat-tree point
// per scheme), over the same four schemes the FCT sweep compares first.
TEST(BuiltinGridTest, ChaosAndHybridPointsSpanTheComparedSchemes) {
  std::string error;
  const GridDef chaos = MakeBuiltinGrid("chaos", &error);
  const GridDef chaos_k16 = MakeBuiltinGrid("chaos-k16", &error);
  const GridDef hybrid = MakeBuiltinGrid("hybrid", &error);
  ASSERT_EQ(chaos.cases.size(), 4u);
  ASSERT_EQ(chaos_k16.cases.size(), 4u);
  ASSERT_EQ(hybrid.cases.size(), 6u);
  EXPECT_EQ(hybrid.cases[0].point.name, "Hybrid/validate-2x2x2/bg=0.2");
  EXPECT_EQ(hybrid.cases[1].point.name, "Hybrid/validate-2x2x2/bg=0.4");
  for (size_t i = 0; i < 4; ++i) {
    const std::string scheme = FctSchemes()[i].label;
    EXPECT_EQ(chaos.cases[i].point.name, "Chaos/leaf-spine/" + scheme);
    EXPECT_EQ(chaos_k16.cases[i].point.name, "Chaos/fat-tree-k16/" + scheme);
    EXPECT_EQ(hybrid.cases[2 + i].point.name, "Hybrid/fat-tree-k16/" + scheme);
  }
  EXPECT_EQ(chaos.csv_header,
            "topo,scheme,fault,fault_records,recovery_us,p99,p99_vs_clean,fault_drops,"
            "victim_flows,flows_completed");
  EXPECT_EQ(hybrid.csv_header, "config,variant,bg_load,flows,p50,p99,ks_vs_full,p50_ratio,"
                               "p99_ratio");
}

// --- FCT analyses ---------------------------------------------------------------

// bench_fct_workload's analyses over the 16 fct-smoke cases: a p99 ratio line
// per Themis case (5 per load) and a spurious-NACK line per Themis-D
// ToR-egress case (4 per load).
TEST(FctAnalysesTest, SmokeCasesGiveOneLinePerThemisCase) {
  const std::vector<FctCaseSpec> cases = FctGridCases(/*smoke=*/true);
  ASSERT_EQ(cases.size(), 16u);
  const std::vector<FctWorkloadResult> results = SweepRunner().Map(cases, RunFctGridCase);
  const FctAnalysisLines lines = FctAnalyses(cases, results);
  EXPECT_EQ(lines.p99_vs_spray.size(), 10u);
  EXPECT_EQ(lines.spurious.size(), 8u);

  // The first ratio is Themis-S (case 2) over RandomSpray (case 1) at load 0.3.
  ASSERT_FALSE(lines.p99_vs_spray.empty());
  ASSERT_EQ(cases[1].scheme.scheme, Scheme::kRandomSpray);
  ASSERT_EQ(std::string(cases[2].scheme.label), "Themis-S");
  const std::string& first = lines.p99_vs_spray[0];
  EXPECT_NE(first.find("load=0.3 Themis-S"), std::string::npos) << first;
  const std::string ratio =
      FormatDouble(results[2].slowdown.p99 / results[1].slowdown.p99, 3);
  EXPECT_EQ(first.substr(first.size() - ratio.size()), ratio) << first;
  for (const std::string& line : lines.spurious) {
    EXPECT_NE(line.find("Themis-D"), std::string::npos) << line;
    EXPECT_NE(line.find(" spurious / "), std::string::npos) << line;
  }
}

// --- Resume (satellite 2) -----------------------------------------------------

TEST(ResumeTest, TruncatedJournalRecomputesOnlyMissingPoints) {
  const std::string dir = ScratchDir("resume_truncate");
  std::vector<std::atomic<int>> runs(kSyntheticPoints);
  const GridDef grid = SyntheticGrid(&runs);
  const SweepManifest manifest = GridManifest(grid);

  // Full single-shard run, then cut the journal mid-grid: keep the first 9
  // complete records and append a torn half-record, as if the shard had been
  // killed mid-write.
  ShardOptions options;
  options.dir = dir;
  options.threads = 2;
  std::string error;
  {
    ShardExecutor executor(manifest, options);
    ASSERT_TRUE(executor.Run(
        [&grid](const ManifestPoint& p) { return CsvRows(grid.cases[p.index]); }, &error))
        << error;
    EXPECT_EQ(executor.stats().points_done, static_cast<uint64_t>(kSyntheticPoints));
  }
  const std::string journal_path = ShardJournalPath(dir, manifest.grid, 0, 1);
  std::vector<JournalRecord> records = LoadJournal(journal_path);
  ASSERT_EQ(records.size(), static_cast<size_t>(kSyntheticPoints));
  constexpr size_t kKeep = 9;
  std::vector<bool> journaled(kSyntheticPoints, false);
  {
    JournalWriter writer;
    ASSERT_TRUE(writer.Open(journal_path, /*append=*/false, &error)) << error;
    for (size_t i = 0; i < kKeep; ++i) {
      ASSERT_TRUE(writer.Append(records[i]));
      journaled[records[i].index] = true;
    }
    writer.Close();
    std::ofstream torn(journal_path, std::ios::app | std::ios::binary);
    torn << "begin " << records[kKeep].index << " DEADBEEF 2\nrow 1,torn\n";  // no end
  }

  for (auto& r : runs) {
    r = 0;
  }
  ShardOptions resume = options;
  resume.resume = true;
  ShardExecutor executor(manifest, resume);
  ASSERT_TRUE(executor.Run(
      [&grid](const ManifestPoint& p) { return CsvRows(grid.cases[p.index]); }, &error))
      << error;

  // Exactly the journal-missing points (including the torn one) re-executed.
  EXPECT_EQ(executor.stats().points_skipped, static_cast<uint64_t>(kKeep));
  EXPECT_EQ(executor.stats().points_done, static_cast<uint64_t>(kSyntheticPoints - kKeep));
  for (int i = 0; i < kSyntheticPoints; ++i) {
    EXPECT_EQ(runs[i].load(), journaled[i] ? 0 : 1) << "point " << i;
  }

  // And the merge is exactly what an uninterrupted run produces.
  const std::string ref_csv = dir + "/reference.csv";
  ASSERT_TRUE(WriteGridCsv(grid, RunGridRows(grid, 1), ref_csv, &error)) << error;
  const std::string merged_csv = dir + "/merged.csv";
  ASSERT_TRUE(MergeShardDir(manifest, dir, 1, merged_csv, &error)) << error;
  EXPECT_EQ(ReadFile(merged_csv), ReadFile(ref_csv));
}

TEST(ResumeTest, EditedPointRecomputesOnlyThatPoint) {
  const std::string dir = ScratchDir("resume_edit");
  std::vector<std::atomic<int>> runs(kSyntheticPoints);
  GridDef grid = SyntheticGrid(&runs);

  std::string error;
  {
    ShardOptions options;
    options.dir = dir;
    ShardExecutor executor(GridManifest(grid), options);
    ASSERT_TRUE(executor.Run(
        [&grid](const ManifestPoint& p) { return CsvRows(grid.cases[p.index]); }, &error))
        << error;
  }

  // "Edit" point 7: its inputs — and therefore its config hash — change, so
  // its journal record is stale; every other record still matches.
  constexpr uint32_t kEdited = 7;
  ConfigHasher h;
  h.Field("synthetic.index", static_cast<uint64_t>(kEdited));
  h.Field("synthetic.version", 2);
  grid.cases[kEdited].point.config_hash = h.hash();
  grid.cases[kEdited].run = [&runs]() -> std::vector<RowCells> {
    ++runs[kEdited];
    return {{"7", "edited"}};
  };

  for (auto& r : runs) {
    r = 0;
  }
  ShardOptions resume;
  resume.dir = dir;
  resume.resume = true;
  const SweepManifest manifest = GridManifest(grid);
  ShardExecutor executor(manifest, resume);
  ASSERT_TRUE(executor.Run(
      [&grid](const ManifestPoint& p) { return CsvRows(grid.cases[p.index]); }, &error))
      << error;

  EXPECT_EQ(executor.stats().points_done, 1u);
  EXPECT_EQ(executor.stats().points_skipped, static_cast<uint64_t>(kSyntheticPoints - 1));
  for (uint32_t i = 0; i < kSyntheticPoints; ++i) {
    EXPECT_EQ(runs[i].load(), i == kEdited ? 1 : 0) << "point " << i;
  }

  // The merged CSV picks up the edited row (the stale record is invisible).
  const std::string merged_csv = dir + "/merged.csv";
  ASSERT_TRUE(MergeShardDir(manifest, dir, 1, merged_csv, &error)) << error;
  const std::string merged = ReadFile(merged_csv);
  EXPECT_NE(merged.find("7,edited"), std::string::npos);
  EXPECT_EQ(merged.find("7,49"), std::string::npos);
}

TEST(ResumeTest, FreshRunWithoutResumeRecomputesEverything) {
  const std::string dir = ScratchDir("resume_off");
  std::vector<std::atomic<int>> runs(kSyntheticPoints);
  const GridDef grid = SyntheticGrid(&runs);
  const SweepManifest manifest = GridManifest(grid);
  std::string error;
  for (int pass = 0; pass < 2; ++pass) {
    ShardOptions options;
    options.dir = dir;
    ShardExecutor executor(manifest, options);
    ASSERT_TRUE(executor.Run(
        [&grid](const ManifestPoint& p) { return CsvRows(grid.cases[p.index]); }, &error))
        << error;
    EXPECT_EQ(executor.stats().points_skipped, 0u) << "pass " << pass;
  }
  for (int i = 0; i < kSyntheticPoints; ++i) {
    EXPECT_EQ(runs[i].load(), 2) << "point " << i;
  }
}

// --- Failure propagation ------------------------------------------------------

TEST(ShardExecutorTest, ThrowingPointFailsShardButJournalsTheRest) {
  const std::string dir = ScratchDir("throwing_point");
  GridDef grid = SyntheticGrid();
  grid.cases[3].run = []() -> std::vector<RowCells> {
    throw std::runtime_error("simulated crash in point 3");
  };
  const SweepManifest manifest = GridManifest(grid);

  ShardOptions options;
  options.dir = dir;
  options.threads = 2;
  std::string error;
  ShardExecutor executor(manifest, options);
  EXPECT_FALSE(executor.Run(
      [&grid](const ManifestPoint& p) { return CsvRows(grid.cases[p.index]); }, &error));
  EXPECT_NE(error.find("point 3"), std::string::npos) << error;
  EXPECT_EQ(executor.stats().points_failed, 1u);
  EXPECT_EQ(executor.stats().points_done, static_cast<uint64_t>(kSyntheticPoints - 1));

  // The failed point has no journal record; a resumed run retries only it.
  const std::vector<JournalRecord> records =
      LoadJournal(ShardJournalPath(dir, manifest.grid, 0, 1));
  EXPECT_EQ(records.size(), static_cast<size_t>(kSyntheticPoints - 1));
  for (const JournalRecord& r : records) {
    EXPECT_NE(r.index, 3u);
  }

  grid.cases[3].run = []() -> std::vector<RowCells> { return {{"3", "9"}}; };
  ShardOptions resume = options;
  resume.resume = true;
  ShardExecutor retry(manifest, resume);
  ASSERT_TRUE(retry.Run(
      [&grid](const ManifestPoint& p) { return CsvRows(grid.cases[p.index]); }, &error))
      << error;
  EXPECT_EQ(retry.stats().points_done, 1u);
  EXPECT_EQ(retry.stats().points_skipped, static_cast<uint64_t>(kSyntheticPoints - 1));
}

TEST(ShardExecutorTest, RejectsOutOfRangeShardIndex) {
  ShardOptions options;
  options.shard_count = 3;
  options.shard_index = 3;
  std::string error;
  ShardExecutor executor(GridManifest(SyntheticGrid()), options);
  EXPECT_FALSE(executor.Run([](const ManifestPoint&) { return std::vector<std::string>{}; },
                            &error));
  EXPECT_FALSE(error.empty());
}

// A shard CSV that cannot be written fails the shard and names the file.
TEST(ShardExecutorTest, ShardCsvWriteFailureFailsTheShard) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  const std::string dir = ScratchDir("shard_csv_full");
  const GridDef grid = SyntheticGrid();
  const SweepManifest manifest = GridManifest(grid);
  const std::string csv = ShardCsvPath(dir, manifest.grid, 0, 1);
  std::filesystem::create_symlink("/dev/full", csv);

  ShardOptions options;
  options.dir = dir;
  std::string error;
  ShardExecutor executor(manifest, options);
  EXPECT_FALSE(executor.Run(
      [&grid](const ManifestPoint& p) { return CsvRows(grid.cases[p.index]); }, &error));
  EXPECT_NE(error.find(csv), std::string::npos) << error;
}

// --- Merge failure modes ------------------------------------------------------

TEST(MergeTest, MissingPointsProduceActionableError) {
  const std::string dir = ScratchDir("merge_missing");
  const GridDef grid = SyntheticGrid();
  const SweepManifest manifest = GridManifest(grid);

  // Run only shard 0 of 2; the merge over both journals must name the gap.
  ShardOptions options;
  options.shard_count = 2;
  options.dir = dir;
  std::string error;
  ShardExecutor executor(manifest, options);
  ASSERT_TRUE(executor.Run(
      [&grid](const ManifestPoint& p) { return CsvRows(grid.cases[p.index]); }, &error))
      << error;

  EXPECT_FALSE(MergeShardDir(manifest, dir, 2, dir + "/merged.csv", &error));
  EXPECT_NE(error.find("merge incomplete"), std::string::npos) << error;
}

TEST(MergeTest, ConflictingRowsForOnePointAreAnError) {
  const std::string dir = ScratchDir("merge_conflict");
  const GridDef grid = SyntheticGrid();
  const SweepManifest manifest = GridManifest(grid);

  std::string error;
  {
    ShardExecutor executor(manifest, [&] {
      ShardOptions o;
      o.dir = dir;
      return o;
    }());
    ASSERT_TRUE(executor.Run(
        [&grid](const ManifestPoint& p) { return CsvRows(grid.cases[p.index]); }, &error))
        << error;
  }

  // A second journal claims a different result for point 1 under the same
  // config hash — a broken "pure function of its inputs" contract.
  const std::string evil_path = dir + "/evil.journal";
  {
    JournalWriter writer;
    ASSERT_TRUE(writer.Open(evil_path, /*append=*/false, &error)) << error;
    JournalRecord record;
    record.index = 1;
    record.config_hash = manifest.points[1].config_hash;
    record.rows = {"1,not what the grid computes"};
    ASSERT_TRUE(writer.Append(record));
  }
  EXPECT_FALSE(MergeJournals(manifest,
                             {ShardJournalPath(dir, manifest.grid, 0, 1), evil_path},
                             dir + "/merged.csv", &error));
  EXPECT_NE(error.find("conflicting"), std::string::npos) << error;
}

// --- Journal framing ----------------------------------------------------------

TEST(JournalTest, EmptyAndMultiRowRecordsRoundTrip) {
  const std::string dir = ScratchDir("journal_roundtrip");
  const std::string path = dir + "/j.journal";
  std::string error;
  {
    JournalWriter writer;
    ASSERT_TRUE(writer.Open(path, /*append=*/false, &error)) << error;
    ASSERT_TRUE(writer.Append({0, 0xAAULL, {}}));  // failed case: zero rows
    ASSERT_TRUE(writer.Append({1, 0xBBULL, {"a,1"}}));
    ASSERT_TRUE(writer.Append({2, 0xCCULL, {"b,2", "", "c,3"}}));  // empty row kept
  }
  const std::vector<JournalRecord> records = LoadJournal(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(records[0].rows.empty());
  EXPECT_EQ(records[1].rows, (std::vector<std::string>{"a,1"}));
  EXPECT_EQ(records[2].rows, (std::vector<std::string>{"b,2", "", "c,3"}));
}

TEST(JournalTest, TruncatedTailIsDroppedNotFatal) {
  const std::string dir = ScratchDir("journal_torn");
  const std::string path = dir + "/j.journal";
  std::string error;
  {
    JournalWriter writer;
    ASSERT_TRUE(writer.Open(path, /*append=*/false, &error)) << error;
    ASSERT_TRUE(writer.Append({0, 0x1ULL, {"a"}}));
  }
  std::ofstream torn(path, std::ios::app | std::ios::binary);
  torn << "begin 1 00000000000000FF 2\nrow b\n";  // killed before `end`
  torn.close();
  const std::vector<JournalRecord> records = LoadJournal(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].index, 0u);
}

TEST(JournalTest, LastCompleteRecordWinsForARepeatedPoint) {
  const std::string dir = ScratchDir("journal_rewrite");
  const std::string path = dir + "/j.journal";
  std::string error;
  {
    JournalWriter writer;
    ASSERT_TRUE(writer.Open(path, /*append=*/false, &error)) << error;
    ASSERT_TRUE(writer.Append({4, 0x1ULL, {"stale"}}));
    ASSERT_TRUE(writer.Append({4, 0x2ULL, {"fresh"}}));
  }
  const std::vector<JournalRecord> records = LoadJournal(path);
  ASSERT_EQ(records.size(), 2u);  // loader returns both; consumers key last-wins
  EXPECT_EQ(records.back().config_hash, 0x2ULL);
  EXPECT_EQ(records.back().rows, (std::vector<std::string>{"fresh"}));
}

TEST(JournalTest, MissingFileIsAFreshShard) {
  EXPECT_TRUE(LoadJournal(testing::TempDir() + "/expsvc_does_not_exist.journal").empty());
}

// --- Telemetry counters -------------------------------------------------------

TEST(TelemetryTest, ShardCountersExposeRunStats) {
  const std::string dir = ScratchDir("counters");
  const GridDef grid = SyntheticGrid();
  ShardOptions options;
  options.dir = dir;
  std::string error;
  ShardExecutor executor(GridManifest(grid), options);
  ASSERT_TRUE(executor.Run(
      [&grid](const ManifestPoint& p) { return CsvRows(grid.cases[p.index]); }, &error))
      << error;

  CounterRegistry registry;
  executor.RegisterCounters(&registry);
  const auto read = [&](const char* name) {
    const int i = registry.Find(name);
    EXPECT_GE(i, 0) << name;
    return i >= 0 ? registry.Read(static_cast<size_t>(i)) : -1.0;
  };
  EXPECT_EQ(read("sweep.points_done"), static_cast<double>(kSyntheticPoints));
  EXPECT_EQ(read("sweep.points_skipped"), 0.0);
  EXPECT_EQ(read("sweep.points_failed"), 0.0);
  EXPECT_GE(read("sweep.shard_wall_ms"), 0.0);
}

// --- Config-hash goldens (satellite 3) ---------------------------------------

struct ConfigHashGolden {
  const char* label;
  uint64_t hash;
};

// Regenerate with `cmake --build build --target regen-goldens` — never by
// hand. A row changing means the canonical serialization of some existing
// field drifted (or a golden case's inputs changed); adding a field to
// ExperimentConfig adds a line to every case's canonical text and therefore
// changes every row, which is exactly the loud failure we want (see
// config_hash.h).
// CONFIG-HASH-GOLDEN-BEGIN
const ConfigHashGolden kConfigHashGoldens[] = {
    {"default", 0x1279C45AD616B6A8ULL},
    {"fattree16-fluid", 0x6550EF28E3678B35ULL},
    {"themis-s-nopfc", 0x43CA0ACAAE9FC0B2ULL},
    {"bounded-flow-table", 0xD52CC044300776D8ULL},
    {"scenario-tor-uplink-flap", 0xB6D4000497DEDC6CULL},
    {"fct-point", 0x0DC3738C83F3E6EDULL},
    {"fig5-point", 0xD3019BF11F47DF00ULL},
    {"ring-loss-point", 0x7ECB72CC7A6493F0ULL},
    {"chaos-point", 0xEA3EB427784F7DA3ULL},
    {"hybrid-point", 0xFA59EA7FF569B2F3ULL},
    {"enum-tokens", 0x6BC34F45255E595FULL},
};
// CONFIG-HASH-GOLDEN-END

TEST(ConfigHashTest, GoldenTablePinsCanonicalSerialization) {
  const std::vector<ConfigHashGoldenCase> cases = ConfigHashGoldenCases();
  ASSERT_EQ(cases.size(), std::size(kConfigHashGoldens));
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].label, kConfigHashGoldens[i].label);
    EXPECT_EQ(cases[i].hash, kConfigHashGoldens[i].hash)
        << cases[i].label << " — regenerate with the regen-goldens target if the "
        << "serialization change is intentional";
  }
}

// The hash ConfigHashGoldenCases() gives the case `label`.
uint64_t GoldenHash(const std::string& label) {
  for (const ConfigHashGoldenCase& c : ConfigHashGoldenCases()) {
    if (c.label == label) {
      return c.hash;
    }
  }
  ADD_FAILURE() << "no golden case " << label;
  return 0;
}

// The fig5-point and ring-loss-point goldens are hashes the builtin grids
// give real points at 8 MiB: a Fig. 5 journal keeps resuming across
// refactors, and the ablations' loss window and label stay pinned.
TEST(ConfigHashTest, CollectiveGoldensAreBuiltinGridPoints) {
  const GridDef fig5 = CollectiveGrid("fig5-allreduce", 8ull << 20);
  EXPECT_EQ(fig5.cases[0].point.name, "Fig5a-Allreduce/ECMP/TI=900us/TD=4us");
  EXPECT_EQ(GoldenHash("fig5-point"), fig5.cases[0].point.config_hash);
  const GridDef ablation = CollectiveGrid("ablation-themis", 8ull << 20);
  EXPECT_EQ(ablation.cases[2].point.name, "Compensation/on/loss");
  EXPECT_EQ(GoldenHash("ring-loss-point"), ablation.cases[2].point.config_hash);
}

// Likewise the chaos-point and hybrid-point goldens pin the first point of
// `chaos` and of `hybrid`, so those grids' journals keep resuming.
TEST(ConfigHashTest, ChaosAndHybridGoldensAreBuiltinGridPoints) {
  std::string error;
  const GridDef chaos = MakeBuiltinGrid("chaos", &error);
  ASSERT_FALSE(chaos.cases.empty()) << error;
  EXPECT_EQ(chaos.cases[0].point.name, "Chaos/leaf-spine/ECMP");
  EXPECT_EQ(GoldenHash("chaos-point"), chaos.cases[0].point.config_hash);
  const GridDef hybrid = MakeBuiltinGrid("hybrid", &error);
  ASSERT_FALSE(hybrid.cases.empty()) << error;
  EXPECT_EQ(hybrid.cases[0].point.name, "Hybrid/validate-2x2x2/bg=0.2");
  EXPECT_EQ(GoldenHash("hybrid-point"), hybrid.cases[0].point.config_hash);
}

// A chaos point's hash covers every fault run's script; a hybrid point's the
// background workload and the calibration period.
TEST(ConfigHashTest, ChaosAndHybridPointHashesCoverEveryRun) {
  const ExperimentConfig config;
  const WorkloadSpec workload;
  std::vector<ChaosFaultRun> faults(2);
  faults[0].label = "flap";
  ASSERT_TRUE(ScenarioPreset("tor-uplink-flap", &faults[0].script));
  faults[1].label = "gray";
  ASSERT_TRUE(ScenarioPreset("gray-spine", &faults[1].script));
  const uint64_t chaos = ChaosPointHash(config, workload, "websearch", kSecond, faults);
  EXPECT_EQ(ChaosPointHash(config, workload, "websearch", kSecond, faults), chaos);
  std::vector<ChaosFaultRun> edited = faults;
  edited[1].script.events[0].at += kMicrosecond;
  EXPECT_NE(ChaosPointHash(config, workload, "websearch", kSecond, edited), chaos);
  edited = faults;
  edited[0].label = "reboot";
  EXPECT_NE(ChaosPointHash(config, workload, "websearch", kSecond, edited), chaos);
  edited.pop_back();
  EXPECT_NE(ChaosPointHash(config, workload, "websearch", kSecond, edited), chaos);

  WorkloadSpec background = workload;
  background.seed = 99;
  const uint64_t hybrid =
      HybridPointHash(config, workload, "small", kSecond, background, 5 * kMicrosecond);
  EXPECT_EQ(HybridPointHash(config, workload, "small", kSecond, background, 5 * kMicrosecond),
            hybrid);
  WorkloadSpec heavier = background;
  heavier.load += 0.2;
  EXPECT_NE(HybridPointHash(config, workload, "small", kSecond, heavier, 5 * kMicrosecond),
            hybrid);
  WorkloadSpec reseeded = background;
  reseeded.seed = 100;
  EXPECT_NE(HybridPointHash(config, workload, "small", kSecond, reseeded, 5 * kMicrosecond),
            hybrid);
  EXPECT_NE(HybridPointHash(config, workload, "small", kSecond, background, 10 * kMicrosecond),
            hybrid);
}

TEST(ConfigHashTest, CollectivePointHashSeparatesGroupsDeadlineAndLossWindow) {
  const ExperimentConfig config;
  CollectiveRun run;
  run.kind = CollectiveKind::kNeighborRing;
  run.bytes = 1 << 20;
  run.groups = {{0, 4, 1, 5}, {2, 6, 3, 7}};
  run.deadline = kSecond;
  const uint64_t base = CollectivePointHash(config, run, "");
  EXPECT_EQ(CollectivePointHash(config, run, ""), base);
  EXPECT_NE(CollectivePointHash(config, run, "variant"), base);

  // Whether editing `from` with `edit` moves the hash.
  const auto moves = [&config](const CollectiveRun& from, const auto& edit) {
    CollectiveRun to = from;
    edit(to);
    return CollectivePointHash(config, to, "") != CollectivePointHash(config, from, "");
  };
  EXPECT_TRUE(moves(run, [](CollectiveRun& r) { r.groups[1] = {2, 7, 3, 6}; }));
  EXPECT_TRUE(moves(run, [](CollectiveRun& r) { r.groups.pop_back(); }));
  EXPECT_TRUE(moves(run, [](CollectiveRun& r) {
    r.groups.clear();
    r.cross_rack_groups = 2;
  }));
  EXPECT_TRUE(moves(run, [](CollectiveRun& r) { r.deadline *= 2; }));
  EXPECT_TRUE(moves(run, [](CollectiveRun& r) { r.with_loss = true; }));
}

TEST(ConfigHashTest, FctPointHashSeparatesWorkloadCdfAndDeadline) {
  const ExperimentConfig config;
  WorkloadSpec workload;
  const uint64_t base = FctPointHash(config, workload, "websearch", kSecond);
  EXPECT_EQ(FctPointHash(config, workload, "websearch", kSecond), base);
  EXPECT_NE(FctPointHash(config, workload, "alistorage", kSecond), base);
  EXPECT_NE(FctPointHash(config, workload, "websearch", 2 * kSecond), base);
  WorkloadSpec other = workload;
  other.load += 0.1;
  EXPECT_NE(FctPointHash(config, other, "websearch", kSecond), base);
}

TEST(ConfigHashTest, CanonicalTextIsLineOriented) {
  ConfigHasher h;
  h.Field("a", 1);
  h.Field("b", true);
  h.Field("c", 0.5);
  h.Field("d", "text");
  EXPECT_EQ(h.canonical_text(), "a=1\nb=1\nc=0.5\nd=text\n");
}

// The builtin grids must give every point a distinct hash — resume and merge
// key on (index, hash), and a duplicated hash across indices would let a
// misassembled journal pass verification.
TEST(ConfigHashTest, BuiltinGridPointHashesAreDistinct) {
  for (const std::string& name : BuiltinGridNames()) {
    std::string error;
    const GridDef grid = MakeBuiltinGrid(name, &error);
    ASSERT_FALSE(grid.cases.empty()) << error;
    std::vector<uint64_t> hashes;
    for (const GridCase& c : grid.cases) {
      hashes.push_back(c.point.config_hash);
    }
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end())
        << "duplicate config hash in grid " << name;
  }
}

}  // namespace
}  // namespace themis
