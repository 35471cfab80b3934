// Prints the determinism golden table (tests/determinism_test.cc) for the
// current engine, one C++ initializer row per line, followed by the scenario,
// fat-tree, export and config-hash goldens. tools/regen_goldens.py splices each section
// between its markers and shows the diff, so behaviour-shifting PRs
// regenerate goldens mechanically instead of hand-editing hex constants.

#include <cstdio>

#include "src/core/trace_digest.h"
#include "src/experiment_service/config_hash.h"

namespace themis {
namespace {

constexpr const char* SchemeToken(Scheme scheme) {
  switch (scheme) {
    case Scheme::kEcmp:
      return "Scheme::kEcmp";
    case Scheme::kAdaptiveRouting:
      return "Scheme::kAdaptiveRouting";
    case Scheme::kThemis:
      return "Scheme::kThemis";
    case Scheme::kRandomSpray:
      return "Scheme::kRandomSpray";
    case Scheme::kFlowlet:
      return "Scheme::kFlowlet";
    case Scheme::kSprayReorder:
      return "Scheme::kSprayReorder";
  }
  return "?";
}

int Main() {
  // Keep this list in lockstep with the golden table's row set: the script
  // replaces the whole table with exactly these rows.
  struct Row {
    Scheme scheme;
    uint64_t seed;
    bool pfc;
  };
  constexpr Row kRows[] = {
      {Scheme::kEcmp, 1, true},
      {Scheme::kEcmp, 2, true},
      {Scheme::kAdaptiveRouting, 1, true},
      {Scheme::kAdaptiveRouting, 2, true},
      {Scheme::kThemis, 1, true},
      {Scheme::kThemis, 2, true},
      {Scheme::kRandomSpray, 1, true},
      {Scheme::kRandomSpray, 2, true},
      // Non-PFC pins: no pause ever happens, so pause-aware mechanisms
      // (Themis-D grace window) must be provably inert here.
      {Scheme::kThemis, 1, false},
      {Scheme::kThemis, 2, false},
  };
  std::printf("const Golden kGoldens[] = {\n");
  for (const Row& row : kRows) {
    const uint64_t hash = GoldenTraceHash(row.scheme, row.seed, row.pfc);
    std::printf("    {%s, %llu, %s, 0x%016llXULL},\n", SchemeToken(row.scheme),
                static_cast<unsigned long long>(row.seed), row.pfc ? "true" : "false",
                static_cast<unsigned long long>(hash));
    std::fflush(stdout);
  }
  std::printf("};\n");
  // The scenario campaign golden (spliced between the SCENARIO-GOLDEN
  // markers) pins the chaos engine's full pipeline on the same fabric.
  std::printf("constexpr uint64_t kScenarioCampaignGolden = 0x%016llXULL;\n",
              static_cast<unsigned long long>(ScenarioCampaignHash()));
  // Fat-tree goldens (FAT-TREE-GOLDEN markers): the k=4 run in each spray
  // mode, without and with the edge-uplink flap.
  std::printf("const FatTreeGolden kFatTreeGoldens[] = {\n");
  for (const SprayMode mode : {SprayMode::kTorEgress, SprayMode::kSportRewrite}) {
    for (const bool flap : {false, true}) {
      std::printf("    {%s, %s, 0x%016llXULL},\n",
                  mode == SprayMode::kTorEgress ? "SprayMode::kTorEgress"
                                                : "SprayMode::kSportRewrite",
                  flap ? "true" : "false",
                  static_cast<unsigned long long>(FatTreeTraceHash(mode, flap)));
      std::fflush(stdout);
    }
  }
  std::printf("};\n");
  // Export goldens (EXPORT-GOLDEN markers): FNV-1a over both exporters'
  // bytes for the canonical run with telemetry attached.
  constexpr struct {
    Scheme scheme;
    uint64_t seed;
  } kExportRows[] = {{Scheme::kThemis, 1}, {Scheme::kRandomSpray, 1}};
  std::printf("const ExportGolden kExportGoldens[] = {\n");
  for (const auto& row : kExportRows) {
    std::printf("    {%s, %llu, 0x%016llXULL},\n", SchemeToken(row.scheme),
                static_cast<unsigned long long>(row.seed),
                static_cast<unsigned long long>(FnvBytes(ExportStream(row.scheme, row.seed))));
    std::fflush(stdout);
  }
  std::printf("};\n");
  // Config-hash goldens (experiment_service_test.cc, CONFIG-HASH-GOLDEN
  // markers): pin the canonical serialization that keys sweep manifests,
  // shard journals, and resume.
  std::printf("const ConfigHashGolden kConfigHashGoldens[] = {\n");
  for (const ConfigHashGoldenCase& c : ConfigHashGoldenCases()) {
    std::printf("    {\"%s\", 0x%016llXULL},\n", c.label.c_str(),
                static_cast<unsigned long long>(c.hash));
  }
  std::printf("};\n");
  return 0;
}

}  // namespace
}  // namespace themis

int main() { return themis::Main(); }
