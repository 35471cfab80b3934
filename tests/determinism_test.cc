// Seed → trace-hash determinism regression tests.
//
// The trace hash digests every observable statistic of a small experiment
// (per-QP counters, per-spine byte counts, drops, PFC pauses, completion
// times) into one FNV-1a value. The golden constants below were captured on
// the seed engine (single binary heap, std::function events) BEFORE the
// multi-tier refactors; the current engine must reproduce them bit-for-bit.
// This is the refactors' core invariant: the timer wheel, the calendar
// queue, the inline callbacks, and the wheel-backed Timer/PeriodicTimer
// must be invisible in the event order.
//
// SweepRunner determinism is pinned the same way: a sweep's results must be
// byte-identical whether it runs on 1 worker or many.

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/core/sweep_runner.h"
#include "src/core/trace_digest.h"
#include "src/telemetry/telemetry.h"

namespace themis {
namespace {

// FnvMix / DigestExperiment / DeterminismConfig live in
// src/core/trace_digest.h, shared with tools/golden_hashes.cc so the
// `regen-goldens` target regenerates the table below mechanically.

// `traced`: attach a full Telemetry bundle (trace sink + counter sampling)
// for the whole run. Telemetry is pure observation, so the digest must be
// bit-identical either way.
uint64_t TraceHash(Scheme scheme, uint64_t seed, bool traced = false,
                   uint64_t* calendar_scheduled_out = nullptr, bool pfc = true,
                   bool burst = true) {
  Experiment exp(DeterminismConfig(scheme, seed, pfc));
  exp.sim().set_burst_enabled(burst);
  std::unique_ptr<Telemetry> telemetry;
  if (traced) {
    telemetry = std::make_unique<Telemetry>(&exp.sim());
    exp.AttachTelemetry(telemetry.get());
    telemetry->StartSampling();
  }
  auto result = exp.RunCollective(CollectiveKind::kAllreduce, exp.MakeCrossRackGroups(2),
                                  1 << 20, 10 * kSecond);
  if (telemetry != nullptr) {
    telemetry->StopSampling();
  }
  if (calendar_scheduled_out != nullptr) {
    *calendar_scheduled_out = exp.sim().queue().calendar_scheduled();
  }
  uint64_t h = DigestExperiment(exp);
  h = FnvMix(h, result.all_done ? 1 : 0);
  h = FnvMix(h, static_cast<uint64_t>(result.tail_completion));
  return h;
}

struct Golden {
  Scheme scheme;
  uint64_t seed;
  bool pfc;
  uint64_t hash;
};

// PFC rows captured on the pre-refactor seed engine (commit ae2f4b5 tree).
// Regenerate with `cmake --build build --target regen-goldens` — never by
// hand.  The non-PFC Themis rows pin that pause-aware logic (the Themis-D
// grace window) is inert when no pause ever happens.
// GOLDEN-TABLE-BEGIN
const Golden kGoldens[] = {
    {Scheme::kEcmp, 1, true, 0x481B974E05BFEAEDULL},
    {Scheme::kEcmp, 2, true, 0x481B974E05BFEAEDULL},
    {Scheme::kAdaptiveRouting, 1, true, 0x8C79B1663DE3E1BAULL},
    {Scheme::kAdaptiveRouting, 2, true, 0x8F6510D58A38DBA0ULL},
    {Scheme::kThemis, 1, true, 0x71D337633D87729FULL},
    {Scheme::kThemis, 2, true, 0x71D337633D87729FULL},
    {Scheme::kRandomSpray, 1, true, 0xEEFDDECD52C4665CULL},
    {Scheme::kRandomSpray, 2, true, 0xDD3C1BDE8020F590ULL},
    {Scheme::kThemis, 1, false, 0x71D337633D87729FULL},
    {Scheme::kThemis, 2, false, 0x71D337633D87729FULL},
};
// GOLDEN-TABLE-END

TEST(DeterminismTest, TraceHashesMatchSeedEngineGoldens) {
  for (const Golden& g : kGoldens) {
    EXPECT_EQ(TraceHash(g.scheme, g.seed, /*traced=*/false, nullptr, g.pfc), g.hash)
        << SchemeName(g.scheme) << " seed=" << g.seed << " pfc=" << g.pfc;
  }
}

TEST(DeterminismTest, CalendarTierCarriesHotPathAndStaysInvisible) {
  // The goldens were captured on a heap-only engine. This run must (a) put
  // the bulk of its events on the calendar tier — i.e. the fast path is
  // actually live, not silently overflowing to the heap — and (b) still
  // reproduce every golden bit-for-bit.
  for (const Golden& g : kGoldens) {
    uint64_t calendar_scheduled = 0;
    EXPECT_EQ(TraceHash(g.scheme, g.seed, /*traced=*/false, &calendar_scheduled), g.hash)
        << SchemeName(g.scheme) << " seed=" << g.seed;
    EXPECT_GT(calendar_scheduled, 0u) << SchemeName(g.scheme) << " seed=" << g.seed;
  }
}

TEST(DeterminismTest, ScalarFallbackReproducesGoldens) {
  // Burst mode off must be bit-identical to burst mode: the same-tick drain
  // batches the pops of a tick's tagged events, it never reorders them. This
  // pins the drain against the one-event-at-a-time reference at
  // full-system scale.
  for (const Golden& g : kGoldens) {
    EXPECT_EQ(TraceHash(g.scheme, g.seed, /*traced=*/false, nullptr, g.pfc,
                        /*burst=*/false),
              g.hash)
        << SchemeName(g.scheme) << " seed=" << g.seed << " (scalar fallback)";
  }
}

TEST(DeterminismTest, TrafficModelOffLeavesEveryGoldenUnchanged) {
  // The hybrid-fidelity hooks (effective-depth ECN, Q16 slot stealing,
  // epoch engine) must be invisible with no model attached: kNone builds no
  // engine, schedules no events, and leaves exo_bytes == 0 on every port,
  // so the WRED comparisons and RNG draw sequence are bit-identical to the
  // pre-traffic engine. Every golden must hold with the knob set explicitly.
  for (const Golden& g : kGoldens) {
    ExperimentConfig config = DeterminismConfig(g.scheme, g.seed, g.pfc);
    config.traffic_model = TrafficModelKind::kNone;
    Experiment exp(config);
    EXPECT_EQ(exp.traffic(), nullptr);
    auto result = exp.RunCollective(CollectiveKind::kAllreduce,
                                    exp.MakeCrossRackGroups(2), 1 << 20, 10 * kSecond);
    uint64_t h = DigestExperiment(exp);
    h = FnvMix(h, result.all_done ? 1 : 0);
    h = FnvMix(h, static_cast<uint64_t>(result.tail_completion));
    EXPECT_EQ(h, g.hash) << SchemeName(g.scheme) << " seed=" << g.seed
                         << " (traffic model off)";
  }
}

TEST(DeterminismTest, FluidBackgroundActuallyPerturbsTheRun) {
  // Complement of the model-off golden: with a fluid model attached the
  // digest must *differ* — pinning that the engine is live, not a no-op.
  const Golden& g = kGoldens[0];
  ExperimentConfig config = DeterminismConfig(g.scheme, g.seed, g.pfc);
  config.traffic_model = TrafficModelKind::kFluid;
  config.background_load = 0.5;
  Experiment exp(config);
  ASSERT_NE(exp.traffic(), nullptr);
  auto result = exp.RunCollective(CollectiveKind::kAllreduce, exp.MakeCrossRackGroups(2),
                                  1 << 20, 10 * kSecond);
  uint64_t h = DigestExperiment(exp);
  h = FnvMix(h, result.all_done ? 1 : 0);
  h = FnvMix(h, static_cast<uint64_t>(result.tail_completion));
  EXPECT_NE(h, g.hash);
}

TEST(DeterminismTest, ScenarioOffLeavesEveryGoldenUnchanged) {
  // The chaos engine must be bit-exactly absent when no scenario is
  // configured: an empty script builds no engine, arms no timers, and leaves
  // the delivery hot path untouched (gray_ == nullptr, degrade_q16_ == 0 on
  // every port), so the event and RNG sequences are identical to a
  // pre-scenario build. Every golden must hold with the knob set explicitly.
  for (const Golden& g : kGoldens) {
    ExperimentConfig config = DeterminismConfig(g.scheme, g.seed, g.pfc);
    config.scenario = ScenarioScript{};
    Experiment exp(config);
    EXPECT_EQ(exp.scenario(), nullptr);
    auto result = exp.RunCollective(CollectiveKind::kAllreduce,
                                    exp.MakeCrossRackGroups(2), 1 << 20, 10 * kSecond);
    uint64_t h = DigestExperiment(exp);
    h = FnvMix(h, result.all_done ? 1 : 0);
    h = FnvMix(h, static_cast<uint64_t>(result.tail_completion));
    EXPECT_EQ(h, g.hash) << SchemeName(g.scheme) << " seed=" << g.seed
                         << " (scenario off)";
  }
}

// Fixed-seed campaign golden: the whole chaos pipeline — event scheduling,
// per-port gray streams, down-time draws, recovery arithmetic — reproduces
// this trace hash bit-for-bit (campaign defined by ScenarioCampaignScript()
// in trace_digest.h). Regenerated by the regen-goldens target alongside the
// main table.
// SCENARIO-GOLDEN-BEGIN
constexpr uint64_t kScenarioCampaignGolden = 0xF8C8E412C36D9813ULL;
// SCENARIO-GOLDEN-END

TEST(DeterminismTest, ScenarioCampaignReproducesPinnedGolden) {
  EXPECT_EQ(ScenarioCampaignHash(), kScenarioCampaignGolden);
}

// Fat-tree goldens: the k=4 run of FatTreeDeterminismConfig() in
// trace_digest.h, in both spray modes, without and with its pod0-edge0:up0
// flap. They pin the route tables and the failed-candidate filter at the
// edge, aggregation and core tiers, which the 2x2x2 goldens never reach. The
// kSportRewrite rows are the only goldens that run Themis-S, so they pin a
// hook that rewrites the packet ahead of the LB choice. Regenerated by the
// regen-goldens target alongside the main table.
struct FatTreeGolden {
  SprayMode spray_mode;
  bool flap;
  uint64_t hash;
};

// FAT-TREE-GOLDEN-BEGIN
const FatTreeGolden kFatTreeGoldens[] = {
    {SprayMode::kTorEgress, false, 0x6A19A0D5F7AC068FULL},
    {SprayMode::kTorEgress, true, 0x4EC0ECA0B16B2092ULL},
    {SprayMode::kSportRewrite, false, 0xADC9E18C00EA5D6DULL},
    {SprayMode::kSportRewrite, true, 0xF719A915D2B683DDULL},
};
// FAT-TREE-GOLDEN-END

TEST(DeterminismTest, FatTreeRunsReproducePinnedGoldens) {
  for (const FatTreeGolden& g : kFatTreeGoldens) {
    for (const bool burst : {true, false}) {
      EXPECT_EQ(FatTreeTraceHash(g.spray_mode, g.flap, burst), g.hash)
          << "sport_rewrite=" << (g.spray_mode == SprayMode::kSportRewrite)
          << " flap=" << g.flap << " burst=" << burst;
    }
  }
  // Every row is distinct: the flap and the spray mode are both live.
  for (size_t i = 0; i < std::size(kFatTreeGoldens); ++i) {
    for (size_t j = i + 1; j < std::size(kFatTreeGoldens); ++j) {
      EXPECT_NE(kFatTreeGoldens[i].hash, kFatTreeGoldens[j].hash) << i << " vs " << j;
    }
  }
}

TEST(DeterminismTest, ScenarioCampaignActuallyPerturbsTheRun) {
  // Complement of the scenario-off golden: with a campaign injected the
  // digest must *differ* from the clean golden — faults are live, not no-ops.
  const Golden* themis_golden = nullptr;
  for (const Golden& g : kGoldens) {
    if (g.scheme == Scheme::kThemis && g.seed == 1 && g.pfc) {
      themis_golden = &g;
    }
  }
  ASSERT_NE(themis_golden, nullptr);
  ExperimentConfig config = DeterminismConfig(Scheme::kThemis, 1);
  // An early flap: the clean 1 MB golden run ends near 104 us, so the fault
  // must land well inside that to provably perturb the digest.
  std::string error;
  ASSERT_TRUE(ParseScenario("seed 7\nsample-period 20us\n"
                            "flap target=tor0:up0 at=30us down=50us\n",
                            &config.scenario, &error))
      << error;
  Experiment exp(config);
  ASSERT_NE(exp.scenario(), nullptr);
  auto result = exp.RunCollective(CollectiveKind::kAllreduce, exp.MakeCrossRackGroups(2),
                                  1 << 20, 10 * kSecond);
  uint64_t h = DigestExperiment(exp);
  h = FnvMix(h, result.all_done ? 1 : 0);
  h = FnvMix(h, static_cast<uint64_t>(result.tail_completion));
  EXPECT_NE(h, themis_golden->hash);
  EXPECT_GT(exp.scenario()->stats().faults_applied, 0u);
}

TEST(DeterminismTest, TelemetryAttachmentIsInvisibleInTraceHashes) {
  // The sampler schedules periodic timer events and the sink records every
  // hot-path event; neither may perturb the model. Goldens must still hold.
  for (const Golden& g : kGoldens) {
    EXPECT_EQ(TraceHash(g.scheme, g.seed, /*traced=*/true), g.hash)
        << SchemeName(g.scheme) << " seed=" << g.seed << " (traced)";
  }
}

// Export golden: FNV-1a over the exported bytes (Chrome trace + counters CSV,
// ExportStream() in trace_digest.h). It pins every byte both exporters
// write, so a rewrite of the sample store or the formatters must reproduce
// the old files exactly. Regenerated by the regen-goldens target alongside
// the main table (from a THEMIS_TRACE=ON build).
struct ExportGolden {
  Scheme scheme;
  uint64_t seed;
  uint64_t hash;
};

// EXPORT-GOLDEN-BEGIN
const ExportGolden kExportGoldens[] = {
    {Scheme::kThemis, 1, 0xF743C022D4190149ULL},
    {Scheme::kRandomSpray, 1, 0xACEA77DD78810607ULL},
};
// EXPORT-GOLDEN-END

TEST(DeterminismTest, ExportedBytesMatchPinnedGolden) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "built with THEMIS_TRACE=OFF; the trace export is empty";
  }
  for (const ExportGolden& g : kExportGoldens) {
    EXPECT_EQ(FnvBytes(ExportStream(g.scheme, g.seed)), g.hash)
        << SchemeName(g.scheme) << " seed=" << g.seed;
  }
}

// The serialized trace-event stream (not just the sim-state digest) must be
// byte-identical regardless of sweep parallelism.
TEST(DeterminismTest, TraceStreamsIndependentOfThreadCount) {
  struct Point {
    Scheme scheme;
    uint64_t seed;
  };
  const std::vector<Point> points = {
      {Scheme::kThemis, 1},
      {Scheme::kRandomSpray, 1},
      {Scheme::kThemis, 2},
  };
  auto run_point = [](const Point& p) { return ExportStream(p.scheme, p.seed); };
  const auto serial = SweepRunner(1).Map(points, run_point);
  const auto parallel = SweepRunner(4).Map(points, run_point);
  ASSERT_EQ(serial.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "case " << i;
  }
  EXPECT_GT(serial[0].size(), 0u);
}

TEST(DeterminismTest, SweepResultsIndependentOfThreadCount) {
  struct Point {
    Scheme scheme;
    uint64_t seed;
  };
  const std::vector<Point> points = {
      {Scheme::kRandomSpray, 1},
      {Scheme::kThemis, 1},
      {Scheme::kRandomSpray, 2},
      {Scheme::kEcmp, 3},
  };
  auto run_point = [](const Point& p) { return TraceHash(p.scheme, p.seed); };
  const auto serial = SweepRunner(1).Map(points, run_point);
  const auto parallel = SweepRunner(4).Map(points, run_point);
  ASSERT_EQ(serial.size(), points.size());
  EXPECT_EQ(serial, parallel);
}

// --- SweepRunner mechanics (cheap, no simulations) ---------------------------

TEST(SweepRunnerTest, MapPreservesInputOrder) {
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) {
    items[static_cast<size_t>(i)] = i;
  }
  const auto doubled = SweepRunner(8).Map(items, [](const int& x) { return 2 * x; });
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(doubled[static_cast<size_t>(i)], 2 * i);
  }
}

TEST(SweepRunnerTest, RunIndexedCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(257);
  SweepRunner(6).RunIndexed(visits.size(), [&visits](size_t i) { ++visits[i]; });
  for (const auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(SweepRunnerTest, WorkerExceptionPropagatesToCaller) {
  EXPECT_THROW(SweepRunner(4).RunIndexed(64,
                                         [](size_t i) {
                                           if (i == 13) {
                                             throw std::runtime_error("boom");
                                           }
                                         }),
               std::runtime_error);
}

TEST(SweepRunnerTest, ThreadCountResolution) {
  EXPECT_EQ(SweepRunner(3).threads(), 3);
  EXPECT_GE(SweepRunner(0).threads(), 1);  // auto: env var or hardware
}

}  // namespace
}  // namespace themis
