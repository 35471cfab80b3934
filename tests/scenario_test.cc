// Unit + integration tests for the chaos engine (src/scenario): script
// parsing and validation, preset/example-file sync, target resolution
// against a real topology, RecoveryTracker arithmetic (driven with
// hand-written probe sequences and a null Simulator), campaign determinism
// across sweep thread counts, fault interactions with PFC pause state, and
// the link-restore transmit-kick regression.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/sweep_runner.h"
#include "src/core/trace_digest.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/net/port.h"
#include "src/scenario/recovery_tracker.h"
#include "src/scenario/scenario_engine.h"
#include "src/scenario/scenario_script.h"

namespace themis {
namespace {

// --- Script parsing ----------------------------------------------------------

TEST(ScenarioScriptTest, ParsesFullGrammar) {
  ScenarioScript script;
  std::string error;
  ASSERT_TRUE(ParseScenario(
      "# a comment\n"
      "seed 7\n"
      "sample-period 10us\n"
      "restore-fraction 0.8\n"
      "flap target=tor0:up0 at=2ms down=100us repeat=3 period=500us\n"
      "reboot target=spine1 at=5ms down=1ms\n"
      "gray target=spine0:* at=1ms duration=8ms drop=1e-4 corrupt=2e-4\n"
      "degrade target=tor1:up1 at=1ms duration=3ms factor=0.25\n",
      &script, &error))
      << error;
  EXPECT_EQ(script.seed, 7u);
  EXPECT_EQ(script.sample_period, 10 * kMicrosecond);
  EXPECT_DOUBLE_EQ(script.restore_fraction, 0.8);
  ASSERT_EQ(script.events.size(), 4u);

  const ScenarioEvent& flap = script.events[0];
  EXPECT_EQ(flap.kind, FaultKind::kLinkFlap);
  EXPECT_EQ(flap.target, "tor0:up0");
  EXPECT_EQ(flap.at, 2 * kMillisecond);
  EXPECT_EQ(flap.repeat, 3);
  EXPECT_EQ(flap.period, 500 * kMicrosecond);
  EXPECT_EQ(flap.down.dist, DownTimeSpec::Dist::kFixed);
  EXPECT_EQ(flap.down.a, 100 * kMicrosecond);

  const ScenarioEvent& reboot = script.events[1];
  EXPECT_EQ(reboot.kind, FaultKind::kSwitchReboot);
  EXPECT_EQ(reboot.target, "spine1");
  EXPECT_EQ(reboot.down.a, 1 * kMillisecond);

  const ScenarioEvent& gray = script.events[2];
  EXPECT_EQ(gray.kind, FaultKind::kGrayFailure);
  EXPECT_EQ(gray.duration, 8 * kMillisecond);
  EXPECT_DOUBLE_EQ(gray.drop_prob, 1e-4);
  EXPECT_DOUBLE_EQ(gray.corrupt_prob, 2e-4);

  const ScenarioEvent& degrade = script.events[3];
  EXPECT_EQ(degrade.kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(degrade.duration, 3 * kMillisecond);
  EXPECT_DOUBLE_EQ(degrade.factor, 0.25);
}

TEST(ScenarioScriptTest, ParsesDownTimeDistributions) {
  ScenarioScript script;
  std::string error;
  ASSERT_TRUE(ParseScenario(
      "flap target=a at=1us down=uniform:50us:150us\n"
      "flap target=b at=1us down=exp:100us\n",
      &script, &error))
      << error;
  EXPECT_EQ(script.events[0].down.dist, DownTimeSpec::Dist::kUniform);
  EXPECT_EQ(script.events[0].down.a, 50 * kMicrosecond);
  EXPECT_EQ(script.events[0].down.b, 150 * kMicrosecond);
  EXPECT_EQ(script.events[1].down.dist, DownTimeSpec::Dist::kExponential);
  EXPECT_EQ(script.events[1].down.a, 100 * kMicrosecond);
}

TEST(ScenarioScriptTest, ErrorsCarryLineNumbers) {
  ScenarioScript script;
  std::string error;
  EXPECT_FALSE(ParseScenario("seed 1\nbogus-directive foo\n", &script, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(ScenarioScriptTest, ValidationRejectsMalformedEvents) {
  ScenarioScript script;
  std::string error;
  // repeat > 1 without a period is ambiguous.
  EXPECT_FALSE(
      ParseScenario("flap target=a at=1us down=1us repeat=2\n", &script, &error));
  // flap/reboot need a down-time.
  EXPECT_FALSE(ParseScenario("flap target=a at=1us\n", &script, &error));
  EXPECT_FALSE(ParseScenario("reboot target=a at=1us\n", &script, &error));
  // gray needs a window and in-range probabilities.
  EXPECT_FALSE(ParseScenario("gray target=a at=1us drop=1e-3 corrupt=1e-3\n",
                             &script, &error));
  EXPECT_FALSE(ParseScenario(
      "gray target=a at=1us duration=1ms drop=1.5 corrupt=1e-3\n", &script, &error));
  // degrade factor must be in (0, 1) — 1.0 is "no fault", 0 is "down".
  EXPECT_FALSE(ParseScenario("degrade target=a at=1us duration=1ms factor=1.5\n",
                             &script, &error));
  EXPECT_FALSE(ParseScenario("degrade target=a at=1us duration=1ms factor=0\n",
                             &script, &error));
  // Times need a unit suffix.
  EXPECT_FALSE(ParseScenario("flap target=a at=100 down=1us\n", &script, &error));
  // One script schedules at most kMaxScenarioOccurrences occurrences.
  EXPECT_FALSE(ParseScenario("flap target=a at=1us down=1us repeat=40000 period=1us\n"
                             "flap target=b at=1us down=1us repeat=40000 period=1us\n",
                             &script, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// A script filled in field by field (the config table's --set scenario.*)
// gets the parser's range checks through ValidateScenario.
TEST(ScenarioScriptTest, ValidateScenarioAppliesTheParserChecks) {
  std::string error;
  for (const std::string& name : ScenarioPresetNames()) {
    ScenarioScript preset;
    ASSERT_TRUE(ScenarioPreset(name, &preset));
    EXPECT_TRUE(ValidateScenario(preset, &error)) << name << ": " << error;
  }
  ScenarioScript script;
  ASSERT_TRUE(ScenarioPreset("tor-uplink-flap", &script));
  const ScenarioScript valid = script;

  script.sample_period = 0;  // would rearm the recovery probe forever
  EXPECT_FALSE(ValidateScenario(script, &error));
  EXPECT_EQ(error.rfind("scenario: ", 0), 0u) << error;

  script = valid;
  script.events.emplace_back();  // no target: the engine could not resolve it
  EXPECT_FALSE(ValidateScenario(script, &error));
  EXPECT_EQ(error, "scenario.event1: missing target");

  script = valid;
  script.events[0].repeat = 2'000'000'000;  // would allocate 2e9 occurrences
  EXPECT_FALSE(ValidateScenario(script, &error));
  EXPECT_EQ(error.rfind("scenario.event0: ", 0), 0u) << error;
  script.events[0].repeat = static_cast<int>(kMaxScenarioOccurrences);
  EXPECT_TRUE(ValidateScenario(script, &error)) << error;

  script = valid;
  script.events[0].at = -1;
  EXPECT_FALSE(ValidateScenario(script, &error));
}

// Every occurrence must clear by kMaxScenarioTime at its longest down-time,
// a bound computed without overflow, so ScenarioEngine::Start's schedule
// arithmetic stays in range.
TEST(ScenarioScriptTest, ValidationBoundsTheLastClearTime) {
  ScenarioScript script;
  std::string error;
  // Near the int64 limit: at + down used to wrap in the engine.
  EXPECT_FALSE(ParseScenario("flap target=a at=9223372036854775000ps down=1us\n", &script,
                             &error));
  EXPECT_NE(error.find("within an hour"), std::string::npos) << error;
  // Clearing exactly at the cap is fine; one picosecond later is not.
  EXPECT_TRUE(ParseScenario("flap target=a at=3599s down=1s\n", &script, &error)) << error;
  EXPECT_FALSE(ParseScenario("flap target=a at=3599s down=1000000000001ps\n", &script, &error));
  // (repeat - 1) * period overflows int64 here.
  EXPECT_FALSE(ParseScenario(
      "flap target=a at=0ps down=1us repeat=3 period=4611686018427387904ps\n", &script, &error));
  EXPECT_FALSE(ParseScenario("flap target=a at=1us down=uniform:1us:3601s\n", &script, &error));
  EXPECT_FALSE(ParseScenario("gray target=a at=1s duration=3600s drop=1e-3\n", &script, &error));
  // An exponential draw stays below 37 means (1 - u >= 2^-53 for u from
  // Rng::NextDouble), and that must fit too.
  EXPECT_LT(-std::log(0x1.0p-53), 37.0);
  EXPECT_TRUE(ParseScenario("flap target=a at=0ps down=exp:97s\n", &script, &error)) << error;
  EXPECT_FALSE(ParseScenario("flap target=a at=0ps down=exp:98s\n", &script, &error));

  // The --set path: the preset with a hostile first occurrence.
  ASSERT_TRUE(ScenarioPreset("tor-uplink-flap", &script));
  script.events[0].at = 9223372036854775000;
  EXPECT_FALSE(ValidateScenario(script, &error));
  EXPECT_EQ(error.rfind("scenario.event0: ", 0), 0u) << error;
}

TEST(ScenarioScriptTest, DownTimeDrawsAreSeededAndInRange) {
  DownTimeSpec fixed{DownTimeSpec::Dist::kFixed, 100 * kMicrosecond, 0};
  Rng rng(7);
  EXPECT_EQ(fixed.Draw(rng), 100 * kMicrosecond);

  DownTimeSpec uniform{DownTimeSpec::Dist::kUniform, 50 * kMicrosecond,
                       150 * kMicrosecond};
  Rng u1(42);
  Rng u2(42);
  for (int i = 0; i < 64; ++i) {
    const TimePs d = uniform.Draw(u1);
    EXPECT_GE(d, 50 * kMicrosecond);
    EXPECT_LE(d, 150 * kMicrosecond);
    EXPECT_EQ(d, uniform.Draw(u2));  // same stream, same draws
  }

  DownTimeSpec expo{DownTimeSpec::Dist::kExponential, 100 * kMicrosecond, 0};
  Rng e(42);
  for (int i = 0; i < 64; ++i) {
    EXPECT_GE(expo.Draw(e), 0);
  }
}

bool ScriptsEqual(const ScenarioScript& a, const ScenarioScript& b) {
  if (a.seed != b.seed || a.sample_period != b.sample_period ||
      a.restore_fraction != b.restore_fraction ||
      a.events.size() != b.events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    const ScenarioEvent& x = a.events[i];
    const ScenarioEvent& y = b.events[i];
    if (x.kind != y.kind || x.target != y.target || x.at != y.at ||
        x.repeat != y.repeat || x.period != y.period || x.down.dist != y.down.dist ||
        x.down.a != y.down.a || x.down.b != y.down.b || x.duration != y.duration ||
        x.drop_prob != y.drop_prob || x.corrupt_prob != y.corrupt_prob ||
        x.factor != y.factor) {
      return false;
    }
  }
  return true;
}

TEST(ScenarioScriptTest, PresetsStayInSyncWithExampleFiles) {
  // The built-in presets mirror the scripts under examples/scenarios/ so the
  // CLI, the bench, and the docs all name the same campaigns. This pins the
  // sync both ways.
  for (const std::string& name : ScenarioPresetNames()) {
    ScenarioScript preset;
    ASSERT_TRUE(ScenarioPreset(name, &preset)) << name;
    ScenarioScript file;
    std::string error;
    const std::string path =
        std::string(THEMIS_SOURCE_DIR) + "/examples/scenarios/" + name + ".scn";
    ASSERT_TRUE(LoadScenarioFile(path, &file, &error)) << path << ": " << error;
    EXPECT_TRUE(ScriptsEqual(preset, file)) << name << " diverged from " << path;
  }
  ScenarioScript unused;
  EXPECT_FALSE(ScenarioPreset("no-such-preset", &unused));
}

// --- Target resolution against a real topology -------------------------------

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.seed = 1;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  config.link_rate = Rate::Gbps(100);
  return config;
}

// Attaches `script_text` to a fresh small experiment; returns Attach's
// verdict and fills `error`.
bool TryAttach(const std::string& script_text, std::string* error) {
  ScenarioScript script;
  std::string parse_error;
  EXPECT_TRUE(ParseScenario(script_text, &script, &parse_error)) << parse_error;
  Experiment exp(SmallConfig());
  ScenarioEngine engine(&exp.sim(), script, /*default_seed=*/1);
  std::vector<RnicHost*> hosts;
  for (int i = 0; i < exp.host_count(); ++i) {
    hosts.push_back(exp.host(i));
  }
  return engine.Attach(exp.topology(), exp.themis(), hosts, error);
}

TEST(ScenarioEngineTest, ResolvesSwitchAndPortTargets) {
  std::string error;
  EXPECT_TRUE(TryAttach("flap target=tor0:up0 at=1us down=1us\n", &error)) << error;
  EXPECT_TRUE(TryAttach("flap target=tor0:p0 at=1us down=1us\n", &error)) << error;
  EXPECT_TRUE(TryAttach("gray target=spine0:* at=1us duration=1ms "
                        "drop=1e-3 corrupt=1e-3\n",
                        &error))
      << error;
  EXPECT_TRUE(TryAttach("gray target=spine*:up* at=1us duration=1ms "
                        "drop=1e-3 corrupt=1e-3\n",
                        &error))
      << error;
  EXPECT_TRUE(TryAttach("reboot target=spine1 at=1us down=1us\n", &error)) << error;
}

TEST(ScenarioEngineTest, AttachFailsLoudlyOnTypos) {
  // A chaos campaign that silently faults nothing is worse than a crash:
  // unknown switches, out-of-range ports, and port-qualified reboots must
  // all fail Attach with the offending event named.
  std::string error;
  EXPECT_FALSE(TryAttach("flap target=nosuch0:up0 at=1us down=1us\n", &error));
  EXPECT_NE(error.find("scenario event 1"), std::string::npos) << error;
  EXPECT_FALSE(TryAttach("flap target=tor0:p99 at=1us down=1us\n", &error));
  EXPECT_FALSE(TryAttach("flap target=tor0:up7 at=1us down=1us\n", &error));
  // Reboots take a whole switch, never a port expression.
  EXPECT_FALSE(TryAttach("reboot target=spine0:up0 at=1us down=1us\n", &error));
}

TEST(ScenarioEngineTest, AttachRejectsAScriptPastTheTimeBound) {
  // A script built in code skips the parser; Attach still applies its checks.
  ScenarioScript script;
  ASSERT_TRUE(ScenarioPreset("tor-uplink-flap", &script));
  script.events[0].at = 9223372036854775000;
  Experiment exp(SmallConfig());
  ScenarioEngine engine(&exp.sim(), script, /*default_seed=*/1);
  std::string error;
  EXPECT_FALSE(engine.Attach(exp.topology(), exp.themis(), {}, &error));
  EXPECT_EQ(error.rfind("scenario.event0: ", 0), 0u) << error;
}

// --- RecoveryTracker arithmetic (null Simulator) ------------------------------

RecoveryTracker::Config TrackerConfig() {
  RecoveryTracker::Config config;
  config.sample_period = 10 * kMicrosecond;
  config.restore_fraction = 0.9;
  config.settle_ticks = 2;
  config.baseline_ticks = 4;
  return config;
}

TEST(RecoveryTrackerTest, MeasuresFirstDropToGoodputRestored) {
  RecoveryTracker tracker(nullptr, TrackerConfig());
  const TimePs tick = 10 * kMicrosecond;
  // Seed tick + 4 healthy ticks at 1000 bytes/tick -> baseline 1000.
  uint64_t bytes = 0;
  tracker.Tick(0, bytes, 0);
  for (int i = 1; i <= 4; ++i) {
    bytes += 1000;
    tracker.Tick(i * tick, bytes, 0);
  }

  const size_t id =
      tracker.OnFaultApplied(/*event_index=*/0, /*occurrence=*/0,
                             FaultKind::kGrayFailure, /*now=*/5 * tick);
  EXPECT_EQ(tracker.open_faults(), 1u);
  EXPECT_DOUBLE_EQ(tracker.records()[id].baseline_goodput, 1000.0);

  // Outage: goodput collapses, drops appear at tick 6.
  bytes += 100;
  tracker.Tick(6 * tick, bytes, /*drops=*/3);
  bytes += 100;
  tracker.Tick(7 * tick, bytes, 5);
  EXPECT_EQ(tracker.records()[id].first_drop, 6 * tick);
  EXPECT_EQ(tracker.records()[id].drops_during, 5u);

  tracker.OnFaultCleared(id, 8 * tick);
  EXPECT_EQ(tracker.open_faults(), 0u);
  EXPECT_EQ(tracker.records()[id].cleared, 8 * tick);

  // Recovery ramp: one weak tick (resets the settle counter), then two
  // consecutive ticks at >= 0.9 * baseline -> recovered on the second.
  bytes += 500;
  tracker.Tick(9 * tick, bytes, 5);
  bytes += 950;
  tracker.Tick(10 * tick, bytes, 5);
  EXPECT_EQ(tracker.records()[id].recovered, -1);
  bytes += 1000;
  tracker.Tick(11 * tick, bytes, 5);

  const FaultRecord& record = tracker.records()[id];
  EXPECT_EQ(record.recovered, 11 * tick);
  EXPECT_EQ(record.RecoveryTimePs(), 11 * tick - 6 * tick);
  EXPECT_EQ(tracker.faults_recovered(), 1u);
}

TEST(RecoveryTrackerTest, NoDropFaultMeasuresFromApply) {
  // A flap parks queued packets instead of dropping them, so the damage
  // window starts at the injection itself (RTO stalls begin there).
  RecoveryTracker tracker(nullptr, TrackerConfig());
  const TimePs tick = 10 * kMicrosecond;
  uint64_t bytes = 0;
  tracker.Tick(0, bytes, 0);
  for (int i = 1; i <= 4; ++i) {
    bytes += 1000;
    tracker.Tick(i * tick, bytes, 0);
  }
  const size_t id =
      tracker.OnFaultApplied(0, 0, FaultKind::kLinkFlap, /*now=*/5 * tick);
  bytes += 0;
  tracker.Tick(6 * tick, bytes, 0);  // stalled, but no drops
  tracker.OnFaultCleared(id, 7 * tick);
  bytes += 950;
  tracker.Tick(8 * tick, bytes, 0);
  bytes += 950;
  tracker.Tick(9 * tick, bytes, 0);

  const FaultRecord& record = tracker.records()[id];
  EXPECT_EQ(record.first_drop, -1);
  EXPECT_EQ(record.recovered, 9 * tick);
  EXPECT_EQ(record.RecoveryTimePs(), 9 * tick - 5 * tick);
}

TEST(RecoveryTrackerTest, RunEndingMidFaultLeavesRecordOpen) {
  RecoveryTracker tracker(nullptr, TrackerConfig());
  uint64_t bytes = 0;
  tracker.Tick(0, bytes, 0);
  bytes += 1000;
  tracker.Tick(10 * kMicrosecond, bytes, 0);
  const size_t id =
      tracker.OnFaultApplied(0, 0, FaultKind::kSwitchReboot, 20 * kMicrosecond);
  tracker.Finalize(30 * kMicrosecond);

  const FaultRecord& record = tracker.records()[id];
  EXPECT_EQ(record.cleared, -1);
  EXPECT_EQ(record.recovered, -1);
  EXPECT_EQ(record.RecoveryTimePs(), -1);
}

TEST(RecoveryTrackerTest, FaultBeforeAnyBaselineRecoversAtClear) {
  // No healthy tick ever happened: there is no reference goodput level to
  // wait for, so the fault counts as recovered the moment it clears.
  RecoveryTracker tracker(nullptr, TrackerConfig());
  const size_t id = tracker.OnFaultApplied(0, 0, FaultKind::kLinkFlap, 0);
  tracker.OnFaultCleared(id, 50 * kMicrosecond);
  EXPECT_EQ(tracker.records()[id].recovered, 50 * kMicrosecond);
  EXPECT_EQ(tracker.faults_recovered(), 1u);
}

TEST(RecoveryTrackerTest, VictimsAccumulate) {
  RecoveryTracker tracker(nullptr, TrackerConfig());
  const size_t id = tracker.OnFaultApplied(0, 0, FaultKind::kLinkFlap, 0);
  tracker.AddVictims(id, 3);
  tracker.AddVictims(id, 2);
  EXPECT_EQ(tracker.records()[id].victim_flows, 5u);
}

// --- Campaign integration ----------------------------------------------------

// Digest of one campaign run on the small fabric, including the full fault
// records — the quantity that must be invariant across repeats and sweep
// threading. The 4 MB collective runs ~420 us clean, so both fault windows
// land inside live traffic.
uint64_t SmallCampaignHash(uint64_t seed) {
  ExperimentConfig config = DeterminismConfig(Scheme::kThemis, seed);
  ScenarioScript script;
  std::string error;
  EXPECT_TRUE(ParseScenario(
      "seed 5\n"
      "sample-period 20us\n"
      "flap target=tor0:up0 at=150us down=uniform:40us:120us\n"
      "gray target=spine1:* at=300us duration=250us drop=5e-3 corrupt=5e-3\n",
      &script, &error))
      << error;
  config.scenario = script;
  Experiment exp(config);
  auto result = exp.RunCollective(CollectiveKind::kAllreduce, exp.MakeCrossRackGroups(2),
                                  4 << 20, 10 * kSecond);
  exp.scenario()->Finalize();
  uint64_t h = DigestExperiment(exp);
  h = FnvMix(h, result.all_done ? 1 : 0);
  for (const FaultRecord& f : exp.scenario()->tracker().records()) {
    h = FnvMix(h, static_cast<uint64_t>(f.applied));
    h = FnvMix(h, static_cast<uint64_t>(f.cleared));
    h = FnvMix(h, static_cast<uint64_t>(f.first_drop));
    h = FnvMix(h, static_cast<uint64_t>(f.recovered));
    h = FnvMix(h, f.drops_during);
    h = FnvMix(h, f.victim_flows);
  }
  return h;
}

TEST(ScenarioEngineTest, CampaignsIndependentOfSweepThreadCount) {
  // Campaign draws come from private MixSeed streams, never the simulator
  // RNG, so a sweep of chaos runs must be byte-identical on 1 worker or 4.
  const std::vector<uint64_t> seeds = {1, 2, 3, 4};
  SweepRunner serial(1);
  SweepRunner wide(4);
  const auto a = serial.Map(seeds, [](uint64_t s) { return SmallCampaignHash(s); });
  const auto b = wide.Map(seeds, [](uint64_t s) { return SmallCampaignHash(s); });
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "seed " << seeds[i];
  }
  // And re-running the same campaign reproduces it exactly.
  EXPECT_EQ(SmallCampaignHash(1), a[0]);
}

TEST(ScenarioEngineTest, GrayWindowProducesWireDropsAndCrcDrops) {
  // A hot gray window must surface on both sides of the fidelity boundary:
  // wire losses (gray_drops) and corrupted arrivals CRC-dropped downstream,
  // with the engine harvesting the tallies. The target is a ToR — its
  // host-facing downlinks corrupt packets that land on NICs (host
  // corrupt_rx), its uplinks corrupt packets CRC-dropped at spine ingress.
  // 8 MB keeps the 100..700 us window inside the run (~800 us clean).
  ExperimentConfig config = DeterminismConfig(Scheme::kThemis, 1);
  ScenarioScript script;
  std::string error;
  ASSERT_TRUE(ParseScenario("seed 5\nsample-period 20us\n"
                            "gray target=tor0:* at=100us duration=600us "
                            "drop=0.05 corrupt=0.05\n",
                            &script, &error))
      << error;
  config.scenario = script;
  Experiment exp(config);
  ASSERT_NE(exp.scenario(), nullptr);
  exp.RunCollective(CollectiveKind::kAllreduce, exp.MakeCrossRackGroups(2), 8 << 20,
                    10 * kSecond);
  exp.scenario()->Finalize();

  const ScenarioEngineStats& stats = exp.scenario()->stats();
  EXPECT_EQ(stats.faults_applied, 1u);
  EXPECT_EQ(stats.gray_windows, 1u);
  EXPECT_GT(stats.gray_drops, 0u);
  EXPECT_GT(stats.gray_corrupts, 0u);
  uint64_t corrupt_rx = 0;
  for (int i = 0; i < exp.host_count(); ++i) {
    corrupt_rx += exp.host(i)->stats().corrupt_rx;
  }
  EXPECT_GT(corrupt_rx, 0u);
  // The fault must actually hurt and then heal: a record exists and closed.
  ASSERT_EQ(exp.scenario()->tracker().records().size(), 1u);
  const FaultRecord& record = exp.scenario()->tracker().records()[0];
  EXPECT_GE(record.cleared, record.applied);
  EXPECT_GT(record.drops_during, 0u);
}

TEST(ScenarioEngineTest, RebootDuringGraceWindowStillCompletes) {
  // A spine reboot under PFC (the Themis-D NACK-validity grace window armed
  // by pauses) must not wedge the run: flows retransmit around the outage
  // and the collective completes. The reboot also flushes the switch's
  // Themis flow state — dataplane registers do not survive power cycles —
  // which the post-restore traffic must rebuild transparently.
  ExperimentConfig config = DeterminismConfig(Scheme::kThemis, 1, /*pfc=*/true);
  ScenarioScript script;
  std::string error;
  ASSERT_TRUE(ParseScenario("seed 9\nsample-period 20us\n"
                            "reboot target=spine0 at=200us down=300us\n",
                            &script, &error))
      << error;
  config.scenario = script;
  Experiment exp(config);
  auto result = exp.RunCollective(CollectiveKind::kAllreduce, exp.MakeCrossRackGroups(2),
                                  8 << 20, 10 * kSecond);
  exp.scenario()->Finalize();

  EXPECT_TRUE(result.all_done);
  const ScenarioEngineStats& stats = exp.scenario()->stats();
  EXPECT_EQ(stats.faults_applied, 1u);
  EXPECT_EQ(stats.faults_cleared, 1u);
  EXPECT_GT(stats.ports_failed, 0u);
  ASSERT_EQ(exp.scenario()->tracker().records().size(), 1u);
  EXPECT_EQ(exp.scenario()->tracker().records()[0].cleared,
            200 * kMicrosecond + 300 * kMicrosecond);
}

// --- Port-level fault mechanics ----------------------------------------------

class SinkNode : public Node {
 public:
  SinkNode(Simulator* sim, int id, std::string name = "sink")
      : Node(sim, id, NodeKind::kHost, std::move(name)) {}
  void ReceivePacket(const Packet& pkt, int in_port) override {
    arrivals.push_back(pkt);
    (void)in_port;
  }
  std::vector<Packet> arrivals;
};

TEST(ScenarioPortTest, RestoreKicksParkedPackets) {
  // Regression: a failed port parks its queued packets; restoring the link
  // must restart the transmit loop immediately. Before the set_failed(false)
  // kick, parked packets waited for the next unrelated enqueue — on an idle
  // link, forever.
  Simulator sim;
  Network net(&sim);
  SinkNode* a = net.MakeNode<SinkNode>("a");
  SinkNode* b = net.MakeNode<SinkNode>("b");
  LinkSpec spec;
  spec.rate = Rate::Gbps(1);  // 1500 B wire = 12 us serialization
  spec.propagation_delay = 0;
  DuplexLink link = net.Connect(a, b, spec);
  Port* ab = a->port(link.a.port);

  for (uint32_t i = 0; i < 3; ++i) {
    ab->Send(MakeDataPacket(1, 0, 1, i, 1436, 0));
  }
  // psn 0 serializes 0-12us, psn 1 12-24us. Fail mid-flight of psn 1: it is
  // dropped on completion, psn 2 stays parked in the data queue.
  sim.ScheduleAt(13 * kMicrosecond, [ab] { ab->set_failed(true); });
  sim.ScheduleAt(50 * kMicrosecond, [ab] { ab->set_failed(false); });
  sim.Run();

  ASSERT_EQ(b->arrivals.size(), 2u);
  EXPECT_EQ(b->arrivals[0].psn, 0u);
  EXPECT_EQ(b->arrivals[1].psn, 2u);  // parked packet resumed on restore
  EXPECT_EQ(ab->stats().drops, 1u);   // the mid-flight psn 1
}

TEST(ScenarioPortTest, FlapDuringPauseHoldsDataUntilBothClear) {
  // A flap on a paused port: restore must NOT leak data past an still-
  // asserted PFC pause — the transmit kick re-enters StartNextTransmission,
  // which keeps honouring paused_. Data flows only after both the failure
  // and the pause clear.
  Simulator sim;
  Network net(&sim);
  SinkNode* a = net.MakeNode<SinkNode>("a");
  SinkNode* b = net.MakeNode<SinkNode>("b");
  LinkSpec spec;
  spec.rate = Rate::Gbps(1);
  spec.propagation_delay = 0;
  DuplexLink link = net.Connect(a, b, spec);
  Port* ab = a->port(link.a.port);

  sim.ScheduleAt(0, [ab] {
    ab->SetPaused(true);
    ab->Send(MakeDataPacket(1, 0, 1, 0, 1436, 0));  // held by the pause
  });
  sim.ScheduleAt(10 * kMicrosecond, [ab] { ab->set_failed(true); });
  sim.ScheduleAt(20 * kMicrosecond, [ab] { ab->set_failed(false); });  // still paused
  TimePs delivered_while_paused = -1;
  sim.ScheduleAt(30 * kMicrosecond, [&, ab, b] {
    delivered_while_paused = static_cast<TimePs>(b->arrivals.size());
    ab->SetPaused(false);
  });
  sim.Run();

  EXPECT_EQ(delivered_while_paused, 0);  // restore alone must not release data
  ASSERT_EQ(b->arrivals.size(), 1u);     // unpause finally releases it
  EXPECT_EQ(ab->stats().drops, 0u);      // parked, never dropped
}

}  // namespace
}  // namespace themis
