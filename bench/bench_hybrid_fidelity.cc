// Hybrid-fidelity validation + 1024-host scale sweep (src/traffic).
//
// Part A (validation): on a small leaf-spine where full packet-level
// simulation is cheap, runs the same foreground workload four ways —
//   baseline   no background at all,
//   full       background as real packet flows (the ground truth),
//   fluid      analytical M/M/1 background model,
//   trace      replay of per-port pressure recorded from a background-only
//              full-fidelity run (the calibration loop)
// — and reports p50/p99 slowdown plus the KS distance between each hybrid's
// slowdown CDF and the full run's. The bench exits nonzero if a hybrid
// leaves the documented tolerance band (EXPERIMENTS.md "Hybrid fidelity"),
// so CI gates on it.
//
// Part B (scale): a 1024-host fat-tree (k = 16) foreground FCT sweep over
// {ECMP, RandomSpray, Themis-S, Themis-D} under fluid background load —
// the run the hybrid engine exists for: full packet-level background at this
// scale is out of CI reach, the model costs one timer event per 5 us.
//
// Env knobs:
//   THEMIS_HYBRID_CSV=path   write the combined results table as CSV
//   THEMIS_HYBRID_SKIP_SCALE=1  skip Part B (validation only)
//   THEMIS_SWEEP_THREADS     sweep parallelism (results thread-invariant)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/sweep_runner.h"
#include "src/stats/report.h"
#include "src/stats/time_series.h"
#include "src/workload/flow_driver.h"

namespace themis {
namespace {

// Tolerance band for the validation gate. The hybrid models an *aggregate*;
// it cannot reproduce the full run flow-for-flow, but its slowdown
// distribution must stay close: KS distance below kKsTolerance and the
// p50/p99 ratios hybrid/full inside [1/kTailRatio, kTailRatio].
constexpr double kKsTolerance = 0.45;
constexpr double kTailRatio = 3.0;

ExperimentConfig SmallFabric(double background_load, TrafficModelKind model) {
  ExperimentConfig config;
  config.seed = 42;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  config.link_rate = Rate::Gbps(100);
  config.scheme = Scheme::kRandomSpray;
  config.traffic_model = model;
  config.background_load = background_load;
  return config;
}

WorkloadSpec Foreground() {
  WorkloadSpec spec;
  spec.pattern = TrafficPattern::kUniform;
  spec.load = 0.3;
  spec.window = 200 * kMicrosecond;
  spec.seed = 1;
  return spec;
}

struct ValidationRow {
  std::string variant;
  double load = 0.0;
  FctWorkloadResult result;
  double ks_vs_full = 0.0;
  double p50_ratio = 0.0;
  double p99_ratio = 0.0;
};

// Runs the four variants at one background load; rows in print order.
std::vector<ValidationRow> ValidatePoint(double bg_load, const FlowSizeCdf& cdf) {
  const WorkloadSpec foreground = Foreground();
  const TimePs deadline = foreground.window * 100;

  std::vector<ValidationRow> rows;
  auto add = [&rows, bg_load](std::string variant, FctWorkloadResult result) {
    ValidationRow row;
    row.variant = std::move(variant);
    row.load = bg_load;
    row.result = std::move(result);
    rows.push_back(std::move(row));
  };

  // Baseline: the foreground alone (what the hybrid must NOT look like).
  add("baseline", RunFctWorkload(SmallFabric(0.0, TrafficModelKind::kNone), foreground,
                                 cdf, deadline));

  // Ground truth: background as real packet flows, independent seed.
  FctRunOptions full_options;
  full_options.deadline = deadline;
  full_options.background_flows = true;
  full_options.background = Foreground();
  full_options.background.load = bg_load;
  full_options.background.seed = 99;
  add("full", RunFctWorkloadEx(SmallFabric(0.0, TrafficModelKind::kNone), foreground, cdf,
                               full_options));

  // Calibration: a background-only full-fidelity run with the recorder on —
  // the sampled pressure is what the background *alone* does to each port,
  // which is exactly what the replay must inject under the foreground.
  PortPressureTrace trace;
  {
    FctRunOptions calibrate;
    calibrate.deadline = deadline;
    calibrate.record_period = 5 * kMicrosecond;
    calibrate.calibration = &trace;
    WorkloadSpec bg_only = Foreground();
    bg_only.load = bg_load;
    bg_only.seed = 99;
    RunFctWorkloadEx(SmallFabric(0.0, TrafficModelKind::kNone), bg_only, cdf, calibrate);
  }

  // Hybrid A: analytical fluid model at the offered background load.
  add("fluid", RunFctWorkload(SmallFabric(bg_load, TrafficModelKind::kFluid), foreground,
                              cdf, deadline));

  // Hybrid B: trace replay of the calibration run.
  FctRunOptions replay_options;
  replay_options.deadline = deadline;
  replay_options.replay = &trace;
  add("trace", RunFctWorkloadEx(SmallFabric(0.0, TrafficModelKind::kNone), foreground, cdf,
                                replay_options));

  const std::vector<double> ref = rows[1].result.Slowdowns();
  for (ValidationRow& row : rows) {
    row.ks_vs_full = KsStatistic(ref, row.result.Slowdowns());
    row.p50_ratio = row.result.slowdown.p50 / rows[1].result.slowdown.p50;
    row.p99_ratio = row.result.slowdown.p99 / rows[1].result.slowdown.p99;
  }
  return rows;
}

int ValidationPart(Table& table) {
  const FlowSizeCdf cdf =
      FlowSizeCdf::FromPoints("small", {{2'000, 0.5}, {32'000, 1.0}});
  const std::vector<double> loads = {0.2, 0.4};

  SweepRunner runner;
  const auto points =
      runner.Map(loads, [&cdf](const double& load) { return ValidatePoint(load, cdf); });

  int failures = 0;
  std::printf("=== Part A: hybrid vs. full packet-level (2x2x2 leaf-spine) ===\n");
  for (const std::vector<ValidationRow>& rows : points) {
    for (const ValidationRow& row : rows) {
      const FctWorkloadResult& r = row.result;
      const bool hybrid = row.variant == "fluid" || row.variant == "trace";
      bool ok = true;
      if (hybrid) {
        ok = row.ks_vs_full <= kKsTolerance && row.p99_ratio <= kTailRatio &&
             row.p99_ratio >= 1.0 / kTailRatio && row.p50_ratio <= kTailRatio &&
             row.p50_ratio >= 1.0 / kTailRatio;
      }
      if (r.flows_completed != r.flows_total) {
        ok = false;
      }
      std::printf(
          "  bg=%.1f %-9s p50 %6.2f  p99 %7.2f  KS %.3f  p99/full %5.2f  (%zu flows%s)%s\n",
          row.load, row.variant.c_str(), r.slowdown.p50, r.slowdown.p99, row.ks_vs_full,
          row.p99_ratio, r.flows_completed,
          r.background_total > 0
              ? (" + " + std::to_string(r.background_completed) + " bg").c_str()
              : "",
          ok ? "" : "  <-- OUT OF TOLERANCE");
      if (!ok) {
        ++failures;
      }
      table.AddRow({"validate-2x2x2", row.variant, FormatDouble(row.load, 1),
                    std::to_string(r.flows_completed), FormatDouble(r.slowdown.p50, 3),
                    FormatDouble(r.slowdown.p99, 3), FormatDouble(row.ks_vs_full, 3),
                    FormatDouble(row.p50_ratio, 3), FormatDouble(row.p99_ratio, 3)});
    }
  }
  std::printf("  tolerance: KS <= %.2f, p50/p99 ratio in [%.2f, %.1f]\n\n", kKsTolerance,
              1.0 / kTailRatio, kTailRatio);
  return failures;
}

// --- Part B: 1024-host fat-tree hybrid sweep --------------------------------

struct ScaleScheme {
  const char* label;
  Scheme scheme;
  SprayMode spray;
};

constexpr ScaleScheme kScaleSchemes[] = {
    {"ECMP", Scheme::kEcmp, SprayMode::kTorEgress},
    {"RandomSpray", Scheme::kRandomSpray, SprayMode::kTorEgress},
    {"Themis-S", Scheme::kThemis, SprayMode::kSportRewrite},
    {"Themis-D", Scheme::kThemis, SprayMode::kTorEgress},
};

int ScalePart(Table& table) {
  const FlowSizeCdf& cdf = FlowSizeCdf::AliStorage();

  SweepRunner runner;
  std::vector<ScaleScheme> schemes(std::begin(kScaleSchemes), std::end(kScaleSchemes));
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = runner.Map(schemes, [&cdf](const ScaleScheme& s) {
    ExperimentConfig config;
    config.seed = 42;
    config.fabric = FabricKind::kFatTree;
    config.fat_tree_k = 16;  // 1024 hosts, 320 switches
    config.link_rate = Rate::Gbps(400);
    config.scheme = s.scheme;
    config.themis_spray_mode = s.spray;
    config.traffic_model = TrafficModelKind::kFluid;
    config.background_load = 0.4;

    WorkloadSpec workload;
    workload.pattern = TrafficPattern::kUniform;
    workload.load = 0.3;
    workload.window = 100 * kMicrosecond;
    workload.seed = 42;
    workload.max_flows = 2'000;  // CI budget; arrivals cover the window
    return RunFctWorkload(config, workload, cdf, workload.window * 1000);
  });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  int failures = 0;
  std::printf("=== Part B: 1024-host fat-tree (k=16), fluid background 0.4 ===\n");
  for (size_t i = 0; i < schemes.size(); ++i) {
    const FctWorkloadResult& r = outcomes[i];
    const bool ok = r.flows_completed == r.flows_total && r.flows_total > 0;
    std::printf("  %-12s p50 %6.2f  p95 %6.2f  p99 %7.2f  goodput %7.2f Gbps  (%zu/%zu)%s\n",
                schemes[i].label, r.slowdown.p50, r.slowdown.p95, r.slowdown.p99,
                r.goodput_gbps, r.flows_completed, r.flows_total,
                ok ? "" : "  <-- INCOMPLETE");
    if (!ok) {
      ++failures;
    }
    table.AddRow({"fat-tree-k16", schemes[i].label, "0.4",
                  std::to_string(r.flows_completed), FormatDouble(r.slowdown.p50, 3),
                  FormatDouble(r.slowdown.p99, 3), "", "", ""});
  }
  std::printf("  wall time %.1f s for %zu schemes\n\n", wall_s, schemes.size());
  return failures;
}

int HybridMain() {
  Table table({"config", "variant", "bg_load", "flows", "p50", "p99", "ks_vs_full",
               "p50_ratio", "p99_ratio"});
  int failures = ValidationPart(table);

  const char* skip = std::getenv("THEMIS_HYBRID_SKIP_SCALE");
  if (skip == nullptr || *skip != '1') {
    failures += ScalePart(table);
  }

  if (const char* csv = std::getenv("THEMIS_HYBRID_CSV"); csv != nullptr && *csv != '\0') {
    if (table.WriteCsv(csv)) {
      std::printf("wrote %s\n", csv);
    } else {
      std::fprintf(stderr, "could not write %s\n", csv);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace themis

int main() { return themis::HybridMain(); }
