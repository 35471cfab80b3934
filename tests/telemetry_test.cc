// Telemetry subsystem tests: trace ring semantics, counter registry,
// sampler/export plumbing, the lazy logging macro, and the end-to-end
// contract that a traced workload produces the promised columns.
//
// Trace-content assertions GTEST_SKIP under THEMIS_TRACE=OFF builds — the
// record sites compile to nothing there, which is exactly the point.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/sim/logging.h"
#include "src/telemetry/counters.h"
#include "src/telemetry/export.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"
#include "src/workload/flow_driver.h"

namespace themis {
namespace {

// --- TraceSink ring ----------------------------------------------------------

TEST(TraceSinkTest, RecordsInOrderAndReportsCounts) {
  TraceSink sink(/*capacity=*/8);
  for (uint32_t i = 0; i < 5; ++i) {
    sink.Record(static_cast<TimePs>(i * 100), TraceCategory::kPort,
                static_cast<uint8_t>(PortTrace::kEnqueue), /*node=*/1, /*port=*/0,
                /*id=*/i, /*a=*/i, /*b=*/0);
  }
  EXPECT_EQ(sink.size(), 5u);
  EXPECT_EQ(sink.recorded(), 5u);
  EXPECT_EQ(sink.overwritten(), 0u);
  for (size_t i = 0; i < sink.size(); ++i) {
    EXPECT_EQ(sink.at(i).time, static_cast<TimePs>(i * 100));
    EXPECT_EQ(sink.at(i).id, static_cast<uint32_t>(i));
  }
}

TEST(TraceSinkTest, RingEvictsOldestOnWrap) {
  TraceSink sink(/*capacity=*/4);
  for (uint32_t i = 0; i < 10; ++i) {
    sink.Record(static_cast<TimePs>(i), TraceCategory::kRnic,
                static_cast<uint8_t>(RnicTrace::kSend), 0, 0, i, 0, 0);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.overwritten(), 6u);
  // The survivors are the newest four, still in chronological order.
  std::vector<uint32_t> ids;
  sink.ForEach([&ids](const TraceEvent& e) { ids.push_back(e.id); });
  EXPECT_EQ(ids, (std::vector<uint32_t>{6, 7, 8, 9}));
}

TEST(TraceSinkTest, CategoryMaskFiltersRecording) {
  TraceSink sink(/*capacity=*/16);
  sink.set_category_mask(TraceCategoryBit(TraceCategory::kThemis));
  EXPECT_TRUE(sink.Accepts(TraceCategory::kThemis));
  EXPECT_FALSE(sink.Accepts(TraceCategory::kPort));
  EXPECT_FALSE(sink.Accepts(TraceCategory::kCc));
}

TEST(TraceSinkTest, RecordHelperIsSafeWithNoSinkAttached) {
  Simulator sim;
  ASSERT_EQ(sim.trace_sink(), nullptr);
  // Must be a no-op, not a crash, whether or not tracing is compiled in.
  TracePort(&sim, PortTrace::kEnqueue, 0, 0, 1, 2, 3);
  TraceRnic(&sim, RnicTrace::kSend, 0, 1, 2, 3);
}

TEST(TraceSinkTest, RecordHelperRoutesThroughSimulator) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "built with THEMIS_TRACE=OFF";
  }
  Simulator sim;
  TraceSink sink(/*capacity=*/16);
  sim.set_trace_sink(&sink);
  TraceThemis(&sim, ThemisTrace::kNackValid, /*node=*/7, /*flow_id=*/42, /*a=*/5, /*b=*/3);
  sim.set_trace_sink(nullptr);
  TraceThemis(&sim, ThemisTrace::kNackValid, 7, 42, 5, 3);  // detached: dropped
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.at(0).category, static_cast<uint8_t>(TraceCategory::kThemis));
  EXPECT_EQ(sink.at(0).code, static_cast<uint8_t>(ThemisTrace::kNackValid));
  EXPECT_EQ(sink.at(0).node, 7);
  EXPECT_EQ(sink.at(0).id, 42u);
}

TEST(TraceSinkTest, EventNamesAreStable) {
  EXPECT_STREQ(TraceEventName(TraceCategory::kPort,
                              static_cast<uint8_t>(PortTrace::kPauseOn)),
               "port.pause_on");
  EXPECT_STREQ(TraceEventName(TraceCategory::kThemis,
                              static_cast<uint8_t>(ThemisTrace::kSpuriousValid)),
               "themis.spurious_valid");
  EXPECT_STREQ(TraceEventName(TraceCategory::kCc,
                              static_cast<uint8_t>(CcTrace::kRateCut)),
               "cc.rate_cut");
}

// --- CounterRegistry / sampler ----------------------------------------------

TEST(CounterRegistryTest, CountersAndGaugesReadThrough) {
  CounterRegistry registry;
  uint64_t drops = 0;
  double depth = 1.5;
  registry.RegisterCounter("tor0.p0.drops", &drops);
  registry.RegisterGauge("tor0.p0.depth", [&depth] { return depth; });
  ASSERT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Read(0), 0.0);
  drops = 17;
  depth = 3.25;
  EXPECT_EQ(registry.Read(0), 17.0);
  EXPECT_EQ(registry.Read(1), 3.25);
  EXPECT_EQ(registry.Find("tor0.p0.depth"), 1);
  EXPECT_EQ(registry.Find("nope"), -1);
}

TEST(CounterSamplerTest, PeriodicSamplingBuildsAlignedSeries) {
  Simulator sim;
  CounterRegistry registry;
  uint64_t counter = 0;
  double gauge = -1.5;
  registry.RegisterCounter("c", &counter);
  registry.RegisterGauge("g", [&gauge] { return gauge; });
  CounterSampler sampler(&sim, &registry);
  sim.Schedule(5 * kMicrosecond, [&counter] { counter = 10; });
  sim.Schedule(15 * kMicrosecond, [&counter, &gauge] {
    counter = 20;
    gauge = 2.5;
  });
  sampler.Start(10 * kMicrosecond);
  sim.RunUntil(35 * kMicrosecond);
  sampler.Stop();
  EXPECT_EQ(sampler.sample_times(),
            (std::vector<TimePs>{10 * kMicrosecond, 20 * kMicrosecond, 30 * kMicrosecond}));
  // One row per tick, one cell per entry in registry order.
  EXPECT_EQ(sampler.rows(), (std::vector<std::vector<double>>{
                                {10.0, -1.5}, {20.0, 2.5}, {20.0, 2.5}}));
}

TEST(CounterSamplerTest, LateRegisteredCountersZeroFillInCsv) {
  Simulator sim;
  CounterRegistry registry;
  uint64_t early = 1;
  uint64_t late = 99;
  uint64_t later = 7;
  uint64_t unsampled = 5;
  registry.RegisterCounter("early", &early);
  CounterSampler sampler(&sim, &registry);
  sampler.SampleNow();  // tick 1: only `early` exists
  sim.RunUntil(1 * kMicrosecond);
  registry.RegisterCounter("late", &late);
  sampler.SampleNow();  // tick 2: `early`, `late`
  sim.RunUntil(2 * kMicrosecond);
  registry.RegisterCounter("later", &later);
  sampler.SampleNow();                                // tick 3: all but `unsampled`
  registry.RegisterCounter("unsampled", &unsampled);  // after the last tick

  // A row is as wide as the registry was at its tick.
  ASSERT_EQ(sampler.rows().size(), 3u);
  EXPECT_EQ(sampler.rows()[0].size(), 1u);
  EXPECT_EQ(sampler.rows()[1].size(), 2u);
  EXPECT_EQ(sampler.rows()[2].size(), 3u);

  std::ostringstream csv;
  WriteCountersCsv(sampler, csv);
  // The CSV zero-fills every cell from before its entry was registered.
  EXPECT_EQ(csv.str(),
            "time_us,early,late,later,unsampled\n"
            "0.000000,1,0,0,0\n"
            "1.000000,1,99,0,0\n"
            "2.000000,1,99,7,0\n");
  std::istringstream lines(csv.str());
  std::string line;
  std::getline(lines, line);
  const auto header_columns = std::count(line.begin(), line.end(), ',');
  size_t data_rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), header_columns) << line;
    ++data_rows;
  }
  EXPECT_EQ(data_rows, 3u);
}

// --- Exporters ---------------------------------------------------------------

TEST(ExportTest, ChromeTraceIsWellFormedJson) {
  TraceSink sink(/*capacity=*/16);
  sink.Record(1 * kMicrosecond, TraceCategory::kPort,
              static_cast<uint8_t>(PortTrace::kDrop), /*node=*/3, /*port=*/1,
              /*id=*/7, /*a=*/1500, /*b=*/0);
  std::ostringstream out;
  WriteChromeTrace(sink, out, [](uint16_t node) { return std::string("tor") + std::to_string(node); });
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"port.drop\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000000"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("tor3"), std::string::npos);
  // Balanced braces as a cheap structural check.
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(json[json.size() - 2], '}');
}

TEST(ExportTest, FileWritersReportWriteFailures) {
  Simulator sim;
  CounterRegistry registry;
  uint64_t counter = 3;
  registry.RegisterCounter("c", &counter);
  CounterSampler sampler(&sim, &registry);
  sampler.SampleNow();
  TraceSink sink(/*capacity=*/4);
  sink.Record(0, TraceCategory::kRnic, static_cast<uint8_t>(RnicTrace::kSend), 0, 0, 1, 2, 3);

  // A writable file gets exactly the stream exporter's bytes.
  const std::string path = ::testing::TempDir() + "telemetry_test.counters.csv";
  ASSERT_TRUE(WriteCountersCsvFile(sampler, path));
  std::ostringstream expected;
  WriteCountersCsv(sampler, expected);
  std::ifstream written(path);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(written), {}), expected.str());
  std::remove(path.c_str());

  // Opening /dev/full succeeds and every write fails, including the final
  // flush of output smaller than the file buffer.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  EXPECT_FALSE(WriteCountersCsvFile(sampler, "/dev/full"));
  EXPECT_FALSE(WriteChromeTraceFile(sink, "/dev/full"));
}

// The exporters' formatters must reproduce printf byte for byte: the export
// golden and every file a past run wrote depend on it.
std::string Printf(const char* format, double value) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

std::string CounterCell(double value) {
  char buf[kMaxFormattedChars];
  return std::string(buf, FormatCounterValue(buf, value));
}

std::string MicrosCell(double micros) {
  char buf[kMaxFormattedChars];
  return std::string(buf, FormatMicros(buf, micros));
}

TEST(ExportFormatTest, FormattersMatchPrintfOnEdgeCases) {
  using Limits = std::numeric_limits<double>;
  const double kValues[] = {
      0.0, -0.0,  // a +0 shortcut must not drop the sign of -0
      Limits::denorm_min(), -Limits::denorm_min(), Limits::min() / 3, -Limits::min(),
      999999.0, 999999.5, 1e6, 0.9999995, 123456.5, 1234565.0,  // rounding edges
      9007199254740992.0, -9007199254740992.0,                    // +-2^53
      0.0001, 0.00001, 1.0 / 3, 1e15, 1e17, Limits::max(), Limits::lowest(),
      -1.0, -42.0, -3.25, -999999.5, -0.9999995,  // negative gauges
      Limits::infinity(), -Limits::infinity(), Limits::quiet_NaN(), -Limits::quiet_NaN(),
  };
  for (const double v : kValues) {
    EXPECT_EQ(CounterCell(v), Printf("%.6g", v)) << std::hexfloat << v;
    if (!(std::fabs(v) >= 1e18)) {  // FormatMicros' domain; NaN included
      EXPECT_EQ(MicrosCell(v), Printf("%.6f", v)) << std::hexfloat << v;
    }
  }
  // Timestamps across the whole TimePs range, in microseconds.
  const TimePs kTimes[] = {0, 1, 499'999, 500'000, 999'999'500, 123'456'789'012,
                           std::numeric_limits<TimePs>::max(),
                           std::numeric_limits<TimePs>::min()};
  for (const TimePs ps : kTimes) {
    const double micros = static_cast<double>(ps) / 1e6;
    EXPECT_EQ(MicrosCell(micros), Printf("%.6f", micros)) << ps;
  }
}

TEST(ExportFormatTest, FormattersMatchPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(20261016);
  for (int i = 0; i < 100000; ++i) {
    const double v = std::bit_cast<double>(rng());
    ASSERT_EQ(CounterCell(v), Printf("%.6g", v)) << std::hexfloat << v;
    if (!(std::fabs(v) >= 1e18)) {
      ASSERT_EQ(MicrosCell(v), Printf("%.6f", v)) << std::hexfloat << v;
    }
    const double micros = static_cast<double>(static_cast<TimePs>(rng())) / 1e6;
    ASSERT_EQ(MicrosCell(micros), Printf("%.6f", micros)) << std::hexfloat << micros;
  }
}

// --- Telemetry bundle + end-to-end workload ---------------------------------

TEST(TelemetryBundleTest, AttachesAndDetachesSink) {
  Simulator sim;
  {
    Telemetry telemetry(&sim);
    if (kTraceCompiledIn) {
      EXPECT_EQ(sim.trace_sink(), &telemetry.trace());
    } else {
      EXPECT_EQ(sim.trace_sink(), nullptr);
    }
  }
  EXPECT_EQ(sim.trace_sink(), nullptr);  // dtor must detach
}

// Small incast-ish Themis workload with telemetry attached: the counters CSV
// must contain the promised per-port pause-time and per-flow NACK-verdict
// columns, and the trace must carry events from every category.
TEST(TelemetryBundleTest, TracedWorkloadProducesPromisedColumns) {
  ExperimentConfig config;
  config.seed = 42;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  config.scheme = Scheme::kThemis;

  WorkloadSpec workload;
  workload.pattern = TrafficPattern::kIncastMix;
  workload.load = 0.6;
  workload.window = 100 * kMicrosecond;
  workload.incast_fanin = 4;
  workload.seed = 42;
  workload.max_flows = 32;

  Experiment exp(config);
  Telemetry telemetry(&exp.sim());
  exp.AttachTelemetry(&telemetry);
  telemetry.StartSampling();
  std::vector<FlowSpec> flows =
      GenerateFlows(workload, FlowSizeCdf::AliStorage(), exp.host_count(), exp.edge_rate());
  FlowDriver driver(&exp, std::move(flows));
  driver.Post();
  exp.sim().RunUntil(workload.window * 40);
  telemetry.StopSampling();
  telemetry.sampler().SampleNow();
  ASSERT_TRUE(driver.AllDone());

  std::ostringstream csv;
  WriteCountersCsv(telemetry.sampler(), csv);
  const std::string header = csv.str().substr(0, csv.str().find('\n'));
  EXPECT_NE(header.find(".pause_us"), std::string::npos);
  EXPECT_NE(header.find(".queue_bytes"), std::string::npos);
  EXPECT_NE(header.find(".nack_valid"), std::string::npos);
  EXPECT_NE(header.find(".nack_spurious"), std::string::npos);
  EXPECT_NE(header.find(".bepsn_lag"), std::string::npos);
  EXPECT_NE(header.find(".ooo_depth"), std::string::npos);

  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "built with THEMIS_TRACE=OFF; counters verified";
  }
  EXPECT_GT(telemetry.trace().recorded(), 0u);
  bool saw_port = false, saw_rnic = false, saw_themis = false;
  telemetry.trace().ForEach([&](const TraceEvent& e) {
    switch (static_cast<TraceCategory>(e.category)) {
      case TraceCategory::kPort:
        saw_port = true;
        break;
      case TraceCategory::kRnic:
        saw_rnic = true;
        break;
      case TraceCategory::kThemis:
        saw_themis = true;
        break;
      default:
        break;
    }
  });
  EXPECT_TRUE(saw_port);
  EXPECT_TRUE(saw_rnic);
  EXPECT_TRUE(saw_themis);
}

// --- Lazy logging ------------------------------------------------------------

TEST(LazyLoggingTest, ArgumentsNotEvaluatedWhenDisabled) {
  Logger& logger = Logger::Global();
  const LogLevel saved = logger.level();
  logger.set_level(LogLevel::kNone);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return 42;
  };
  THEMIS_LOG(LogLevel::kDebug, 0, "value=%d", expensive());
  EXPECT_EQ(evaluations, 0);  // the whole argument list must be skipped
  logger.set_level(saved);
}

TEST(LazyLoggingTest, FormatsWhenEnabled) {
  Logger& logger = Logger::Global();
  const LogLevel saved = logger.level();
  logger.set_level(LogLevel::kDebug);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return 7;
  };
  THEMIS_LOG(LogLevel::kDebug, 1 * kMicrosecond, "flow %d retried", expensive());
  EXPECT_EQ(evaluations, 1);
  logger.set_level(saved);
}

}  // namespace
}  // namespace themis
