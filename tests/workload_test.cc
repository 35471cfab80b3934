// Tests for the src/workload subsystem: CDF parsing + inverse-transform
// sampling, open-loop flow generation (Poisson arrivals, traffic matrices),
// and FlowDriver completion accounting on a live Experiment.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/flow_driver.h"
#include "src/workload/flow_generator.h"
#include "src/workload/flow_size_cdf.h"

namespace themis {
namespace {

// --------------------------------------------------------------------------
// FlowSizeCdf: parsing

TEST(FlowSizeCdfTest, ParsesTextWithCommentsAndBlankLines) {
  const std::string text =
      "# flow size CDF\n"
      "\n"
      "100 0.25   # small\n"
      "1000 0.75\n"
      "10000 1.0\n";
  FlowSizeCdf cdf;
  std::string error;
  ASSERT_TRUE(FlowSizeCdf::Parse("toy", text, &cdf, &error)) << error;
  EXPECT_EQ(cdf.name(), "toy");
  ASSERT_EQ(cdf.points().size(), 3u);
  EXPECT_EQ(cdf.points()[0].bytes, 100u);
  EXPECT_DOUBLE_EQ(cdf.points()[1].cum_prob, 0.75);
  // Mass: 0.25 at 100 B, 0.5 uniform on [100, 1000], 0.25 on [1000, 10000].
  EXPECT_DOUBLE_EQ(cdf.MeanBytes(), 0.25 * 100 + 0.5 * 550 + 0.25 * 5500);
}

TEST(FlowSizeCdfTest, RejectsMalformedInput) {
  FlowSizeCdf cdf;
  std::string error;
  // Decreasing probability.
  EXPECT_FALSE(FlowSizeCdf::Parse("bad", "100 0.9\n200 0.5\n300 1.0\n", &cdf, &error));
  EXPECT_NE(error.find("non-decreasing"), std::string::npos);
  // Decreasing size.
  EXPECT_FALSE(FlowSizeCdf::Parse("bad", "200 0.5\n100 1.0\n", &cdf, &error));
  // Last probability != 1.
  EXPECT_FALSE(FlowSizeCdf::Parse("bad", "100 0.5\n200 0.9\n", &cdf, &error));
  EXPECT_NE(error.find("1.0"), std::string::npos);
  // Missing column.
  EXPECT_FALSE(FlowSizeCdf::Parse("bad", "100\n", &cdf, &error));
  // Trailing garbage.
  EXPECT_FALSE(FlowSizeCdf::Parse("bad", "100 0.5 oops\n200 1.0\n", &cdf, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
  // Empty.
  EXPECT_FALSE(FlowSizeCdf::Parse("bad", "# nothing here\n", &cdf, &error));
  // A size that is not a whole number of bytes below 2^64.
  EXPECT_FALSE(FlowSizeCdf::Parse("bad", "1e30 1.0\n", &cdf, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_FALSE(FlowSizeCdf::Parse("bad", "# sizes\n0.5 1.0\n", &cdf, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  // A zero mean, which the generator cannot turn into an arrival rate.
  EXPECT_FALSE(FlowSizeCdf::Parse("bad", "0 1.0\n", &cdf, &error));
  EXPECT_NE(error.find("mean"), std::string::npos) << error;
}

TEST(FlowSizeCdfTest, LoadFileRoundTripsAndNamesAfterBasename) {
  const std::string path = testing::TempDir() + "/toy_cdf.txt";
  {
    std::ofstream out(path);
    out << "1000 0.5\n2000 1.0\n";
  }
  FlowSizeCdf cdf;
  std::string error;
  ASSERT_TRUE(FlowSizeCdf::LoadFile(path, &cdf, &error)) << error;
  EXPECT_EQ(cdf.name(), "toy_cdf");
  EXPECT_DOUBLE_EQ(cdf.MeanBytes(), 0.5 * 1000 + 0.5 * 1500);

  EXPECT_FALSE(FlowSizeCdf::LoadFile("/nonexistent/nope.txt", &cdf, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// --------------------------------------------------------------------------
// FlowSizeCdf: sampling

TEST(FlowSizeCdfTest, SamplesStayWithinSupport) {
  const FlowSizeCdf& cdf = FlowSizeCdf::WebSearch();
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t bytes = cdf.Sample(rng);
    EXPECT_GE(bytes, 1u);
    EXPECT_LE(bytes, cdf.points().back().bytes);
  }
}

// KS-style bound: the empirical CDF of 1e5 fixed-seed draws must converge
// to the input CDF. Checked at every knee and every inter-knee midpoint
// (below the first knee the sampler intentionally concentrates mass at the
// knee itself, so there is nothing to compare there).
TEST(FlowSizeCdfTest, SamplerConvergesToInputCdf) {
  for (const FlowSizeCdf* cdf : {&FlowSizeCdf::WebSearch(), &FlowSizeCdf::Hadoop(),
                                 &FlowSizeCdf::AliStorage()}) {
    constexpr int kDraws = 100'000;
    Rng rng(0xC0FFEE);
    std::vector<uint64_t> samples(kDraws);
    for (int i = 0; i < kDraws; ++i) {
      samples[i] = cdf->Sample(rng);
    }
    std::sort(samples.begin(), samples.end());
    auto empirical = [&samples](uint64_t bytes) {
      const auto it = std::upper_bound(samples.begin(), samples.end(), bytes);
      return static_cast<double>(it - samples.begin()) / samples.size();
    };

    std::vector<uint64_t> probes;
    for (size_t i = 0; i < cdf->points().size(); ++i) {
      probes.push_back(cdf->points()[i].bytes);
      if (i + 1 < cdf->points().size()) {
        probes.push_back((cdf->points()[i].bytes + cdf->points()[i + 1].bytes) / 2);
      }
    }
    // 3.3 sigma of a binomial proportion at n=1e5 is ~0.005; allow 0.01.
    for (uint64_t probe : probes) {
      EXPECT_NEAR(empirical(probe), cdf->CdfAt(probe), 0.01)
          << cdf->name() << " diverges at " << probe << " B";
    }
  }
}

// --------------------------------------------------------------------------
// Flow generation

// A point-mass CDF makes arrival-rate math exact: every flow is 100 kB.
const FlowSizeCdf& ConstantSizeCdf() {
  static const FlowSizeCdf cdf =
      FlowSizeCdf::FromPoints("const100k", {{100'000, 1.0}});
  return cdf;
}

WorkloadSpec UniformSpec() {
  WorkloadSpec spec;
  spec.pattern = TrafficPattern::kUniform;
  spec.load = 0.1;
  spec.window = 2 * kMillisecond;
  spec.seed = 11;
  return spec;
}

TEST(FlowGeneratorTest, PoissonArrivalStatisticsMatchTargetLoad) {
  const int kHosts = 16;
  const Rate kEdge = Rate::Gbps(100);
  const std::vector<FlowSpec> flows =
      GenerateFlows(UniformSpec(), ConstantSizeCdf(), kHosts, kEdge);

  // lambda = 0.1 * 12.5e9 B/s / 1e5 B = 12500 flows/s/host; 2 ms window ->
  // 25 expected per host, 400 total. Poisson sd of the total is 20.
  const double expected = 400.0;
  EXPECT_NEAR(static_cast<double>(flows.size()), expected, 4 * 20.0);

  // Per-host inter-arrival gaps: exponential with mean 80 us and squared
  // coefficient of variation 1.
  std::map<int, std::vector<TimePs>> arrivals;
  for (const FlowSpec& f : flows) {
    arrivals[f.src].push_back(f.start_time);
  }
  EXPECT_EQ(arrivals.size(), static_cast<size_t>(kHosts));
  std::vector<double> gaps;
  for (auto& [src, times] : arrivals) {
    for (size_t i = 1; i < times.size(); ++i) {
      gaps.push_back(static_cast<double>(times[i] - times[i - 1]));
    }
  }
  ASSERT_GT(gaps.size(), 200u);
  double mean = 0.0;
  for (double g : gaps) {
    mean += g;
  }
  mean /= static_cast<double>(gaps.size());
  EXPECT_NEAR(mean, 80.0 * kMicrosecond, 0.15 * 80.0 * kMicrosecond);
  double var = 0.0;
  for (double g : gaps) {
    var += (g - mean) * (g - mean);
  }
  var /= static_cast<double>(gaps.size());
  const double cv2 = var / (mean * mean);
  EXPECT_GT(cv2, 0.7);
  EXPECT_LT(cv2, 1.3);
}

TEST(FlowGeneratorTest, OutputIsSortedIndexedAndDeterministic) {
  const std::vector<FlowSpec> a = GenerateFlows(UniformSpec(), ConstantSizeCdf(), 16,
                                                Rate::Gbps(100));
  const std::vector<FlowSpec> b = GenerateFlows(UniformSpec(), ConstantSizeCdf(), 16,
                                                Rate::Gbps(100));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].start_time, b[i].start_time);
    EXPECT_EQ(a[i].index, static_cast<uint32_t>(i));
    if (i > 0) {
      EXPECT_GE(a[i].start_time, a[i - 1].start_time);
    }
    EXPECT_NE(a[i].src, a[i].dst);
    EXPECT_GE(a[i].src, 0);
    EXPECT_LT(a[i].src, 16);
    EXPECT_GE(a[i].dst, 0);
    EXPECT_LT(a[i].dst, 16);
  }

  WorkloadSpec other = UniformSpec();
  other.seed = 12;
  const std::vector<FlowSpec> c = GenerateFlows(other, ConstantSizeCdf(), 16, Rate::Gbps(100));
  bool any_difference = c.size() != a.size();
  for (size_t i = 0; !any_difference && i < c.size(); ++i) {
    any_difference = c[i].start_time != a[i].start_time || c[i].src != a[i].src;
  }
  EXPECT_TRUE(any_difference) << "changing the seed must change the workload";
}

TEST(FlowGeneratorTest, MaxFlowsTruncatesAndReindexes) {
  WorkloadSpec spec = UniformSpec();
  spec.max_flows = 10;
  const std::vector<FlowSpec> flows =
      GenerateFlows(spec, ConstantSizeCdf(), 16, Rate::Gbps(100));
  ASSERT_EQ(flows.size(), 10u);
  EXPECT_EQ(flows.back().index, 9u);
}

TEST(FlowGeneratorTest, IncastBurstsHaveFaninDistinctSendersIntoVictim) {
  WorkloadSpec spec;
  spec.pattern = TrafficPattern::kIncast;
  spec.load = 0.3;
  spec.window = 2 * kMillisecond;
  spec.incast_fanin = 4;
  spec.incast_victim = 3;
  spec.seed = 5;
  const std::vector<FlowSpec> flows =
      GenerateFlows(spec, ConstantSizeCdf(), 16, Rate::Gbps(100));
  ASSERT_FALSE(flows.empty());

  std::map<TimePs, std::set<int>> bursts;
  for (const FlowSpec& f : flows) {
    EXPECT_EQ(f.dst, 3);
    EXPECT_NE(f.src, 3);
    const bool inserted = bursts[f.start_time].insert(f.src).second;
    EXPECT_TRUE(inserted) << "duplicate sender in one burst";
  }
  for (const auto& [time, senders] : bursts) {
    EXPECT_EQ(senders.size(), 4u) << "burst at " << time;
  }
}

TEST(FlowGeneratorTest, PermutationIsADerangementAndFlowsFollowIt) {
  const std::vector<int> perm = PermutationTargets(9, 16);
  std::set<int> seen;
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(perm[static_cast<size_t>(i)], i);
    seen.insert(perm[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(seen.size(), 16u);

  WorkloadSpec spec = UniformSpec();
  spec.pattern = TrafficPattern::kPermutation;
  spec.seed = 9;
  const std::vector<FlowSpec> flows =
      GenerateFlows(spec, ConstantSizeCdf(), 16, Rate::Gbps(100));
  ASSERT_FALSE(flows.empty());
  for (const FlowSpec& f : flows) {
    EXPECT_EQ(f.dst, perm[static_cast<size_t>(f.src)]);
  }
}

TEST(FlowGeneratorTest, IncastMixContainsBackgroundAndBurstTraffic) {
  WorkloadSpec spec;
  spec.pattern = TrafficPattern::kIncastMix;
  spec.load = 0.4;
  spec.window = 2 * kMillisecond;
  spec.incast_fanin = 4;
  spec.incast_victim = 0;
  spec.incast_fraction = 0.5;
  spec.seed = 21;
  const std::vector<FlowSpec> flows =
      GenerateFlows(spec, ConstantSizeCdf(), 16, Rate::Gbps(100));
  ASSERT_FALSE(flows.empty());
  size_t to_victim = 0;
  size_t background = 0;
  for (const FlowSpec& f : flows) {
    if (f.dst == spec.incast_victim) {
      ++to_victim;
    } else {
      ++background;
    }
  }
  EXPECT_GT(to_victim, 0u);
  EXPECT_GT(background, 0u);
}

// --------------------------------------------------------------------------
// FlowDriver on a live fabric

TEST(FlowDriverTest, AccountsForEveryFlowCompletion) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  config.link_rate = Rate::Gbps(100);

  const FlowSizeCdf cdf = FlowSizeCdf::FromPoints("small", {{2'000, 0.5}, {32'000, 1.0}});
  WorkloadSpec workload;
  workload.pattern = TrafficPattern::kUniform;
  workload.load = 0.2;
  workload.window = 50 * kMicrosecond;
  workload.seed = 7;
  workload.max_flows = 20;

  const FctWorkloadResult result =
      RunFctWorkload(config, workload, cdf, {.deadline = 20 * kMillisecond});
  ASSERT_EQ(result.flows_total, 20u);
  EXPECT_EQ(result.flows_completed, 20u);
  EXPECT_EQ(result.slowdown.count, 20u);
  EXPECT_EQ(result.Slowdowns().size(), 20u);
  EXPECT_GT(result.goodput_gbps, 0.0);
  EXPECT_GT(result.makespan, 0);

  for (const FlowRecord& r : result.records) {
    ASSERT_TRUE(r.completed()) << "flow " << r.spec.index;
    EXPECT_TRUE(r.started);
    EXPECT_GT(r.ideal_fct, 0);
    EXPECT_GT(r.Fct(), 0);
    // The ideal FCT is a line-rate lower bound, so no flow beats it.
    EXPECT_GE(r.Slowdown(), 0.99) << "flow " << r.spec.index;
  }
}

TEST(FlowDriverTest, RunsAreBitIdenticalAcrossInvocations) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  config.link_rate = Rate::Gbps(100);
  config.scheme = Scheme::kRandomSpray;

  const FlowSizeCdf cdf = FlowSizeCdf::FromPoints("small", {{2'000, 0.5}, {32'000, 1.0}});
  WorkloadSpec workload;
  workload.pattern = TrafficPattern::kIncastMix;
  workload.load = 0.3;
  workload.window = 50 * kMicrosecond;
  workload.incast_fanin = 3;
  workload.seed = 13;
  workload.max_flows = 16;

  const FctWorkloadResult a =
      RunFctWorkload(config, workload, cdf, {.deadline = 20 * kMillisecond});
  const FctWorkloadResult b =
      RunFctWorkload(config, workload, cdf, {.deadline = 20 * kMillisecond});
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.slowdown.p99, b.slowdown.p99);
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].completion, b.records[i].completion) << "flow " << i;
  }
}

TEST(FlowDriverTest, IdealFctScalesWithDistanceAndSize) {
  ExperimentConfig config;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  config.link_rate = Rate::Gbps(100);
  Experiment exp(config);
  FlowDriver driver(&exp, {});

  FlowSpec same_rack;
  same_rack.src = 0;
  same_rack.dst = 1;  // hosts are ToR-major: 0 and 1 share ToR 0
  same_rack.bytes = 100'000;
  FlowSpec cross_rack = same_rack;
  cross_rack.dst = 2;  // ToR 1
  EXPECT_LT(driver.IdealFct(same_rack), driver.IdealFct(cross_rack));

  FlowSpec bigger = cross_rack;
  bigger.bytes = 200'000;
  EXPECT_LT(driver.IdealFct(cross_rack), driver.IdealFct(bigger));
}

TEST(MixSeedTest, DistinctStreamsAndIndicesGiveDistinctSeeds) {
  std::set<uint64_t> seeds;
  for (uint64_t stream = 0; stream < 64; ++stream) {
    for (uint64_t index = 0; index < 64; ++index) {
      seeds.insert(MixSeed(1, stream, index));
    }
  }
  EXPECT_EQ(seeds.size(), 64u * 64u);
  EXPECT_NE(MixSeed(1, 0, 0), MixSeed(2, 0, 0));
}

}  // namespace
}  // namespace themis
