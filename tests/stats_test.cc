// Tests for the statistics library: summaries, tables and CSV output.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "src/stats/report.h"
#include "src/stats/summary.h"

namespace themis {
namespace {

// Golden percentile values under the NumPy-linear interpolation convention:
// with 101 values 0..100, the q-quantile is exactly 100*q.
TEST(PercentileTest, GoldenValuesOnIntegerRamp) {
  std::vector<double> values;
  for (int i = 100; i >= 0; --i) {  // reversed: PercentileOf must sort
    values.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(PercentileOf(values, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(PercentileOf(values, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(PercentileOf(values, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(PercentileOf(values, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(PercentileOf(values, 1.0), 100.0);
}

// Hand-computed interpolated golden values on a 5-element input: rank
// q*(n-1) lands between order statistics, e.g. p95 -> rank 3.8 ->
// 0.2*40 + 0.8*50 = 48.
TEST(PercentileTest, GoldenInterpolatedValues) {
  const std::vector<double> values = {30.0, 10.0, 50.0, 20.0, 40.0};
  EXPECT_DOUBLE_EQ(PercentileOf(values, 0.50), 30.0);
  EXPECT_DOUBLE_EQ(PercentileOf(values, 0.90), 46.0);
  EXPECT_DOUBLE_EQ(PercentileOf(values, 0.95), 48.0);
  EXPECT_DOUBLE_EQ(PercentileOf(values, 0.99), 49.6);
}

TEST(PercentileTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(PercentileOf({}, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(PercentileOf({42.0}, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(PercentileOf({42.0}, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(PercentileOf({42.0}, 1.0), 42.0);
}

TEST(PercentileSummaryTest, MatchesPercentileOfAndCountsSamples) {
  std::vector<double> values;
  for (int i = 0; i <= 100; ++i) {
    values.push_back(static_cast<double>(i));
  }
  const PercentileSummary s = PercentileSummary::Of(values);
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p90, 90.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);

  const PercentileSummary empty = PercentileSummary::Of({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);
}

TEST(ScalarSummaryTest, ComputesMoments) {
  const auto s = ScalarSummary::Of({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
  EXPECT_EQ(s.count, 8u);
}

TEST(ScalarSummaryTest, EmptyIsSafe) {
  const auto s = ScalarSummary::Of({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(TableTest, RendersAlignedColumns) {
  Table table({"scheme", "time"});
  table.AddRow({"ECMP", "12.5"});
  table.AddRow({"Themis", "3.1"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("scheme"), std::string::npos);
  EXPECT_NE(out.find("Themis"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(TableTest, WritesCsv) {
  Table table({"a", "b"});
  table.AddRow({"1", "2"});
  table.AddRow({"3", "4"});
  const std::string path = "/tmp/themis_stats_test.csv";
  ASSERT_TRUE(table.WriteCsv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

// A write that fails after the file opened (here: no space left) is a
// failure, not a silently truncated table.
TEST(TableTest, WriteCsvFailsWhenTheDeviceIsFull) {
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  Table table({"a", "b"});
  table.AddRow({"1", "2"});
  EXPECT_FALSE(table.WriteCsv("/dev/full"));
}

TEST(FormatDoubleTest, RespectsDecimals) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 0), "3");
  EXPECT_EQ(FormatDouble(100.0, 1), "100.0");
}

}  // namespace
}  // namespace themis
