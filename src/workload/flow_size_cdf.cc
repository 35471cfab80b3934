#include "src/workload/flow_size_cdf.h"

#include <cassert>
#include <cmath>
#include <fstream>
#include <sstream>

namespace themis {

namespace {

// Validation shared by FromPoints (assert) and Parse (error string).
std::string ValidatePoints(const std::vector<FlowSizeCdf::Point>& points) {
  if (points.empty()) {
    return "CDF has no points";
  }
  if (points.front().cum_prob < 0.0) {
    return "first cumulative probability is negative";
  }
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].bytes < points[i - 1].bytes) {
      return "flow sizes must be non-decreasing (line " + std::to_string(i + 1) + ")";
    }
    if (points[i].cum_prob < points[i - 1].cum_prob) {
      return "cumulative probabilities must be non-decreasing (line " +
             std::to_string(i + 1) + ")";
    }
  }
  if (std::abs(points.back().cum_prob - 1.0) > 1e-9) {
    return "last cumulative probability must be 1.0";
  }
  return "";
}

// Mean of the piecewise-linear interpolant: the first point carries mass
// p0 at bytes0; each segment carries (p_i - p_{i-1}) spread uniformly over
// [bytes_{i-1}, bytes_i].
double ComputeMean(const std::vector<FlowSizeCdf::Point>& points) {
  double mean = points.front().cum_prob * static_cast<double>(points.front().bytes);
  for (size_t i = 1; i < points.size(); ++i) {
    const double mass = points[i].cum_prob - points[i - 1].cum_prob;
    const double mid =
        0.5 * (static_cast<double>(points[i].bytes) + static_cast<double>(points[i - 1].bytes));
    mean += mass * mid;
  }
  return mean;
}

}  // namespace

FlowSizeCdf FlowSizeCdf::FromPoints(std::string name, std::vector<Point> points) {
  const std::string error = ValidatePoints(points);
  assert(error.empty() && "invalid builtin CDF table");
  (void)error;
  FlowSizeCdf cdf;
  cdf.name_ = std::move(name);
  cdf.points_ = std::move(points);
  cdf.mean_bytes_ = ComputeMean(cdf.points_);
  return cdf;
}

bool FlowSizeCdf::Parse(const std::string& name, const std::string& text, FlowSizeCdf* out,
                        std::string* error) {
  std::vector<Point> points;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    double bytes = 0.0;
    double prob = 0.0;
    if (!(fields >> bytes)) {
      continue;  // blank / comment-only line
    }
    if (!(fields >> prob) || bytes < 0.0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": expected '<bytes> <cum_prob>'";
      }
      return false;
    }
    std::string rest;
    if (fields >> rest) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": trailing garbage '" + rest + "'";
      }
      return false;
    }
    // A knee is a uint64_t byte count: a fraction would be truncated, and a
    // value of 2^64 or more has no uint64_t to convert to.
    constexpr double kTwoTo64 = 18446744073709551616.0;
    if (bytes != std::floor(bytes) || bytes >= kTwoTo64) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) +
                 ": flow size must be a whole number of bytes below 2^64";
      }
      return false;
    }
    points.push_back(Point{static_cast<uint64_t>(bytes), prob});
  }
  const std::string invalid = ValidatePoints(points);
  if (!invalid.empty()) {
    if (error != nullptr) {
      *error = invalid;
    }
    return false;
  }
  // The generator turns a load into an arrival rate by dividing by the mean.
  const double mean = ComputeMean(points);
  if (!(mean > 0.0)) {
    if (error != nullptr) {
      *error = "mean flow size must be positive";
    }
    return false;
  }
  FlowSizeCdf cdf;
  cdf.name_ = name;
  cdf.points_ = std::move(points);
  cdf.mean_bytes_ = mean;
  *out = std::move(cdf);
  return true;
}

bool FlowSizeCdf::LoadFile(const std::string& path, FlowSizeCdf* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "'";
    }
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  // Name the CDF after the file's basename, extension stripped.
  std::string name = path;
  const size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) {
    name.erase(0, slash + 1);
  }
  const size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) {
    name.resize(dot);
  }
  return Parse(name, text.str(), out, error);
}

const FlowSizeCdf& FlowSizeCdf::WebSearch() {
  // DCTCP-style web-search mix: mostly short queries, a heavy tail of
  // multi-MB responses. Knees follow the shape of the widely used
  // websearch distribution file.
  static const FlowSizeCdf cdf = FromPoints(
      "websearch", {
                       {6'000, 0.15},
                       {13'000, 0.20},
                       {19'000, 0.30},
                       {33'000, 0.40},
                       {53'000, 0.53},
                       {133'000, 0.60},
                       {667'000, 0.70},
                       {1'333'000, 0.80},
                       {3'333'000, 0.90},
                       {6'667'000, 0.97},
                       {20'000'000, 1.00},
                   });
  return cdf;
}

const FlowSizeCdf& FlowSizeCdf::Hadoop() {
  // Facebook-Hadoop-style: dominated by sub-KB RPCs with a sparse tail of
  // multi-MB shuffle transfers.
  static const FlowSizeCdf cdf = FromPoints(
      "hadoop", {
                    {180, 0.10},
                    {300, 0.30},
                    {600, 0.50},
                    {1'500, 0.65},
                    {10'000, 0.80},
                    {70'000, 0.90},
                    {500'000, 0.95},
                    {3'000'000, 0.99},
                    {10'000'000, 1.00},
                });
  return cdf;
}

const FlowSizeCdf& FlowSizeCdf::AliStorage() {
  // Alibaba-storage-style: bimodal — small metadata IO plus large object
  // reads/writes concentrated at a few fixed sizes.
  static const FlowSizeCdf cdf = FromPoints(
      "alistorage", {
                        {500, 0.20},
                        {1'000, 0.35},
                        {4'000, 0.475},
                        {16'000, 0.55},
                        {64'000, 0.60},
                        {256'000, 0.70},
                        {1'000'000, 0.80},
                        {2'000'000, 0.90},
                        {4'000'000, 1.00},
                    });
  return cdf;
}

uint64_t FlowSizeCdf::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  // First knee at or above u.
  size_t i = 0;
  while (i < points_.size() && points_[i].cum_prob < u) {
    ++i;
  }
  if (i >= points_.size()) {
    i = points_.size() - 1;  // u drew in [p_last - eps, 1)
  }
  uint64_t bytes;
  if (i == 0 || points_[i].cum_prob <= points_[i - 1].cum_prob) {
    bytes = points_[i].bytes;
  } else {
    const double frac =
        (u - points_[i - 1].cum_prob) / (points_[i].cum_prob - points_[i - 1].cum_prob);
    const double lo = static_cast<double>(points_[i - 1].bytes);
    const double hi = static_cast<double>(points_[i].bytes);
    bytes = static_cast<uint64_t>(lo + frac * (hi - lo));
  }
  return bytes > 0 ? bytes : 1;
}

double FlowSizeCdf::CdfAt(uint64_t bytes) const {
  if (bytes >= points_.back().bytes) {
    return 1.0;
  }
  if (bytes <= points_.front().bytes) {
    // Mass at/below the first knee scales linearly from zero.
    return points_.front().cum_prob * static_cast<double>(bytes) /
           static_cast<double>(points_.front().bytes == 0 ? 1 : points_.front().bytes);
  }
  size_t i = 1;
  while (points_[i].bytes < bytes) {
    ++i;
  }
  const double lo = static_cast<double>(points_[i - 1].bytes);
  const double hi = static_cast<double>(points_[i].bytes);
  const double frac = hi > lo ? (static_cast<double>(bytes) - lo) / (hi - lo) : 1.0;
  return points_[i - 1].cum_prob + frac * (points_[i].cum_prob - points_[i - 1].cum_prob);
}

}  // namespace themis
