// Strict number, time and rate parsers shared by the .scn scenario grammar
// (src/scenario) and the config field table (src/experiment_service).
//
// Each parser consumes the whole text or fails, and leaves `*out` untouched
// on failure, so "0.5x", "abc" or "2e2us" are errors rather than prefixes:
//
//   ParseInt          decimal integer, range-checked against the target type;
//                     a leading '-' only for signed types, never '+' or spaces
//   ParseNonNegative  ParseInt into an int64 that must not be negative
//   ParseDouble       finite decimal or scientific number ("0.5", "2e-3")
//   ParseTime         digits[.digits] + ps|ns|us|ms|s ("100us", "1.5ms"), in ps
//   ParseRate         non-negative integer bits/s, or digits[.digits] +
//                     K|M|G|T ("100G")

#ifndef THEMIS_SRC_SIM_PARSE_H_
#define THEMIS_SRC_SIM_PARSE_H_

#include <charconv>
#include <cmath>
#include <string_view>
#include <type_traits>

#include "src/sim/time.h"

namespace themis {

template <typename Int>
bool ParseInt(std::string_view text, Int* out) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
  Int value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

inline bool ParseNonNegative(std::string_view text, int64_t* out) {
  int64_t value = 0;
  if (!ParseInt(text, &value) || value < 0) {
    return false;
  }
  *out = value;
  return true;
}

inline bool ParseDouble(std::string_view text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

namespace parse_internal {

struct Unit {
  std::string_view suffix;
  double scale;
};

// digits[.digits] followed by one of `units` (longer suffixes listed first),
// scaled and rounded; false unless the result fits an int64.
template <size_t N>
bool ParseWithUnit(std::string_view text, const Unit (&units)[N], int64_t* out) {
  for (const Unit& unit : units) {
    if (!text.ends_with(unit.suffix)) {
      continue;
    }
    const std::string_view number = text.substr(0, text.size() - unit.suffix.size());
    double value = 0.0;
    if (number.find_first_not_of("0123456789.") != std::string_view::npos ||
        !ParseDouble(number, &value) || value * unit.scale >= 9223372036854775807.0) {
      return false;
    }
    *out = static_cast<int64_t>(value * unit.scale + 0.5);
    return true;
  }
  return false;
}

}  // namespace parse_internal

inline bool ParseTime(std::string_view text, TimePs* out) {
  static constexpr parse_internal::Unit kUnits[] = {
      {"ps", 1.0}, {"ns", 1e3}, {"us", 1e6}, {"ms", 1e9}, {"s", 1e12}};
  return parse_internal::ParseWithUnit(text, kUnits, out);
}

inline bool ParseRate(std::string_view text, Rate* out) {
  static constexpr parse_internal::Unit kUnits[] = {
      {"K", 1e3}, {"M", 1e6}, {"G", 1e9}, {"T", 1e12}};
  int64_t bps = 0;
  if (!ParseNonNegative(text, &bps) && !parse_internal::ParseWithUnit(text, kUnits, &bps)) {
    return false;
  }
  *out = Rate(bps);
  return true;
}

}  // namespace themis

#endif  // THEMIS_SRC_SIM_PARSE_H_
