// Simulation time primitives.
//
// All simulation time is kept in integer picoseconds so that serialization
// times are exact at every link speed used by the paper's evaluation
// (a 1500 B frame takes exactly 30'000 ps at 400 Gbps and 120'000 ps at
// 100 Gbps). Integer time also guarantees a total, platform-independent
// event order.

#ifndef THEMIS_SRC_SIM_TIME_H_
#define THEMIS_SRC_SIM_TIME_H_

#include <cstdint>

namespace themis {

// Absolute simulation time or a duration, in picoseconds.
using TimePs = int64_t;

inline constexpr TimePs kPicosecond = 1;
inline constexpr TimePs kNanosecond = 1'000;
inline constexpr TimePs kMicrosecond = 1'000'000;
inline constexpr TimePs kMillisecond = 1'000'000'000;
inline constexpr TimePs kSecond = 1'000'000'000'000;

// Sentinel for "no deadline".
inline constexpr TimePs kTimeInfinity = INT64_MAX;

// Converts a duration in picoseconds to fractional microseconds /
// milliseconds for reporting.
constexpr double ToMicroseconds(TimePs t) { return static_cast<double>(t) / kMicrosecond; }
constexpr double ToMilliseconds(TimePs t) { return static_cast<double>(t) / kMillisecond; }
constexpr double ToSeconds(TimePs t) { return static_cast<double>(t) / kSecond; }

// A link or NIC rate. Stored in bits per second; provides exact
// serialization-time arithmetic in picoseconds.
class Rate {
 public:
  constexpr Rate() = default;
  constexpr explicit Rate(int64_t bits_per_second) : bps_(bits_per_second) {}

  static constexpr Rate Gbps(int64_t gbps) { return Rate(gbps * 1'000'000'000); }
  static constexpr Rate Mbps(int64_t mbps) { return Rate(mbps * 1'000'000); }
  static constexpr Rate BitsPerSecond(int64_t bps) { return Rate(bps); }

  constexpr int64_t bps() const { return bps_; }
  constexpr double gbps() const { return static_cast<double>(bps_) / 1e9; }
  constexpr bool IsZero() const { return bps_ == 0; }

  // Time to serialize `bytes` at this rate, rounded up to the next
  // picosecond. Zero-rate serialization is treated as instantaneous to keep
  // degenerate configurations (e.g. an unpaced control channel) harmless.
  constexpr TimePs SerializationTime(int64_t bytes) const {
    if (bps_ <= 0) {
      return 0;
    }
    const int64_t bits = bytes * 8;
    // bits / bps * 1e12, rounded up, in integer math without overflow. Below
    // 2^23 bits (every packet) the product is under 2^63 and the sum under
    // 2^64, so 64-bit division suffices; larger inputs (bits < 2^40,
    // 1e12 < 2^40) take __int128.
    if (static_cast<uint64_t>(bits) < (uint64_t{1} << 23)) {
      const uint64_t bps = static_cast<uint64_t>(bps_);
      return static_cast<TimePs>((static_cast<uint64_t>(bits) * kSecond + bps - 1) / bps);
    }
    const __int128 numer = static_cast<__int128>(bits) * kSecond;
    return static_cast<TimePs>((numer + bps_ - 1) / bps_);
  }

  // Bytes transferable in `duration` at this rate (rounded down).
  constexpr int64_t BytesIn(TimePs duration) const {
    const __int128 bits = static_cast<__int128>(bps_) * duration / kSecond;
    return static_cast<int64_t>(bits / 8);
  }

  constexpr friend bool operator==(Rate a, Rate b) { return a.bps_ == b.bps_; }
  constexpr friend bool operator!=(Rate a, Rate b) { return a.bps_ != b.bps_; }
  constexpr friend bool operator<(Rate a, Rate b) { return a.bps_ < b.bps_; }
  constexpr friend bool operator>(Rate a, Rate b) { return a.bps_ > b.bps_; }
  constexpr friend bool operator<=(Rate a, Rate b) { return a.bps_ <= b.bps_; }
  constexpr friend bool operator>=(Rate a, Rate b) { return a.bps_ >= b.bps_; }

  constexpr Rate operator*(double factor) const {
    return Rate(static_cast<int64_t>(static_cast<double>(bps_) * factor));
  }
  constexpr Rate operator+(Rate other) const { return Rate(bps_ + other.bps_); }
  constexpr Rate operator-(Rate other) const { return Rate(bps_ - other.bps_); }

 private:
  int64_t bps_ = 0;
};

}  // namespace themis

#endif  // THEMIS_SRC_SIM_TIME_H_
