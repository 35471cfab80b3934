// ScenarioScript: a deterministic, seeded fault-injection campaign.
//
// A script is a flat list of fault events — link flaps, switch reboots, gray
// failures, asymmetric link degradation — each anchored at an absolute
// simulation time with an optional repeat schedule. The script is pure data:
// parsing consults no simulator or topology state, so the same text yields a
// byte-identical event list anywhere. Target strings are resolved against a
// concrete Topology by the ScenarioEngine (scenario_engine.h), which is also
// where every stochastic draw (down-time distributions, gray per-packet
// outcomes) happens, from MixSeed-derived streams keyed on (scenario seed,
// event index, occurrence/port) — never the simulator RNG — so campaigns are
// thread- and order-invariant like src/traffic.
//
// Text format: one directive per line, `#` comments, key=value operands.
//
//   seed 7                     # scenario RNG seed (0/absent = experiment seed)
//   sample-period 20us         # RecoveryTracker goodput-probe cadence
//   restore-fraction 0.9       # recovered when goodput >= fraction * baseline
//   flap    target=tor0:up0 at=2ms down=100us repeat=3 period=500us
//   reboot  target=spine1 at=5ms down=1ms
//   gray    target=spine0:* at=1ms duration=8ms drop=1e-4 corrupt=1e-4
//   degrade target=tor1:up1 at=1ms duration=3ms factor=0.25
//
// Times take a ps/ns/us/ms/s suffix. Down-times may be distributions:
// `down=100us` (fixed), `down=uniform:50us:150us`, `down=exp:100us` (mean).
// Targets: `<switch>` = every connected port, `<switch>:p<i>` = raw port
// index, `<switch>:up<i>` = i-th non-host port, `:up*` / `:*` wildcards, and
// a trailing `*` on the switch name prefix-matches (`spine*`).

#ifndef THEMIS_SRC_SCENARIO_SCENARIO_SCRIPT_H_
#define THEMIS_SRC_SCENARIO_SCENARIO_SCRIPT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/time.h"

namespace themis {

enum class FaultKind : uint8_t {
  kLinkFlap = 0,      // fail the target ports, restore after a down-time
  kSwitchReboot = 1,  // fail every port of a switch + flush its Themis state
  kGrayFailure = 2,   // per-packet drop/corrupt at a low rate for a window
  kLinkDegrade = 3,   // temporary rate reduction for a window
};

constexpr const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkFlap:
      return "flap";
    case FaultKind::kSwitchReboot:
      return "reboot";
    case FaultKind::kGrayFailure:
      return "gray";
    case FaultKind::kLinkDegrade:
      return "degrade";
  }
  return "?";
}

// Down-time (outage length) specification: fixed, uniform, or exponential.
// Draws are per-occurrence from a caller-provided Rng stream.
struct DownTimeSpec {
  enum class Dist : uint8_t { kFixed = 0, kUniform = 1, kExponential = 2 };
  Dist dist = Dist::kFixed;
  TimePs a = 0;  // fixed value / uniform low / exponential mean
  TimePs b = 0;  // uniform high

  TimePs Draw(Rng& rng) const;
};

struct ScenarioEvent {
  FaultKind kind = FaultKind::kLinkFlap;
  std::string target;   // unresolved target expression (see header comment)
  TimePs at = 0;        // first occurrence
  int repeat = 1;       // number of occurrences
  TimePs period = 0;    // spacing between occurrence starts (repeat > 1)
  DownTimeSpec down;    // flap/reboot outage length
  TimePs duration = 0;  // gray/degrade fault window
  double drop_prob = 0.0;     // gray: per-packet loss probability
  double corrupt_prob = 0.0;  // gray: per-packet corruption probability
  double factor = 1.0;        // degrade: rate multiplier in (0, 1)
};

struct ScenarioScript {
  uint64_t seed = 0;  // 0 = inherit the experiment seed
  TimePs sample_period = 20 * kMicrosecond;
  double restore_fraction = 0.9;
  std::vector<ScenarioEvent> events;

  bool empty() const { return events.empty(); }
};

// The most fault occurrences (the sum of every event's repeat) one script may
// schedule; ScenarioEngine allocates two timers per occurrence.
inline constexpr int64_t kMaxScenarioOccurrences = 1 << 16;

// The latest time a fault may clear: one simulated hour, far beyond any run
// and far below the int64 limit, so the engine's timer arithmetic cannot
// overflow.
inline constexpr TimePs kMaxScenarioTime = 3600 * kSecond;

// Parses scenario text. On failure returns false and (if non-null) fills
// `error` with a "line N: reason" message; `out` is left in an unspecified
// state. Validation here is syntactic + the ValidateScenario range checks;
// target existence is checked by ScenarioEngine::Attach against the real
// topology.
bool ParseScenario(const std::string& text, ScenarioScript* out, std::string* error);

// The range checks ParseScenario applies, for a script filled in field by
// field (the config table's `--set scenario.*`): a positive sample period, a
// target per event, non-negative times, windows, probabilities and factors in
// range, repeat >= 1 (above 1 with a period), at most
// kMaxScenarioOccurrences occurrences in all, and every occurrence cleared by
// kMaxScenarioTime even at its longest down-time. On failure fills `error`
// (if non-null) with "scenario: reason" or "scenario.event<i>: reason".
bool ValidateScenario(const ScenarioScript& script, std::string* error);

// Reads and parses a scenario file.
bool LoadScenarioFile(const std::string& path, ScenarioScript* out, std::string* error);

// Built-in presets mirroring the scripts under examples/scenarios/ so
// benchmarks and the CLI can name a campaign without a file path:
// "tor-uplink-flap" and "gray-spine". Returns false for unknown names.
bool ScenarioPreset(const std::string& name, ScenarioScript* out);

// Names of all built-in presets, for --help output.
std::vector<std::string> ScenarioPresetNames();

}  // namespace themis

#endif  // THEMIS_SRC_SCENARIO_SCENARIO_SCRIPT_H_
