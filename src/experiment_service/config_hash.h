// Stable config hashing and the config field table.
//
// Every sweep grid point is a pure function of its inputs — an
// ExperimentConfig, usually a WorkloadSpec, and a handful of harness knobs.
// The shard manifest and the per-shard completion journals key each point on
// a 64-bit hash of those inputs, so a resumed shard recomputes exactly the
// points whose inputs changed and nothing else, and a merge can verify that
// a journal record was produced by the grid it is being merged into.
//
// The hash is FNV-1a over a *canonical text serialization*: one
// `name=value\n` line per field, in declaration order, with integers in
// decimal, doubles via %.17g (round-trip exact), bools as 0/1, times in
// integer ps, rates in integer bps, and enums by their stable name. It
// deliberately does not hash raw struct bytes: padding and field reordering
// would silently change hashes.
//
// Each serialized struct declares its fields once, in a table in
// config_hash.cc (name, member, codec, doc). The canonical text, its strict
// inverse SetField, and the CLIs' `--set` and `--help` all derive from those
// tables. A member added without a row fails a static_assert on the
// struct's aggregate arity, on every platform; the config-hash golden table
// in tests/experiment_service_test.cc (regenerated via the regen-goldens
// target) fails when the serialization of an existing field drifts.

#ifndef THEMIS_SRC_EXPERIMENT_SERVICE_CONFIG_HASH_H_
#define THEMIS_SRC_EXPERIMENT_SERVICE_CONFIG_HASH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/experiment.h"
#include "src/workload/flow_generator.h"

namespace themis {

// Incremental FNV-1a over canonical `name=value\n` lines. Field order
// matters (it follows struct declaration order), and names must not contain
// '=' or '\n'. The canonical text is kept alongside the hash so tests and
// tooling can diff *what* changed, not just that something did.
class ConfigHasher {
 public:
  void Field(std::string_view name, uint64_t value);
  void Field(std::string_view name, int64_t value);
  void Field(std::string_view name, int value) { Field(name, static_cast<int64_t>(value)); }
  void Field(std::string_view name, bool value);
  void Field(std::string_view name, double value);
  void Field(std::string_view name, std::string_view value);
  // Literal values would otherwise prefer the bool overload.
  void Field(std::string_view name, const char* value) {
    Field(name, std::string_view(value));
  }

  uint64_t hash() const { return hash_; }
  const std::string& canonical_text() const { return text_; }

 private:
  void AppendLine(std::string_view name, std::string_view value);

  static constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kFnvPrime = 0x00000100000001b3ULL;

  uint64_t hash_ = kFnvOffset;
  std::string text_;
};

// Serializes every field of `config` (including nested EcnProfile, scenario
// script, and flow-table geometry) into `h`, in declaration order.
void AppendFields(ConfigHasher& h, const ExperimentConfig& config);

// Serializes a workload spec (the other half of an FCT grid point).
void AppendFields(ConfigHasher& h, const WorkloadSpec& workload);

// Applies one canonical `name=value` line: `name` as the canonical text
// prints it ("ecn.pmax", "scenario.event0.at", "workload.load"), `value` in
// that field's grammar. Times also take the .scn spelling ("100us") and
// rates a unit suffix ("100G"). Setting "scenario.events" resizes the event
// list (at most 4096); event fields need an index below it. On failure
// returns false, leaves the struct unchanged and fills `error` (if non-null)
// with a message that names the field.
bool SetField(ExperimentConfig& config, std::string_view name, std::string_view value,
              std::string* error);
bool SetField(WorkloadSpec& workload, std::string_view name, std::string_view value,
              std::string* error);

// One settable field, as the CLIs' --help and the tests see it.
struct ConfigField {
  std::string name;     // canonical, as AppendFields prints it
  std::string value;    // canonical value text in the described struct
  std::string grammar;  // int, uint, number, 0|1, time, rate, text, count <= N, or a|b|c
  std::string doc;
};
// Every line AppendFields prints for `config` / `workload`, in order (so one
// set of scenario.event<i>.* fields per event).
std::vector<ConfigField> ConfigFields(const ExperimentConfig& config);
std::vector<ConfigField> ConfigFields(const WorkloadSpec& workload);

// Hash of an FCT-style grid point: fabric config + workload + the flow-size
// distribution (by name — bundled CDFs are versioned data) + the harness
// deadline.
uint64_t FctPointHash(const ExperimentConfig& config, const WorkloadSpec& workload,
                      std::string_view cdf_name, TimePs deadline);

// What a collective grid point (grids.h) runs on its fabric.
struct CollectiveRun {
  CollectiveKind kind = CollectiveKind::kAllreduce;
  uint64_t bytes = 0;
  // Each group's ranks; when empty, `cross_rack_groups` groups of one host
  // per ToR (Experiment::MakeCrossRackGroups).
  std::vector<std::vector<int>> groups;
  int cross_rack_groups = 0;
  TimePs deadline = 0;
  // One direction of one link blackholed: spine kLossSpine's egress port
  // kLossPort (spine 0's downlink to rack 1) drops every packet it would
  // send from kLossAt for kLossDuration.
  bool with_loss = false;
  static constexpr int kLossSpine = 0;
  static constexpr int kLossPort = 1;
  static constexpr TimePs kLossAt = 30 * kMicrosecond;
  static constexpr TimePs kLossDuration = 10 * kMicrosecond;
};

// Hash of a collective grid point: fabric config + collective kind, bytes
// and group count + harness deadline, which is a Fig. 5 point's whole text;
// then only what a point has: one line per explicit group, the loss window,
// and `label`, the text its row shows in place of the scheme name.
uint64_t CollectivePointHash(const ExperimentConfig& config, const CollectiveRun& run,
                             std::string_view label);

// One fault run of a chaos grid point: the point's clean run plus `script`.
struct ChaosFaultRun {
  std::string label;  // the row's fault cell
  ScenarioScript script;
};

// Hash of a chaos grid point: its clean run's FctPointHash text, then each
// fault run's label ("fault<i>=") and script fields ("fault<i>.").
uint64_t ChaosPointHash(const ExperimentConfig& clean, const WorkloadSpec& workload,
                        std::string_view cdf_name, TimePs deadline,
                        const std::vector<ChaosFaultRun>& faults);

// Hash of a hybrid validation point: its baseline run's FctPointHash text,
// then the background workload ("background."; the full run sends it as
// packets, the calibration run alone, the fluid run models its load) and the
// calibration period, the cadence of the trace the trace run replays.
uint64_t HybridPointHash(const ExperimentConfig& baseline, const WorkloadSpec& foreground,
                         std::string_view cdf_name, TimePs deadline,
                         const WorkloadSpec& background, TimePs calibration_period);

// The representative set pinned by the config-hash golden table. Labels are
// stable identifiers; the configs exercise every serialization branch
// (fat-tree, fluid background, bounded flow table, scenario events, workload
// coupling) and every enum token.
struct ConfigHashGoldenCase {
  std::string label;
  uint64_t hash;
  std::string canonical_text;  // what `hash` digests
};
std::vector<ConfigHashGoldenCase> ConfigHashGoldenCases();

}  // namespace themis

#endif  // THEMIS_SRC_EXPERIMENT_SERVICE_CONFIG_HASH_H_
