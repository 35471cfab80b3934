// ScenarioEngine: executes a ScenarioScript against a live experiment.
//
// The engine resolves each event's target expression against the topology at
// Attach() time (failing loudly on typos — a chaos campaign that silently
// faults nothing is worse than a crash), then schedules every fault
// occurrence as a pair of Timers: apply at `at_k`, clear at
// `at_k + down_k` / `at_k + duration`. Alongside, a PeriodicTimer samples
// the RecoveryTracker probes (delivered bytes, drops).
//
// Determinism contract (mirrors src/traffic):
//   * the engine never touches the simulator RNG — every stochastic draw
//     (down-time distributions, gray per-packet outcomes) comes from private
//     Rng streams seeded MixSeed(scenario seed, event index, occurrence) and
//     MixSeed(seed, event*kOccStride + occurrence, port slot) respectively,
//     so results are independent of sweep threading and event order;
//   * an empty script constructs no engine, arms no timers, and perturbs
//     nothing — chaos-off runs are bit-exactly the no-scenario runs (pinned
//     by the determinism goldens);
//   * timers live on the callback heap like all periodic machinery, so
//     campaign overhead is O(log n) per occurrence.
//
// Fault semantics:
//   flap    — Port::set_failed(true) on every resolved port (both directions
//             of each link are listed explicitly by the target); restore
//             kicks the port's transmit loop (see Port::set_failed).
//   reboot  — fail *all* connected ports of the switch; additionally flush
//             the switch's Themis-D flow state (dataplane registers do not
//             survive a reboot).
//   gray    — install an owned Port::GrayFault (drop/corrupt probabilities +
//             per-port Rng) for the window; remove at window end.
//   degrade — Port::set_degrade_factor(f) for the window; restore to 1.0.

#ifndef THEMIS_SRC_SCENARIO_SCENARIO_ENGINE_H_
#define THEMIS_SRC_SCENARIO_SCENARIO_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/port.h"
#include "src/scenario/recovery_tracker.h"
#include "src/scenario/scenario_script.h"
#include "src/sim/simulator.h"
#include "src/topo/topology.h"

namespace themis {

class CounterRegistry;
class RnicHost;
class ThemisDeployment;

struct ScenarioEngineStats {
  uint64_t faults_applied = 0;
  uint64_t faults_cleared = 0;
  uint64_t ports_failed = 0;    // port-fail actions (flap + reboot)
  uint64_t gray_windows = 0;    // gray windows opened
  uint64_t degrade_windows = 0;
  uint64_t gray_drops = 0;      // summed from GrayFault instances at clear
  uint64_t gray_corrupts = 0;
};

class ScenarioEngine {
 public:
  // `default_seed` backs script.seed == 0 (inherit the experiment seed).
  ScenarioEngine(Simulator* sim, const ScenarioScript& script, uint64_t default_seed);
  ~ScenarioEngine();

  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;

  // Resolves every event target against `topo`. Returns false (with a
  // human-readable `error`) when the script fails ValidateScenario, whose
  // bounds keep Start's time arithmetic in range, or when a target matches
  // nothing. `themis` may be null (non-Themis schemes); `hosts` feeds the
  // delivered-bytes probe and victim-flow counting.
  bool Attach(Topology& topo, ThemisDeployment* themis,
              const std::vector<RnicHost*>& hosts, std::string* error);

  // Arms all occurrence timers and the probe ticker. Call once, after
  // Attach, before Run.
  void Start();

  // Run end: final probe tick, close the tracker, harvest gray tallies.
  void Finalize();

  const RecoveryTracker& tracker() const { return tracker_; }
  const ScenarioEngineStats& stats() const { return stats_; }
  const ScenarioScript& script() const { return script_; }

  // Registers scenario.* counters (pull model; registry must outlive the
  // engine).
  void RegisterCounters(CounterRegistry& registry, const std::string& prefix);

 private:
  // One scheduled fault occurrence: the ports it manipulates, its private
  // down-time stream, and its apply/clear timers.
  struct Occurrence {
    int event_index = 0;
    int occurrence = 0;
    const Switch* reboot_switch = nullptr;  // non-null for kSwitchReboot
    // Further switches a wildcard reboot target matched beyond the first.
    std::vector<const Switch*> extra_reboot_switches;
    std::vector<Port*> ports;
    size_t record_id = 0;  // valid while open
    bool open = false;
    std::unique_ptr<Timer> apply_timer;
    std::unique_ptr<Timer> clear_timer;
    // Owned gray state, one per port, installed/removed at window edges.
    std::vector<std::unique_ptr<GrayFault>> gray;
    // Per-QP (rtx_packets + timeouts) snapshot at apply, for victim counts.
    std::unordered_map<const void*, uint64_t> victim_snapshot;
  };

  void OnApply(Occurrence& occ);
  void OnClear(Occurrence& occ);
  void ProbeTick();
  uint64_t DeliveredBytes() const;
  uint64_t DropTotal() const;
  void SnapshotVictims(Occurrence& occ);
  uint64_t CountVictims(const Occurrence& occ) const;

  // Resolves one target expression into ports; appends to `out`. Returns
  // false + error message when nothing matches.
  bool ResolveTarget(const ScenarioEvent& event, Topology& topo,
                     std::vector<Occurrence*>& slots, std::string* error);

  Simulator* sim_;
  ScenarioScript script_;
  uint64_t seed_;
  Topology* topo_ = nullptr;
  ThemisDeployment* themis_ = nullptr;
  std::vector<RnicHost*> hosts_;

  std::vector<std::unique_ptr<Occurrence>> occurrences_;
  RecoveryTracker tracker_;
  PeriodicTimer probe_timer_;
  ScenarioEngineStats stats_;
  uint64_t open_faults_gauge_ = 0;
};

}  // namespace themis

#endif  // THEMIS_SRC_SCENARIO_SCENARIO_ENGINE_H_
