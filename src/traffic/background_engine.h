// BackgroundTrafficEngine: applies a TrafficModel's per-port pressure to
// live Ports on a coarse epoch timer.
//
// Placement in the two-tier scheduler: the epoch timer is a PeriodicTimer
// on the callback heap — one event per epoch (default 5 us, vs. the ~120 ns
// per-packet quantum), so the calendar-queue hot path never sees the
// engine. Epoch 0 is applied synchronously from Start() before any packet
// moves; each subsequent epoch fires at k * period and walks the driven
// ports in index order calling TrafficModel::Update — exactly the in-order,
// once-per-(port, epoch) contract models rely on for determinism.
//
// The engine never touches the simulator RNG: every stochastic draw lives
// inside the model behind per-port MixSeed streams, so attaching an engine
// perturbs no other component's draw sequence.

#ifndef THEMIS_SRC_TRAFFIC_BACKGROUND_ENGINE_H_
#define THEMIS_SRC_TRAFFIC_BACKGROUND_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/traffic/traffic_model.h"

namespace themis {

class Port;
class Switch;
class CounterRegistry;

// All connected egress ports of `switches`, switch-major then port-index
// order: the deterministic port enumeration shared by the engine wiring and
// the OccupancyRecorder, so a trace recorded against a topology replays onto
// the same port list. Host-facing and fabric-facing ports both included;
// callers wanting only fabric ports filter with Switch::IsHostPort.
std::vector<Port*> SwitchEgressPorts(const std::vector<Switch*>& switches);

struct TrafficEngineStats {
  uint64_t epochs = 0;             // epoch updates applied (incl. epoch 0)
  uint64_t port_updates = 0;       // model Update() calls
  uint64_t exo_bytes_total = 0;    // sum of applied occupancy over all updates
  uint64_t exo_bytes_peak = 0;     // max total exogenous bytes in one epoch
};

class BackgroundTrafficEngine {
 public:
  // The engine drives `ports` (index order fixed at construction) from
  // `model` every `epoch_period`. Takes ownership of the model.
  BackgroundTrafficEngine(Simulator* sim, std::unique_ptr<TrafficModel> model,
                          std::vector<Port*> ports, TimePs epoch_period);
  ~BackgroundTrafficEngine();

  BackgroundTrafficEngine(const BackgroundTrafficEngine&) = delete;
  BackgroundTrafficEngine& operator=(const BackgroundTrafficEngine&) = delete;

  // Applies epoch 0 immediately and arms the periodic timer. Call after the
  // topology is built and before Run().
  void Start();

  // Cancels the timer and zeroes all exogenous pressure.
  void Stop();

  const TrafficEngineStats& stats() const { return stats_; }
  TrafficModel* model() const { return model_.get(); }
  TimePs epoch_period() const { return epoch_period_; }
  size_t num_ports() const { return ports_.size(); }
  bool running() const { return running_; }

  // Registers traffic.* counters/gauges: aggregate epoch/update/byte
  // counters plus a per-port exogenous-occupancy gauge named
  // "<prefix>.p<i>.exo_bytes". Addresses are stable for the engine lifetime.
  void RegisterCounters(CounterRegistry& registry, const std::string& prefix) const;

  // Current total exogenous bytes across driven ports (telemetry gauge).
  int64_t TotalExogenousBytes() const;

 private:
  void ApplyEpoch();

  Simulator* sim_;
  std::unique_ptr<TrafficModel> model_;
  std::vector<Port*> ports_;
  TimePs epoch_period_;
  uint64_t next_epoch_ = 0;
  bool running_ = false;
  TrafficEngineStats stats_;
  PeriodicTimer timer_;
};

}  // namespace themis

#endif  // THEMIS_SRC_TRAFFIC_BACKGROUND_ENGINE_H_
