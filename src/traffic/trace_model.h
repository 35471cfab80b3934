// Trace-calibrated background model: replay of a recorded per-port
// (occupancy, utilization) series.
//
// The calibration loop: run a small full-fidelity experiment with an
// OccupancyRecorder attached, turn the recording into a PortPressureTrace,
// then attach a TraceTrafficModel replaying it to a hybrid run whose
// background flows were removed. The hybrid run's foreground packets then
// see the *measured* queue pressure of the packet-level run instead of an
// analytical stationary point — this is the trace-calibrated variant the
// validation harness compares against full fidelity.

#ifndef THEMIS_SRC_TRAFFIC_TRACE_MODEL_H_
#define THEMIS_SRC_TRAFFIC_TRACE_MODEL_H_

#include <vector>

#include "src/sim/simulator.h"
#include "src/traffic/traffic_model.h"

namespace themis {

class Port;

// A per-port pressure series sampled at a fixed cadence. series[port][k] is
// the pressure during [k * epoch_period, (k+1) * epoch_period).
struct PortPressureTrace {
  TimePs epoch_period = 0;
  std::vector<std::vector<PortPressure>> series;

  size_t num_ports() const { return series.size(); }
  size_t num_epochs() const { return series.empty() ? 0 : series[0].size(); }
};

// Replays a PortPressureTrace. Epochs beyond the recorded series hold the
// last sample (the background regime persists); ports beyond the recording
// read zero pressure. Replay cadence is the *engine's* epoch period — if it
// differs from the recording cadence the epoch index is rescaled.
class TraceTrafficModel : public TrafficModel {
 public:
  explicit TraceTrafficModel(PortPressureTrace trace) : trace_(std::move(trace)) {}

  const char* name() const override { return "trace"; }

  void Bind(size_t num_ports, TimePs epoch_period) override;
  PortPressure Update(size_t port, uint64_t epoch) override;

  const PortPressureTrace& trace() const { return trace_; }

 private:
  PortPressureTrace trace_;
  TimePs engine_period_ = 0;
};

// Samples real per-port (occupancy, utilization) during a full-fidelity run
// on a periodic timer. Utilization is measured as the tx-bytes
// delta over the sample period against link capacity; occupancy is the
// instantaneous data-queue depth. Attach before Run(), then Harvest() after.
class OccupancyRecorder {
 public:
  OccupancyRecorder(Simulator* sim, std::vector<Port*> ports, TimePs period);

  void Start();
  void Stop();

  // The recording so far, ports in the order given at construction.
  PortPressureTrace Harvest() const;

 private:
  void Sample();

  Simulator* sim_;
  std::vector<Port*> ports_;
  TimePs period_;
  std::vector<uint64_t> last_tx_bytes_;
  std::vector<std::vector<PortPressure>> series_;
  PeriodicTimer timer_;
};

}  // namespace themis

#endif  // THEMIS_SRC_TRAFFIC_TRACE_MODEL_H_
