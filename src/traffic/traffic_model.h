// Background-load models for hybrid packet/flow fidelity.
//
// Pure packet-level simulation caps the reproduction at a few thousand hosts;
// the hybrid engine keeps *foreground* flows (the ones whose FCT / Themis
// behaviour is measured) packet-by-packet while everything else — the
// "millions of users" background — is an analytical flow-level model that
// drives per-port queue pressure. A TrafficModel converts a per-port offered
// background load into (occupancy bytes, link utilization) per coarse epoch;
// the BackgroundTrafficEngine (background_engine.h) applies those to Ports as
// exogenous pressure: folded into queue-depth reads (adaptive routing), into
// WRED/ECN marking, and into serialization-slot stealing so foreground
// packets see realistic drain delay.
//
// Determinism contract: a model's output is a pure function of (config seed,
// port index, epoch index) — epochs are visited in order, once each, from a
// periodic timer — so hybrid runs are byte-identical across sweep threads
// and repeat runs. With no model attached nothing in the hot path changes.

#ifndef THEMIS_SRC_TRAFFIC_TRAFFIC_MODEL_H_
#define THEMIS_SRC_TRAFFIC_TRAFFIC_MODEL_H_

#include <cstddef>
#include <cstdint>

#include "src/sim/time.h"

namespace themis {

// How an Experiment constructs its background model from config alone
// (trace-calibrated models carry data and attach via
// Experiment::AttachTrafficModel instead).
enum class TrafficModelKind : uint8_t {
  kNone = 0,   // pure packet-level simulation (default; hot path untouched)
  kFluid = 1,  // M/M/1-style analytical model (fluid_model.h)
  kTrace = 2,  // replay of a recorded per-port occupancy series (trace_model.h)
};

constexpr const char* TrafficModelKindName(TrafficModelKind kind) {
  switch (kind) {
    case TrafficModelKind::kNone:
      return "none";
    case TrafficModelKind::kFluid:
      return "fluid";
    case TrafficModelKind::kTrace:
      return "trace";
  }
  return "?";
}

// The exogenous pressure one port exposes during one epoch.
struct PortPressure {
  // Virtual queue occupancy (bytes) standing behind the port's real queue:
  // read by depth-based LB policies and by the WRED/ECN profile.
  int64_t occupancy_bytes = 0;
  // Fraction of the link's serialization capacity consumed by background
  // packets; foreground service time is inflated by 1/(1 - utilization)
  // (processor sharing). Clamped by the engine to [0, kMaxUtilization].
  double utilization = 0.0;
};

class TrafficModel {
 public:
  // Utilization cap: a model may ask for more, the engine saturates here so
  // slot stealing never divides by zero (20x drain inflation at the cap).
  static constexpr double kMaxUtilization = 0.95;

  virtual ~TrafficModel() = default;
  virtual const char* name() const = 0;

  // Called once when the engine adopts the model: the number of driven ports
  // and the epoch cadence. Models allocate per-port state here.
  virtual void Bind(size_t num_ports, TimePs epoch_period) = 0;

  // Pressure for `port` during `epoch`. The engine calls this exactly once
  // per (port, epoch), ports in ascending order within each epoch, epochs in
  // ascending order — models may therefore keep per-port recurrence state
  // (AR(1) levels, replay cursors) and stay deterministic.
  virtual PortPressure Update(size_t port, uint64_t epoch) = 0;
};

}  // namespace themis

#endif  // THEMIS_SRC_TRAFFIC_TRAFFIC_MODEL_H_
