// DCQCN (Zhu et al., SIGCOMM'15) reaction-point implementation.
//
// Knobs follow the paper's evaluation: TI (`rate_increase_period`) is the
// timer driving rate recovery; TD (`rate_decrease_interval`) is the minimum
// spacing between consecutive multiplicative decreases. Figure 5 sweeps
// (TI, TD) over {(900,4),(300,4),(10,4),(10,50),(10,200)} microseconds.
//
// Reaction to NACKs is the commodity-RNIC behaviour Section 2.2 describes:
// a NACK enters the same decrease path as a CNP (enabled by
// `react_to_nack`), producing the spurious slow starts Themis eliminates.

#ifndef THEMIS_SRC_CC_DCQCN_H_
#define THEMIS_SRC_CC_DCQCN_H_

#include "src/cc/congestion_control.h"
#include "src/sim/simulator.h"

namespace themis {

struct DcqcnConfig {
  Rate line_rate = Rate::Gbps(400);
  Rate min_rate = Rate::Mbps(100);

  double g = 1.0 / 256.0;                        // alpha EWMA gain
  TimePs alpha_update_interval = 55 * kMicrosecond;  // alpha decay timer
  TimePs rate_increase_period = 900 * kMicrosecond;  // TI
  TimePs rate_decrease_interval = 4 * kMicrosecond;  // TD
  uint64_t byte_counter_bytes = 10 * 1000 * 1000;    // B: bytes per byte-stage
  int fast_recovery_threshold = 5;                   // F
  Rate additive_increase = Rate::Mbps(40);           // R_AI
  Rate hyper_increase = Rate::Mbps(400);             // R_HAI

  bool react_to_nack = true;  // commodity-RNIC NACK slow start (Section 2.2)
};

class DcqcnCc : public CongestionControl {
 public:
  // `flow_id` and `node` only identify the QP in telemetry traces; the
  // defaults keep standalone construction (tests) unchanged.
  DcqcnCc(Simulator* sim, const DcqcnConfig& config, uint32_t flow_id = 0,
          uint16_t node = 0);
  ~DcqcnCc() override;

  const char* name() const override { return "dcqcn"; }
  Rate rate() const override { return current_rate_; }

  void OnCnp() override;
  void OnNack() override;
  void OnPacketSent(uint64_t bytes) override;
  void OnTimeout() override;
  void Shutdown() override;

  double alpha() const { return alpha_; }
  Rate target_rate() const { return target_rate_; }
  const DcqcnConfig& config() const { return config_; }

 private:
  // Multiplicative decrease, rate-limited to once per TD. Returns true if a
  // cut actually happened.
  bool TryDecrease();
  // One increase event (from the TI timer or the byte counter).
  void IncreaseEvent(bool from_timer);
  void OnAlphaTimer();

  Simulator* sim_;
  DcqcnConfig config_;
  uint32_t flow_id_ = 0;  // trace identity only
  uint16_t node_ = 0;

  Rate current_rate_;
  Rate target_rate_;
  double alpha_ = 1.0;

  TimePs last_decrease_time_ = -1;  // negative = never decreased
  bool cnp_seen_since_alpha_update_ = false;

  // Increase-stage counters since the last decrease.
  int timer_stage_ = 0;
  int byte_stage_ = 0;
  int hyper_rounds_ = 0;
  uint64_t bytes_since_stage_ = 0;

  // Both periodic timers ride the event engine's callback heap (one per QP
  // at 55us / TI cadence across every sender in the fabric); Shutdown()
  // cancels them in O(log n) and leaves no stale event behind.
  PeriodicTimer alpha_timer_;
  PeriodicTimer increase_timer_;
};

}  // namespace themis

#endif  // THEMIS_SRC_CC_DCQCN_H_
