// Wiring Themis onto a topology: one Themis-D per ToR, PSN spraying via
// either the ToR egress policy (2-tier) or ThemisS sport rewriting
// (multi-tier PathMap), plus the Section 6 link-failure fallback that
// reverts the fabric to plain ECMP.

#ifndef THEMIS_SRC_THEMIS_DEPLOYMENT_H_
#define THEMIS_SRC_THEMIS_DEPLOYMENT_H_

#include <memory>
#include <vector>

#include "src/themis/themis_d.h"
#include "src/themis/themis_s.h"
#include "src/topo/topology.h"

namespace themis {

enum class SprayMode : uint8_t {
  kTorEgress = 0,     // 2-tier: ToR selects the uplink from PSN mod N (Eq. 1)
  kSportRewrite = 1,  // multi-tier: PathMap sport rewrite at the source ToR
};

struct ThemisDeploymentConfig {
  SprayMode spray_mode = SprayMode::kTorEgress;
  ThemisDConfig themis_d;  // num_paths == 0 -> filled from the topology
  // ECMP stages for kSportRewrite; empty -> single stage of width
  // equal_cost_paths at shift 0 (correct for leaf-spine).
  std::vector<EcmpStage> ecmp_stages;
};

class ThemisDeployment {
 public:
  // Installs Themis on every ToR of `topo` and configures the spraying
  // policy. The returned object owns the hooks and must outlive the
  // simulation.
  static std::unique_ptr<ThemisDeployment> Install(Topology& topo,
                                                   const ThemisDeploymentConfig& config);

  // Section 6: on link failure Themis cannot guarantee balanced PSN
  // spraying; disable it and fall back to ECMP fabric-wide.
  void HandleLinkFailure();
  // Re-enable Themis once the fabric is healthy again.
  void HandleLinkRecovery();
  bool degraded() const { return degraded_; }

  // Scenario engine, switch reboot: a rebooting ToR loses its dataplane
  // registers, so drop that switch's Themis-D flow state (PSN rings, BePSN
  // cursors). Tallies and telemetry registrations survive, like
  // ResetFlowState. No-op when `sw` hosts no Themis-D (e.g. a spine).
  void FlushSwitchState(const Switch* sw);

  // Aggregate Themis-D statistics across all ToRs.
  ThemisDStats AggregateDStats() const;
  const std::vector<std::unique_ptr<ThemisD>>& d_hooks() const { return d_hooks_; }
  const std::vector<std::unique_ptr<ThemisS>>& s_hooks() const { return s_hooks_; }

  // Telemetry: each ToR's Themis-D registers its per-flow NACK-verdict
  // counters under "<tor>.themis.flow<id>.*". Registry must outlive the
  // deployment.
  void AttachTelemetry(CounterRegistry* registry);

 private:
  ThemisDeployment() = default;

  void ApplySprayPolicy();

  Topology* topo_ = nullptr;
  ThemisDeploymentConfig config_;
  std::vector<std::unique_ptr<ThemisD>> d_hooks_;
  std::vector<std::string> d_tor_names_;  // parallel to d_hooks_
  std::vector<std::unique_ptr<ThemisS>> s_hooks_;
  bool degraded_ = false;
};

}  // namespace themis

#endif  // THEMIS_SRC_THEMIS_DEPLOYMENT_H_
