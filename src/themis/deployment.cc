#include "src/themis/deployment.h"

#include <cassert>

namespace themis {

std::unique_ptr<ThemisDeployment> ThemisDeployment::Install(
    Topology& topo, const ThemisDeploymentConfig& config) {
  auto deployment = std::unique_ptr<ThemisDeployment>(new ThemisDeployment());
  deployment->topo_ = &topo;
  deployment->config_ = config;
  if (deployment->config_.themis_d.num_paths == 0) {
    deployment->config_.themis_d.num_paths = static_cast<uint32_t>(topo.equal_cost_paths);
  }

  // Themis-S registers ahead of Themis-D. The order is not observable: on
  // any one packet at most one of the two acts (S: non-last-hop data from a
  // local host; D: last-hop data and host-emitted control).
  if (config.spray_mode == SprayMode::kSportRewrite) {
    std::vector<EcmpStage> stages = config.ecmp_stages;
    if (stages.empty()) {
      stages.push_back(EcmpStage{
          .shift = 0, .group_size = static_cast<uint32_t>(topo.equal_cost_paths)});
    }
    std::optional<PathMap> path_map = PathMap::Build(stages);
    assert(path_map.has_value() && "PathMap construction failed for these ECMP stages");
    for (Switch* tor : topo.tors) {
      auto hook = std::make_unique<ThemisS>(*path_map);
      tor->AddHook(hook.get());
      deployment->s_hooks_.push_back(std::move(hook));
    }
  }

  for (Switch* tor : topo.tors) {
    auto hook = std::make_unique<ThemisD>(deployment->config_.themis_d);
    tor->AddHook(hook.get());
    deployment->d_hooks_.push_back(std::move(hook));
    deployment->d_tor_names_.push_back(tor->name());
  }

  deployment->ApplySprayPolicy();
  return deployment;
}

void ThemisDeployment::ApplySprayPolicy() {
  if (degraded_) {
    // ECMP everywhere; Themis hooks dormant.
    InstallLoadBalancer(*topo_, LbKind::kEcmp);
    for (auto& hook : s_hooks_) {
      hook->set_enabled(false);
    }
    for (auto& hook : d_hooks_) {
      hook->set_enabled(false);
    }
    return;
  }
  if (config_.spray_mode == SprayMode::kTorEgress) {
    InstallTorLoadBalancer(*topo_, LbKind::kPsnSpray);
  } else {
    InstallLoadBalancer(*topo_, LbKind::kEcmp);
    for (auto& hook : s_hooks_) {
      hook->set_enabled(true);
    }
  }
  for (auto& hook : d_hooks_) {
    hook->set_enabled(true);
  }
}

void ThemisDeployment::HandleLinkFailure() {
  degraded_ = true;
  ApplySprayPolicy();
}

void ThemisDeployment::FlushSwitchState(const Switch* sw) {
  for (size_t i = 0; i < topo_->tors.size(); ++i) {
    if (topo_->tors[i] == sw && i < d_hooks_.size()) {
      d_hooks_[i]->ResetFlowState();
      return;
    }
  }
}

void ThemisDeployment::HandleLinkRecovery() {
  degraded_ = false;
  // PSNs observed during the ECMP fallback were not sprayed by Eq. 1;
  // start every flow's tracking state fresh.
  for (auto& hook : d_hooks_) {
    hook->ResetFlowState();
  }
  ApplySprayPolicy();
}

void ThemisDeployment::AttachTelemetry(CounterRegistry* registry) {
  for (size_t i = 0; i < d_hooks_.size(); ++i) {
    d_hooks_[i]->set_telemetry(registry, d_tor_names_[i] + ".themis");
  }
}

ThemisDStats ThemisDeployment::AggregateDStats() const {
  ThemisDStats total;
  for (const auto& hook : d_hooks_) {
    const ThemisDStats& s = hook->stats();
    total.data_tracked += s.data_tracked;
    total.flows_created += s.flows_created;
    total.nacks_seen += s.nacks_seen;
    total.nacks_blocked += s.nacks_blocked;
    total.nacks_forwarded_valid += s.nacks_forwarded_valid;
    total.nacks_forwarded_unmatched += s.nacks_forwarded_unmatched;
    total.nacks_forwarded_spurious += s.nacks_forwarded_spurious;
    total.nacks_forwarded_genuine += s.nacks_forwarded_genuine;
    total.compensated_nacks += s.compensated_nacks;
    total.compensations_cancelled += s.compensations_cancelled;
    total.compensations_suppressed += s.compensations_suppressed;
    total.grace_deferred += s.grace_deferred;
    total.grace_cancelled += s.grace_cancelled;
    total.grace_expired += s.grace_expired;
    total.flows_evicted += s.flows_evicted;
    total.flows_aged_out += s.flows_aged_out;
    total.flows_rejected += s.flows_rejected;
    total.grace_evicted += s.grace_evicted;
    total.compensations_evicted += s.compensations_evicted;
  }
  return total;
}

}  // namespace themis
