#include "src/scenario/scenario_engine.h"

#include <algorithm>
#include <cctype>

#include "src/rnic/rnic_host.h"
#include "src/telemetry/counters.h"
#include "src/telemetry/trace.h"
#include "src/themis/deployment.h"

namespace themis {
namespace {

// Stream stride separating per-occurrence gray streams from the down-time
// streams keyed directly on the event index.
constexpr uint64_t kOccurrenceStride = 1009;

// "tor0" matches exactly; "spine*" prefix-matches.
bool SwitchNameMatches(const std::string& pattern, const std::string& name) {
  if (!pattern.empty() && pattern.back() == '*') {
    const size_t len = pattern.size() - 1;
    return name.compare(0, len, pattern, 0, len) == 0;
  }
  return name == pattern;
}

bool ParseIndex(const std::string& text, int* out) {
  if (text.empty()) {
    return false;
  }
  int value = 0;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

bool PeerIsSwitch(const Port* port) {
  return port->connected() && port->peer()->kind() == NodeKind::kSwitch;
}

// Ports a port-part expression selects on one switch, in port-index order.
bool SelectPorts(Switch* sw, const std::string& port_part, std::vector<Port*>* out,
                 std::string* error) {
  if (port_part.empty() || port_part == "*") {
    for (int i = 0; i < sw->port_count(); ++i) {
      if (sw->port(i)->connected()) {
        out->push_back(sw->port(i));
      }
    }
    return true;
  }
  if (port_part == "up*") {
    for (int i = 0; i < sw->port_count(); ++i) {
      if (PeerIsSwitch(sw->port(i))) {
        out->push_back(sw->port(i));
      }
    }
    return true;
  }
  int index = 0;
  if (port_part.size() > 1 && port_part[0] == 'p' && ParseIndex(port_part.substr(1), &index)) {
    if (index >= sw->port_count() || !sw->port(index)->connected()) {
      if (error != nullptr) {
        *error = sw->name() + " has no connected port p" + std::to_string(index);
      }
      return false;
    }
    out->push_back(sw->port(index));
    return true;
  }
  if (port_part.size() > 2 && port_part.compare(0, 2, "up") == 0 &&
      ParseIndex(port_part.substr(2), &index)) {
    int seen = 0;
    for (int i = 0; i < sw->port_count(); ++i) {
      if (PeerIsSwitch(sw->port(i))) {
        if (seen == index) {
          out->push_back(sw->port(i));
          return true;
        }
        ++seen;
      }
    }
    if (error != nullptr) {
      *error = sw->name() + " has no uplink up" + std::to_string(index);
    }
    return false;
  }
  if (error != nullptr) {
    *error = "bad port selector '" + port_part + "'";
  }
  return false;
}

// The same physical link seen from the other end.
Port* ReversePort(Port* port) {
  return port->connected() ? port->peer()->port(port->peer_port()) : nullptr;
}

}  // namespace

ScenarioEngine::ScenarioEngine(Simulator* sim, const ScenarioScript& script,
                               uint64_t default_seed)
    : sim_(sim),
      script_(script),
      seed_(script.seed != 0 ? script.seed : default_seed),
      tracker_(sim, RecoveryTracker::Config{.sample_period = script.sample_period,
                                            .restore_fraction = script.restore_fraction}),
      probe_timer_(sim, [this] { ProbeTick(); }) {}

ScenarioEngine::~ScenarioEngine() {
  // Never leave a port holding a pointer into a dead engine.
  for (auto& occ : occurrences_) {
    for (size_t i = 0; i < occ->gray.size(); ++i) {
      if (i < occ->ports.size() && occ->ports[i]->gray_fault() == occ->gray[i].get()) {
        occ->ports[i]->set_gray_fault(nullptr);
      }
    }
  }
}

bool ScenarioEngine::ResolveTarget(const ScenarioEvent& event, Topology& topo,
                                   std::vector<Occurrence*>& slots, std::string* error) {
  const size_t colon = event.target.find(':');
  const std::string switch_part =
      colon == std::string::npos ? event.target : event.target.substr(0, colon);
  const std::string port_part =
      colon == std::string::npos ? std::string() : event.target.substr(colon + 1);

  if (event.kind == FaultKind::kSwitchReboot && !port_part.empty()) {
    if (error != nullptr) {
      *error = "reboot target '" + event.target + "' must name a switch, not a port";
    }
    return false;
  }

  std::vector<Switch*> matched;
  for (Switch* sw : topo.switches) {
    if (SwitchNameMatches(switch_part, sw->name())) {
      matched.push_back(sw);
    }
  }
  if (matched.empty()) {
    if (error != nullptr) {
      *error = "target '" + event.target + "' matches no switch";
    }
    return false;
  }

  std::vector<Port*> ports;
  std::vector<const Switch*> reboot_switches;
  for (Switch* sw : matched) {
    if (!SelectPorts(sw, port_part, &ports, error)) {
      return false;
    }
    if (event.kind == FaultKind::kSwitchReboot) {
      reboot_switches.push_back(sw);
    }
  }
  if (ports.empty()) {
    if (error != nullptr) {
      *error = "target '" + event.target + "' selects no connected port";
    }
    return false;
  }

  // A flap or reboot is a *link*-level outage: take down both directions of
  // every selected link (a one-way fiber cut is what `gray`/`degrade` model).
  if (event.kind == FaultKind::kLinkFlap || event.kind == FaultKind::kSwitchReboot) {
    const size_t forward_count = ports.size();
    for (size_t i = 0; i < forward_count; ++i) {
      Port* rev = ReversePort(ports[i]);
      if (rev != nullptr && std::find(ports.begin(), ports.end(), rev) == ports.end()) {
        ports.push_back(rev);
      }
    }
  }

  for (Occurrence* occ : slots) {
    occ->ports = ports;
    occ->reboot_switch = reboot_switches.empty() ? nullptr : reboot_switches.front();
    // A wildcard reboot ("spine*") reboots every matched switch as one fault.
    if (reboot_switches.size() > 1) {
      occ->extra_reboot_switches.assign(reboot_switches.begin() + 1,
                                        reboot_switches.end());
    }
  }
  return true;
}

bool ScenarioEngine::Attach(Topology& topo, ThemisDeployment* themis,
                            const std::vector<RnicHost*>& hosts, std::string* error) {
  topo_ = &topo;
  themis_ = themis;
  hosts_ = hosts;
  if (!ValidateScenario(script_, error)) {
    return false;
  }

  for (size_t e = 0; e < script_.events.size(); ++e) {
    const ScenarioEvent& event = script_.events[e];
    std::vector<Occurrence*> slots;
    for (int k = 0; k < event.repeat; ++k) {
      auto occ = std::make_unique<Occurrence>();
      occ->event_index = static_cast<int>(e);
      occ->occurrence = k;
      Occurrence* raw = occ.get();
      occ->apply_timer = std::make_unique<Timer>(sim_, [this, raw] { OnApply(*raw); });
      occ->clear_timer = std::make_unique<Timer>(sim_, [this, raw] { OnClear(*raw); });
      slots.push_back(raw);
      occurrences_.push_back(std::move(occ));
    }
    if (!ResolveTarget(event, topo, slots, error)) {
      if (error != nullptr) {
        *error = "scenario event " + std::to_string(e + 1) + " (" +
                 FaultKindName(event.kind) + "): " + *error;
      }
      return false;
    }
  }
  return true;
}

void ScenarioEngine::Start() {
  const TimePs now = sim_->now();
  for (auto& occ : occurrences_) {
    const ScenarioEvent& event = script_.events[static_cast<size_t>(occ->event_index)];
    const TimePs at =
        event.at + static_cast<TimePs>(occ->occurrence) * event.period;
    TimePs hold = event.duration;
    if (event.kind == FaultKind::kLinkFlap || event.kind == FaultKind::kSwitchReboot) {
      // Down-time stream keyed on (scenario seed, event, occurrence): the
      // draw is fixed at schedule time, independent of anything the run does.
      Rng rng(MixSeed(seed_, static_cast<uint64_t>(occ->event_index),
                      static_cast<uint64_t>(occ->occurrence)));
      hold = event.down.Draw(rng);
    }
    occ->apply_timer->Arm(std::max<TimePs>(at - now, 0));
    occ->clear_timer->Arm(std::max<TimePs>(at + hold - now, 0));
  }
  probe_timer_.Start(script_.sample_period);
}

void ScenarioEngine::OnApply(Occurrence& occ) {
  const ScenarioEvent& event = script_.events[static_cast<size_t>(occ.event_index)];
  switch (event.kind) {
    case FaultKind::kLinkFlap:
    case FaultKind::kSwitchReboot:
      for (Port* port : occ.ports) {
        port->set_failed(true);
        ++stats_.ports_failed;
      }
      if (event.kind == FaultKind::kSwitchReboot && themis_ != nullptr) {
        // Dataplane registers do not survive the reboot.
        if (occ.reboot_switch != nullptr) {
          themis_->FlushSwitchState(occ.reboot_switch);
        }
        for (const Switch* sw : occ.extra_reboot_switches) {
          themis_->FlushSwitchState(sw);
        }
      }
      break;
    case FaultKind::kGrayFailure: {
      occ.gray.clear();
      occ.gray.reserve(occ.ports.size());
      for (size_t i = 0; i < occ.ports.size(); ++i) {
        auto gray = std::make_unique<GrayFault>();
        // Per-port stream: packet outcomes on one link are independent of
        // traffic on every other link (order-invariance, like src/traffic).
        gray->rng.Seed(MixSeed(seed_,
                               static_cast<uint64_t>(occ.event_index) * kOccurrenceStride +
                                   static_cast<uint64_t>(occ.occurrence),
                               i));
        gray->drop_prob = event.drop_prob;
        gray->corrupt_prob = event.corrupt_prob;
        occ.ports[i]->set_gray_fault(gray.get());
        occ.gray.push_back(std::move(gray));
      }
      ++stats_.gray_windows;
      break;
    }
    case FaultKind::kLinkDegrade:
      for (Port* port : occ.ports) {
        port->set_degrade_factor(event.factor);
      }
      ++stats_.degrade_windows;
      break;
  }
  occ.record_id = tracker_.OnFaultApplied(occ.event_index, occ.occurrence, event.kind,
                                          sim_->now());
  occ.open = true;
  ++stats_.faults_applied;
  ++open_faults_gauge_;
  SnapshotVictims(occ);
}

void ScenarioEngine::OnClear(Occurrence& occ) {
  if (!occ.open) {
    return;  // apply and clear collapsed onto the same tick edge case
  }
  const ScenarioEvent& event = script_.events[static_cast<size_t>(occ.event_index)];
  switch (event.kind) {
    case FaultKind::kLinkFlap:
    case FaultKind::kSwitchReboot:
      for (Port* port : occ.ports) {
        port->set_failed(false);
      }
      break;
    case FaultKind::kGrayFailure:
      for (size_t i = 0; i < occ.gray.size(); ++i) {
        stats_.gray_drops += occ.gray[i]->drops;
        stats_.gray_corrupts += occ.gray[i]->corrupts;
        if (occ.ports[i]->gray_fault() == occ.gray[i].get()) {
          occ.ports[i]->set_gray_fault(nullptr);
        }
      }
      occ.gray.clear();
      break;
    case FaultKind::kLinkDegrade:
      for (Port* port : occ.ports) {
        port->set_degrade_factor(1.0);
      }
      break;
  }
  tracker_.OnFaultCleared(occ.record_id, sim_->now());
  tracker_.AddVictims(occ.record_id, CountVictims(occ));
  occ.open = false;
  ++stats_.faults_cleared;
  --open_faults_gauge_;
}

uint64_t ScenarioEngine::DeliveredBytes() const {
  uint64_t total = 0;
  for (const RnicHost* host : hosts_) {
    for (const ReceiverQp* qp : host->receiver_qps()) {
      total += qp->stats().goodput_bytes;
    }
  }
  return total;
}

uint64_t ScenarioEngine::DropTotal() const {
  uint64_t total = 0;
  for (const Switch* sw : topo_->switches) {
    total += sw->stats().corrupt_drops;
    for (int i = 0; i < sw->port_count(); ++i) {
      total += sw->port(i)->stats().drops;
    }
  }
  for (const RnicHost* host : hosts_) {
    total += host->stats().corrupt_rx;
    for (int i = 0; i < host->port_count(); ++i) {
      total += host->port(i)->stats().drops;
    }
  }
  return total;
}

void ScenarioEngine::SnapshotVictims(Occurrence& occ) {
  occ.victim_snapshot.clear();
  for (const RnicHost* host : hosts_) {
    for (const SenderQp* qp : host->sender_qps()) {
      occ.victim_snapshot.emplace(qp, qp->stats().rtx_packets + qp->stats().timeouts);
    }
  }
}

uint64_t ScenarioEngine::CountVictims(const Occurrence& occ) const {
  uint64_t victims = 0;
  for (const RnicHost* host : hosts_) {
    for (const SenderQp* qp : host->sender_qps()) {
      const uint64_t now_count = qp->stats().rtx_packets + qp->stats().timeouts;
      auto it = occ.victim_snapshot.find(qp);
      const uint64_t before = it != occ.victim_snapshot.end() ? it->second : 0;
      if (now_count > before) {
        ++victims;
      }
    }
  }
  return victims;
}

void ScenarioEngine::ProbeTick() {
  tracker_.Tick(sim_->now(), DeliveredBytes(), DropTotal());
}

void ScenarioEngine::Finalize() {
  probe_timer_.Cancel();
  ProbeTick();  // flush the final partial interval
  // Uninstall any still-open gray windows (run ended mid-fault), harvesting
  // their tallies so scenario.gray_drops reflects the whole campaign.
  for (auto& occ : occurrences_) {
    if (!occ->open) {
      continue;
    }
    for (size_t i = 0; i < occ->gray.size(); ++i) {
      stats_.gray_drops += occ->gray[i]->drops;
      stats_.gray_corrupts += occ->gray[i]->corrupts;
      if (occ->ports[i]->gray_fault() == occ->gray[i].get()) {
        occ->ports[i]->set_gray_fault(nullptr);
      }
    }
    occ->gray.clear();
  }
  tracker_.Finalize(sim_->now());
}

void ScenarioEngine::RegisterCounters(CounterRegistry& registry, const std::string& prefix) {
  registry.RegisterCounter(prefix + ".faults_applied", &stats_.faults_applied);
  registry.RegisterCounter(prefix + ".faults_cleared", &stats_.faults_cleared);
  registry.RegisterCounter(prefix + ".ports_failed", &stats_.ports_failed);
  registry.RegisterCounter(prefix + ".gray_windows", &stats_.gray_windows);
  registry.RegisterCounter(prefix + ".degrade_windows", &stats_.degrade_windows);
  registry.RegisterCounter(prefix + ".gray_drops", &stats_.gray_drops);
  registry.RegisterCounter(prefix + ".gray_corrupts", &stats_.gray_corrupts);
  registry.RegisterGauge(prefix + ".open_faults",
                         [this] { return static_cast<double>(open_faults_gauge_); });
}

}  // namespace themis
