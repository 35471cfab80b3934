// perfbench_sim — runs one workload of the simulator benchmark in this
// single-threaded process and prints one JSON object with every raw sample:
// per-repetition phase timings, the experiment digest, deterministic
// per-layer counters, and the outcome checks. perfbench/run.py builds this
// binary, aggregates the samples into the named metrics, and prints the
// benchmark's result line.
//
//   perfbench_sim --workload=NAME --seed=N --seconds=S --trace=0|1 [--smoke]
//
// Timing is done from outside the simulator only: phases are timed around
// the public calls into each layer (Experiment construction, flow
// generation, Simulator::RunUntil, result collection, telemetry export). A
// traced repetition additionally wraps two public seams after set-up:
//   * the line-rate dispatcher (Simulator::SetLineRateDispatcher), timing
//     every Port::DispatchBurst call — the port/switch/RNIC packet path;
//   * every switch's data LoadBalancer (Switch::set_data_lb), replaced by a
//     timing decorator around a fresh MakeLoadBalancer instance of the same
//     kind that forwards burst_stageable() and SelectBurst, so the staged
//     burst path stays the staged path.
// Both seams are observation only; the digest of a traced repetition must
// equal the untraced one.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <streambuf>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/trace_digest.h"
#include "src/experiment_service/config_hash.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/flow_driver.h"
#include "src/workload/flow_generator.h"
#include "src/workload/flow_size_cdf.h"

namespace themis {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workloads ---------------------------------------------------------------

enum class Kind { kCollective, kFct };

struct Workload {
  std::string name;
  Kind kind = Kind::kCollective;
  ExperimentConfig config;
  TimePs deadline = 0;
  // kCollective: a collective over seed-generated groups.
  CollectiveKind collective = CollectiveKind::kAllreduce;
  uint64_t bytes = 0;
  std::vector<std::vector<int>> groups;
  // kFct: open-loop flows from GenerateFlows (websearch sizes) over a
  // generation horizon of two windows, cut to the first flows whose bytes
  // reach spec.load of every edge link over `window` (OfferedPrefix).
  WorkloadSpec spec;
  TimePs window = 0;
  bool telemetry = false;
};

void Shuffle(std::vector<int>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<size_t>(rng.Below(i))]);
  }
}

std::vector<int> Iota(int n, int base) {
  std::vector<int> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = base + i;
  }
  return v;
}

// Fig. 1 motivation: two 4-rank neighbour rings over 2 ToRs x 4 hosts, every
// hop crossing the fabric. The seed picks which hosts form each ring.
std::vector<std::vector<int>> Fig1Rings(uint64_t seed) {
  Rng rng(MixSeed(seed, 1, 0));
  std::vector<int> tor0 = Iota(4, 0);
  std::vector<int> tor1 = Iota(4, 4);
  Shuffle(tor0, rng);
  Shuffle(tor1, rng);
  return {{tor0[0], tor1[0], tor0[1], tor1[1]}, {tor0[2], tor1[2], tor0[3], tor1[3]}};
}

// Fig. 5: `groups` cross-rack rings over num_tors x hosts_per_tor hosts. Each
// group takes one host from every ToR (so all of its traffic crosses the
// spines, as in Experiment::MakeCrossRackGroups); the seed picks which host
// of each ToR joins which group and the ring order of the ToRs.
std::vector<std::vector<int>> CrossRackRings(uint64_t seed, int num_tors, int hosts_per_tor,
                                             int groups) {
  Rng rng(MixSeed(seed, 5, 0));
  std::vector<std::vector<int>> slot(static_cast<size_t>(num_tors));
  for (int t = 0; t < num_tors; ++t) {
    slot[static_cast<size_t>(t)] = Iota(hosts_per_tor, t * hosts_per_tor);
    Shuffle(slot[static_cast<size_t>(t)], rng);
  }
  std::vector<std::vector<int>> rings;
  for (int g = 0; g < groups; ++g) {
    std::vector<int> order = Iota(num_tors, 0);
    Shuffle(order, rng);
    std::vector<int> ring;
    for (int t : order) {
      ring.push_back(slot[static_cast<size_t>(t)][static_cast<size_t>(g)]);
    }
    rings.push_back(std::move(ring));
  }
  return rings;
}

// The four reference workloads. `smoke` shrinks each to a fraction of a
// second for the self-test; the shapes, schemes and seams stay the same.
bool MakeWorkload(const std::string& name, uint64_t seed, bool smoke, Workload* w) {
  w->name = name;
  if (name == "fig1_spray_recovery") {
    w->kind = Kind::kCollective;
    ExperimentConfig& c = w->config;
    c.num_tors = 2;
    c.num_spines = 4;
    c.hosts_per_tor = 4;
    c.link_rate = Rate::Gbps(100);
    c.scheme = Scheme::kRandomSpray;
    c.transport = TransportKind::kNicSr;
    c.cc = CcKind::kDcqcn;
    c.dcqcn_ti = 10 * kMicrosecond;
    c.dcqcn_td = 200 * kMicrosecond;
    c.fabric_delay_skew = 200 * kNanosecond;
    w->collective = CollectiveKind::kNeighborRing;
    w->bytes = smoke ? (1ull << 20) : (32ull << 20);
    w->groups = Fig1Rings(seed);
    w->deadline = 60 * kSecond;
    return true;
  }
  if (name == "fig5_allreduce_themis") {
    w->kind = Kind::kCollective;
    ExperimentConfig& c = w->config;  // defaults: 16x16x16 leaf-spine, 400G
    c.scheme = Scheme::kThemis;
    c.themis_spray_mode = SprayMode::kTorEgress;
    c.dcqcn_ti = 10 * kMicrosecond;
    c.dcqcn_td = 50 * kMicrosecond;
    w->collective = CollectiveKind::kAllreduce;
    w->bytes = smoke ? (64ull << 10) : (2ull << 20);
    w->groups = CrossRackRings(seed, c.num_tors, c.hosts_per_tor, 16);
    w->deadline = 60 * kSecond;
    return true;
  }
  if (name == "fattree_k16_uniform_themis" || name == "fattree_k8_observed") {
    const bool k16 = name == "fattree_k16_uniform_themis";
    w->kind = Kind::kFct;
    ExperimentConfig& c = w->config;
    c.fabric = FabricKind::kFatTree;
    c.fat_tree_k = k16 ? 16 : 8;
    c.link_rate = Rate::Gbps(400);
    c.scheme = Scheme::kThemis;
    c.themis_spray_mode = SprayMode::kTorEgress;
    w->window = (smoke ? (k16 ? 2 : 10) : (k16 ? 50 : 200)) * kMicrosecond;
    w->spec.pattern = TrafficPattern::kUniform;
    w->spec.load = 0.5;
    w->spec.window = 2 * w->window;
    w->spec.seed = seed;
    // The workload_cli convention: 40 arrival windows (2 ms at k=16).
    w->deadline = 40 * w->window;
    w->telemetry = !k16;
    return true;
  }
  return false;
}

// Poisson arrivals offer spec.load only on average: over one 50 us window the
// heavy-tailed websearch sizes move the offered bytes, and with them the
// event count, by about 10 % from seed to seed. Keeping the first flows
// whose bytes reach exactly load x edge rate x hosts x window fixes the work
// per seed while the seed still picks every size, endpoint and arrival.
std::vector<FlowSpec> OfferedPrefix(std::vector<FlowSpec> flows, const Workload& w, int hosts) {
  const double budget = w.spec.load * static_cast<double>(w.config.link_rate.bps()) / 8.0 *
                        ToSeconds(w.window) * hosts;
  double offered = 0.0;
  size_t keep = 0;
  while (keep < flows.size() && offered < budget) {
    offered += static_cast<double>(flows[keep++].bytes);
  }
  flows.resize(keep);
  return flows;
}

// Canonical config hash (src/experiment_service/config_hash): the FCT grid
// point hash, or the fabric config plus the collective's inputs.
uint64_t WorkloadHash(const Workload& w) {
  ConfigHasher h;
  AppendFields(h, w.config);
  if (w.kind == Kind::kFct) {
    AppendFields(h, w.spec);
    h.Field("workload.cdf", FlowSizeCdf::WebSearch().name());
    h.Field("workload.offered_window", w.window);
    h.Field("harness.deadline", w.deadline);
    return h.hash();
  }
  h.Field("collective.kind", static_cast<int64_t>(w.collective));
  h.Field("collective.bytes", w.bytes);
  for (const std::vector<int>& group : w.groups) {
    std::string ranks;
    for (int r : group) {
      if (!ranks.empty()) {
        ranks += ',';
      }
      ranks += std::to_string(r);
    }
    h.Field("collective.group", ranks);
  }
  h.Field("harness.deadline", w.deadline);
  return h.hash();
}

// --- Trace seams ---------------------------------------------------------------

// The line-rate dispatcher is a plain function pointer, so its timer
// accumulates into process-wide totals; the run loop is single-threaded.
struct SeamTotals {
  int64_t dispatch_ns = 0;
  uint64_t dispatch_calls = 0;
  int64_t select_ns = 0;
  uint64_t selects = 0;
};
SeamTotals g_seams;

int64_t NanosSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
}

size_t TimedDispatch(Simulator& sim, const uint64_t* tags, size_t n) {
  const Clock::time_point t0 = Clock::now();
  const size_t done = Port::DispatchBurst(sim, tags, n);
  g_seams.dispatch_ns += NanosSince(t0);
  ++g_seams.dispatch_calls;
  return done;
}

class TimedLb final : public LoadBalancer {
 public:
  explicit TimedLb(std::unique_ptr<LoadBalancer> inner) : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }

  size_t Select(const Packet& pkt, std::span<Port* const> candidates,
                const LbContext& ctx) override {
    const Clock::time_point t0 = Clock::now();
    const size_t choice = inner_->Select(pkt, candidates, ctx);
    g_seams.select_ns += NanosSince(t0);
    ++g_seams.selects;
    return choice;
  }

  bool burst_stageable() const override { return inner_->burst_stageable(); }

  void SelectBurst(PacketBurst& burst, const uint32_t* idx,
                   const std::span<Port* const>* candidates, size_t n, const LbContext& ctx,
                   uint32_t* choices) override {
    const Clock::time_point t0 = Clock::now();
    inner_->SelectBurst(burst, idx, candidates, n, ctx, choices);
    g_seams.select_ns += NanosSince(t0);
    g_seams.selects += n;
  }

 private:
  std::unique_ptr<LoadBalancer> inner_;
};

LbKind LbKindFromName(const char* name) {
  for (LbKind kind : {LbKind::kEcmp, LbKind::kRandomSpray, LbKind::kAdaptive, LbKind::kFlowlet,
                      LbKind::kPsnSpray}) {
    if (std::strcmp(LbKindName(kind), name) == 0) {
      return kind;
    }
  }
  std::fprintf(stderr, "perfbench: no LbKind named '%s'\n", name);
  std::exit(2);
}

void InstallSeams(Experiment& exp) {
  exp.sim().SetLineRateDispatcher(&TimedDispatch);
  LbParams params;
  params.flowlet_gap = exp.config().flowlet_gap;
  for (Switch* sw : exp.topology().switches) {
    const LbKind kind = LbKindFromName(sw->data_lb()->name());
    sw->set_data_lb(std::make_unique<TimedLb>(MakeLoadBalancer(kind, params)));
  }
}

// --- One repetition ------------------------------------------------------------

using Named = std::vector<std::pair<std::string, double>>;

struct Rep {
  bool traced = false;
  double construct_s = 0, attach_s = 0, generate_s = 0, setup_s = 0;
  double run_s = 0, collect_s = 0, export_s = 0, wall_s = 0;
  SeamTotals seams;
  uint64_t digest = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Named counters;  // deterministic per-layer counts
  std::vector<std::pair<std::string, bool>> checks;
};

void CountLayers(Experiment& exp, Rep* rep) {
  Named& m = rep->counters;
  Simulator& sim = exp.sim();
  const EventQueue& q = sim.queue();
  const SimBurstStats& burst = sim.burst_stats();
  m.emplace_back("sim.events", static_cast<double>(sim.events_executed()));
  m.emplace_back("sim.heap_scheduled", static_cast<double>(q.heap_scheduled()));
  m.emplace_back("sim.wheel_scheduled", static_cast<double>(q.wheel_scheduled()));
  m.emplace_back("sim.calendar_scheduled", static_cast<double>(q.calendar_scheduled()));
  m.emplace_back("sim.bursts", static_cast<double>(burst.bursts));
  m.emplace_back("sim.burst_events", static_cast<double>(burst.burst_events));
  m.emplace_back("sim.sim_us", ToMicroseconds(sim.now()));

  PortStats net;
  for (const DuplexLink& link : exp.network().links()) {
    for (const Port* port : {link.a.node->port(link.a.port), link.b.node->port(link.b.port)}) {
      const PortStats& s = port->stats();
      net.tx_packets += s.tx_packets;
      net.ecn_marks += s.ecn_marks;
      net.drops += s.drops;
      net.pause_transitions += s.pause_transitions;
      net.max_queue_bytes = std::max(net.max_queue_bytes, s.max_queue_bytes);
    }
  }
  m.emplace_back("net.tx_packets", static_cast<double>(net.tx_packets));
  m.emplace_back("net.ecn_marks", static_cast<double>(net.ecn_marks));
  m.emplace_back("net.drops", static_cast<double>(net.drops));
  m.emplace_back("net.pause_transitions", static_cast<double>(net.pause_transitions));
  m.emplace_back("net.max_queue_bytes", static_cast<double>(net.max_queue_bytes));

  SwitchStats topo;
  for (const Switch* sw : exp.topology().switches) {
    topo.forwarded += sw->stats().forwarded;
    topo.consumed_by_hook += sw->stats().consumed_by_hook;
    topo.pfc_pauses_sent += sw->stats().pfc_pauses_sent;
  }
  m.emplace_back("topo.forwarded", static_cast<double>(topo.forwarded));
  m.emplace_back("topo.consumed_by_hook", static_cast<double>(topo.consumed_by_hook));
  m.emplace_back("topo.pfc_pauses_sent", static_cast<double>(topo.pfc_pauses_sent));

  const ThemisDStats themis =
      exp.themis() != nullptr ? exp.themis()->AggregateDStats() : ThemisDStats{};
  m.emplace_back("themis.data_tracked", static_cast<double>(themis.data_tracked));
  m.emplace_back("themis.flows_created", static_cast<double>(themis.flows_created));
  m.emplace_back("themis.nacks_seen", static_cast<double>(themis.nacks_seen));
  m.emplace_back("themis.nacks_blocked", static_cast<double>(themis.nacks_blocked));
  m.emplace_back("themis.nacks_forwarded_unmatched",
                 static_cast<double>(themis.nacks_forwarded_unmatched));
  m.emplace_back("themis.compensated_nacks", static_cast<double>(themis.compensated_nacks));

  SenderQpStats tx;
  CcStats cc;
  uint64_t qps = 0;
  uint64_t ooo = 0;
  for (int i = 0; i < exp.host_count(); ++i) {
    for (SenderQp* qp : exp.host(i)->sender_qps()) {
      const SenderQpStats& s = qp->stats();
      ++qps;
      tx.data_packets_sent += s.data_packets_sent;
      tx.data_bytes_sent += s.data_bytes_sent;
      tx.rtx_packets += s.rtx_packets;
      tx.rtx_bytes += s.rtx_bytes;
      tx.nacks_received += s.nacks_received;
      tx.timeouts += s.timeouts;
      const CcStats& c = qp->cc().stats();
      cc.rate_decreases += c.rate_decreases;
      cc.nack_decreases += c.nack_decreases;
      cc.cnp_received += c.cnp_received;
    }
    for (const ReceiverQp* qp : exp.host(i)->receiver_qps()) {
      ooo += qp->stats().ooo_arrivals;
    }
  }
  m.emplace_back("rnic.qps", static_cast<double>(qps));
  m.emplace_back("rnic.data_packets_sent", static_cast<double>(tx.data_packets_sent));
  m.emplace_back("rnic.rtx_packets", static_cast<double>(tx.rtx_packets));
  m.emplace_back("rnic.data_bytes_sent", static_cast<double>(tx.data_bytes_sent));
  m.emplace_back("rnic.rtx_bytes", static_cast<double>(tx.rtx_bytes));
  m.emplace_back("rnic.nacks_received", static_cast<double>(tx.nacks_received));
  m.emplace_back("rnic.timeouts", static_cast<double>(tx.timeouts));
  m.emplace_back("rnic.ooo_arrivals", static_cast<double>(ooo));
  m.emplace_back("cc.rate_decreases", static_cast<double>(cc.rate_decreases));
  m.emplace_back("cc.nack_decreases", static_cast<double>(cc.nack_decreases));
  m.emplace_back("cc.cnp_received", static_cast<double>(cc.cnp_received));
}

// The telemetry exporters' output stream: counts the bytes and discards
// them, so telemetry.export_s times the exporters' formatting and not the
// machine's disk.
class CountingBuf final : public std::streambuf {
 public:
  uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    bytes_ += traits_type::eq_int_type(c, traits_type::eof()) ? 0 : 1;
    return traits_type::not_eof(c);
  }

 private:
  uint64_t bytes_ = 0;
};

constexpr TimePs kDrain = 1 * kMillisecond;

// Runs one repetition. With `setup_only` it stops before the first event
// (a set-up sample for setup_s) and returns only the set-up timings.
Rep RunRep(const Workload& w, bool traced, bool setup_only) {
  Rep rep;
  rep.traced = traced;
  const Clock::time_point t0 = Clock::now();
  Experiment exp(w.config);
  rep.construct_s = SecondsSince(t0);

  // Declared after exp: destroyed first, while the simulator it detaches
  // from is still alive.
  std::unique_ptr<Telemetry> telemetry;
  std::unique_ptr<FlowDriver> driver;
  std::vector<std::unique_ptr<CollectiveOp>> ops;
  int remaining = 0;

  Clock::time_point t = Clock::now();
  if (w.telemetry) {
    telemetry = std::make_unique<Telemetry>(&exp.sim());
    exp.AttachTelemetry(telemetry.get());
    telemetry->StartSampling();
  }
  rep.attach_s = SecondsSince(t);

  t = Clock::now();
  if (w.kind == Kind::kFct) {
    driver = std::make_unique<FlowDriver>(
        &exp, OfferedPrefix(GenerateFlows(w.spec, FlowSizeCdf::WebSearch(), exp.host_count(),
                                          exp.edge_rate()),
                            w, exp.host_count()));
    driver->Post();
  } else {
    // Experiment::RunCollective, split so set-up and run time apart.
    ops = exp.MakeCollectives(w.collective, w.groups, w.bytes);
    remaining = static_cast<int>(ops.size());
    Simulator* sim = &exp.sim();
    for (auto& op : ops) {
      op->Start([sim, &remaining] {
        if (--remaining == 0) {
          sim->Stop();
        }
      });
    }
  }
  rep.generate_s = SecondsSince(t);
  rep.setup_s = SecondsSince(t0);
  if (setup_only) {
    return rep;
  }

  if (traced) {
    g_seams = SeamTotals{};
    InstallSeams(exp);  // untimed: outside every phase
  }

  t = Clock::now();
  exp.sim().RunUntil(w.deadline);
  rep.run_s = SecondsSince(t);
  if (traced) {
    rep.seams = g_seams;
  }

  t = Clock::now();
  uint64_t digest = DigestExperiment(exp);
  if (w.kind == Kind::kFct) {
    const FctWorkloadResult result = driver->Collect();
    rep.attempted = result.flows_total;
    rep.failed = result.flows_total - result.flows_completed;
    bool slowdown_ok = true;
    for (const FlowRecord& r : result.records) {
      digest = FnvMix(digest, static_cast<uint64_t>(r.completion));
      slowdown_ok = slowdown_ok && (!r.completed() || r.Slowdown() >= 1.0);
    }
    rep.checks.emplace_back("completed_flows_slowdown_ge_1", slowdown_ok);
    rep.checks.emplace_back("flows_generated", result.flows_total > 0);
  } else {
    rep.attempted = ops.size();
    for (const auto& op : ops) {
      rep.failed += op->done() ? 0 : 1;
      digest = FnvMix(digest, op->done() ? static_cast<uint64_t>(op->CompletionTime()) : 0);
    }
    rep.checks.emplace_back("collectives_all_done", rep.failed == 0);
  }
  uint64_t export_bytes = 0;
  if (telemetry != nullptr) {
    const Clock::time_point te = Clock::now();
    telemetry->StopSampling();
    telemetry->sampler().SampleNow();  // closing row at end-of-run state
    CountingBuf sink;
    std::ostream out(&sink);
    WriteChromeTrace(telemetry->trace(), out, telemetry->MakeNodeNamer());
    WriteCountersCsv(telemetry->sampler(), out);
    rep.export_s = SecondsSince(te);
    rep.checks.emplace_back("telemetry_exported", out.good() && sink.bytes() > 0);
    export_bytes = sink.bytes();
  }
  rep.collect_s = SecondsSince(t);
  rep.wall_s = rep.setup_s + rep.run_s + rep.collect_s;

  rep.digest = digest;
  CountLayers(exp, &rep);
  Named& m = rep.counters;
  m.emplace_back("workload.flows", static_cast<double>(rep.attempted));
  m.emplace_back("telemetry.columns",
                 telemetry ? static_cast<double>(telemetry->counters().size()) : 0.0);
  m.emplace_back("telemetry.samples",
                 telemetry ? static_cast<double>(telemetry->sampler().sample_times().size()) : 0.0);
  m.emplace_back("telemetry.trace_records",
                 telemetry ? static_cast<double>(telemetry->trace().recorded()) : 0.0);
  m.emplace_back("telemetry.trace_overwritten",
                 telemetry ? static_cast<double>(telemetry->trace().overwritten()) : 0.0);
  m.emplace_back("telemetry.export_bytes", static_cast<double>(export_bytes));

  // Packet conservation through the switch layer: every packet a switch
  // forwarded left one of its ports or was dropped there. A run ends with
  // packets still queued (duplicates behind a finished collective, flows cut
  // by the deadline), so first cut every host off the fabric and let it
  // drain. Runs after every measurement and count above.
  for (int i = 0; i < exp.host_count(); ++i) {
    exp.host(i)->uplink()->set_failed(true);
  }
  Simulator& sim = exp.sim();
  const TimePs drain_end = sim.now() + kDrain;
  while (sim.now() < drain_end && sim.HasPendingEvents()) {
    sim.RunUntil(drain_end);
  }
  uint64_t forwarded = 0;
  uint64_t left = 0;
  for (const Switch* sw : exp.topology().switches) {
    forwarded += sw->stats().forwarded;
    for (int p = 0; p < sw->port_count(); ++p) {
      left += sw->port(p)->stats().tx_packets + sw->port(p)->stats().drops;
    }
  }
  rep.checks.emplace_back("switch_forwarded_eq_port_tx_after_drain", forwarded == left);
  return rep;
}

// --- Output ----------------------------------------------------------------------

void PrintNamed(const char* key, const Named& values) {
  std::printf("\"%s\":{", key);
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf("%s\"%s\":%.17g", i ? "," : "", values[i].first.c_str(), values[i].second);
  }
  std::printf("}");
}

void PrintRep(const Rep& r) {
  std::printf(
      "{\"traced\":%s,\"construct_s\":%.9g,\"attach_s\":%.9g,\"generate_s\":%.9g,"
      "\"setup_s\":%.9g,\"run_s\":%.9g,\"collect_s\":%.9g,\"export_s\":%.9g,\"wall_s\":%.9g,"
      "\"dispatch_s\":%.9g,\"dispatch_calls\":%" PRIu64 ",\"select_s\":%.9g,\"selects\":%" PRIu64
      ",\"digest\":\"%016" PRIx64 "\",\"attempted\":%" PRIu64
      ",\"failed\":%" PRIu64 ",",
      r.traced ? "true" : "false", r.construct_s, r.attach_s, r.generate_s, r.setup_s, r.run_s,
      r.collect_s, r.export_s, r.wall_s, r.seams.dispatch_ns * 1e-9, r.seams.dispatch_calls,
      r.seams.select_ns * 1e-9, r.seams.selects, r.digest, r.attempted, r.failed);
  PrintNamed("counters", r.counters);
  std::printf(",\"checks\":{");
  for (size_t i = 0; i < r.checks.size(); ++i) {
    std::printf("%s\"%s\":%s", i ? "," : "", r.checks[i].first.c_str(),
                r.checks[i].second ? "true" : "false");
  }
  std::printf("}}");
}

// Peak resident set size of this process. getrusage's ru_maxrss survives
// execve, so in a process started from a larger parent (the Python runner)
// it reports the parent's footprint; the kernel's per-address-space
// high-water mark (VmHWM) starts fresh at exec. getrusage is the fallback
// where /proc is unavailable.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
        break;
      }
    }
    std::fclose(f);
    if (kb >= 0) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--smoke") {
      args->smoke = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace themis

int main(int argc, char** argv) {
  using namespace themis;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_sim --workload=NAME --seed=N --seconds=S --trace=0|1 "
                 "[--smoke]\n");
    return 2;
  }
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, args.smoke, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const Clock::time_point start = Clock::now();
  // Set-up samples first: set-up is small next to a run on every workload,
  // so one per repetition would leave setup_s a median of very few values.
  std::vector<double> setup_samples;
  while (setup_samples.size() < 5 ||
         (SecondsSince(start) < 0.1 * args.seconds && setup_samples.size() < 101)) {
    setup_samples.push_back(RunRep(w, false, /*setup_only=*/true).setup_s);
  }

  // Measured repetitions until the time budget would be exceeded (at least
  // one; with --trace=1, untraced and traced repetitions alternate).
  std::vector<Rep> reps;
  const size_t max_reps = args.smoke ? 2 : 400;
  double unit_s = 0.0;  // duration of the last repetition, or traced pair
  Clock::time_point unit_start = start;
  while (reps.size() < max_reps) {
    const bool unit_begins = !args.trace || reps.size() % 2 == 0;
    if (unit_begins) {
      if (!reps.empty() && SecondsSince(start) + unit_s > args.seconds) {
        break;
      }
      unit_start = Clock::now();
    }
    reps.push_back(RunRep(w, args.trace && !unit_begins, false));
    setup_samples.push_back(reps.back().setup_s);
    if (!args.trace || reps.size() % 2 == 0) {
      unit_s = SecondsSince(unit_start);
    }
  }

  const double peak_rss_mb = PeakRssMb();

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"config_hash\":\"%016" PRIx64
              "\",\"peak_rss_mb\":%.6f,\"setup_samples\":[",
              w.name.c_str(), args.seed, WorkloadHash(w), peak_rss_mb);
  for (size_t i = 0; i < setup_samples.size(); ++i) {
    std::printf("%s%.9g", i ? "," : "", setup_samples[i]);
  }
  std::printf("],\"reps\":[");
  for (size_t i = 0; i < reps.size(); ++i) {
    std::printf("%s", i ? "," : "");
    PrintRep(reps[i]);
  }
  std::printf("]}\n");
  return 0;
}
