#include "src/experiment_service/config_hash.h"

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <tuple>
#include <type_traits>

#include "src/sim/parse.h"

namespace themis {
namespace {

bool Reject(std::string* error, std::string_view name, const std::string& why) {
  if (error != nullptr) {
    *error = std::string(name) + ": " + why;
  }
  return false;
}

// --- Codecs --------------------------------------------------------------------
//
// A codec prints one member as its canonical value text (Format) and parses
// that text back (Parse, the strict inverse: it consumes the whole text or
// fails, and writes the member only on success). Grammar names the accepted
// spelling for --help and error messages.

// The codec of a row that names none, picked by the member's type: integers
// in decimal, doubles via %.17g (round-trip exact), bools as 0/1, rates in
// integer bps, and text on one line (a canonical line ends at '\n').
// ConfigHasher's typed Field overloads print through it too.
struct ValueCodec {
  static std::string Format(bool value) { return value ? "1" : "0"; }
  static std::string Format(std::integral auto value) { return std::to_string(value); }
  static std::string Format(double value) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }
  static std::string Format(Rate value) { return std::to_string(value.bps()); }
  static std::string Format(const std::string& value) { return value; }

  static bool Parse(std::string_view text, bool* out) {
    if (text != "0" && text != "1") {
      return false;
    }
    *out = text == "1";
    return true;
  }
  static bool Parse(std::string_view text, std::integral auto* out) { return ParseInt(text, out); }
  static bool Parse(std::string_view text, double* out) { return ParseDouble(text, out); }
  static bool Parse(std::string_view text, Rate* out) { return ParseRate(text, out); }
  static bool Parse(std::string_view text, std::string* out) {
    if (text.find('\n') != std::string_view::npos) {
      return false;
    }
    out->assign(text);
    return true;
  }

  static std::string Grammar(bool) { return "0|1"; }
  template <std::integral T>
  static std::string Grammar(T) {
    return std::is_signed_v<T> ? "int" : "uint";
  }
  static std::string Grammar(double) { return "number"; }
  static std::string Grammar(Rate) { return "rate"; }
  static std::string Grammar(const std::string&) { return "text"; }
};

// Integer picoseconds, or the .scn spelling ("100us"); never negative.
struct TimeCodec {
  static std::string Format(TimePs value) { return std::to_string(value); }
  static bool Parse(std::string_view text, TimePs* out) {
    return ParseNonNegative(text, out) || ParseTime(text, out);
  }
  static std::string Grammar(TimePs) { return "time"; }
};

// The enum a name function takes (declaration only, for decltype).
template <typename E>
E EnumOf(const char* (*name)(E));

// An enum, spelled by its name function (SchemeName, ...). The enumerators
// are 0, 1, ... up to the first value the name function calls "?".
template <auto kName>
struct EnumCodec {
  using E = decltype(EnumOf(kName));

  static std::vector<std::string_view> Tokens() {
    std::vector<std::string_view> tokens;
    while (std::string_view(kName(static_cast<E>(tokens.size()))) != "?") {
      tokens.push_back(kName(static_cast<E>(tokens.size())));
    }
    return tokens;
  }

  static std::string Format(E value) { return kName(value); }
  static bool Parse(std::string_view text, E* out) {
    const std::vector<std::string_view> tokens = Tokens();
    const auto it = std::find(tokens.begin(), tokens.end(), text);
    if (it == tokens.end()) {
      return false;
    }
    *out = static_cast<E>(it - tokens.begin());
    return true;
  }
  static std::string Grammar(E) {
    std::string grammar;
    for (const std::string_view token : Tokens()) {
      grammar.append(grammar.empty() ? "" : "|").append(token);
    }
    return grammar;
  }
};

// A vector: "<row name>=<count>", then each element's table under
// "<element><i>.". Parsing the count resizes the vector; a count above
// kMaxListLength is rejected, so a hostile count cannot allocate without bound.
constexpr size_t kMaxListLength = 4096;
struct ListCodec {
  const char* element;

  static std::string Format(const auto& list) { return std::to_string(list.size()); }
  static bool Parse(std::string_view text, auto* list) {
    size_t count = 0;
    if (!ParseInt(text, &count) || count > kMaxListLength) {
      return false;
    }
    list->resize(count);
    return true;
  }
  static std::string Grammar(const auto&) { return "count <= " + std::to_string(kMaxListLength); }
};

constexpr TimeCodec kTime{};
template <auto kName>
constexpr EnumCodec<kName> kEnum{};

constexpr const char* SprayModeToken(SprayMode mode) {
  switch (mode) {
    case SprayMode::kTorEgress:
      return "tor-egress";
    case SprayMode::kSportRewrite:
      return "sport-rewrite";
  }
  return "?";
}

constexpr const char* CcKindToken(CcKind cc) {
  switch (cc) {
    case CcKind::kDcqcn:
      return "dcqcn";
    case CcKind::kFixedRate:
      return "fixed-rate";
  }
  return "?";
}

constexpr const char* DownTimeDistToken(DownTimeSpec::Dist dist) {
  switch (dist) {
    case DownTimeSpec::Dist::kFixed:
      return "fixed";
    case DownTimeSpec::Dist::kUniform:
      return "uniform";
    case DownTimeSpec::Dist::kExponential:
      return "exponential";
  }
  return "?";
}

// --- Field tables --------------------------------------------------------------
//
// One table per serialized struct, one row per member in declaration order:
// the canonical text, its parser and the CLIs' --help all walk these rows. A
// row names a codec only where the member's type does not imply it (times,
// enums, lists); a member whose type has a table of its own (a nested
// struct) has neither codec nor doc.

template <typename S, typename M, typename Codec = ValueCodec>
struct Field {
  const char* name;  // canonical name, relative to the enclosing struct
  M S::*member;
  const char* doc = "";  // one line of --help
  Codec codec{};
};

template <typename S>
constexpr auto kFields = nullptr;

template <typename S>
constexpr bool kHasTable = !std::is_null_pointer_v<std::remove_const_t<decltype(kFields<S>)>>;

template <>
constexpr auto kFields<EcnProfile> = std::tuple{
    Field{"kmin_bytes", &EcnProfile::kmin_bytes,
          "ECN marking starts (0 = auto: 100 KB at 400G, scaled by rate)"},
    Field{"kmax_bytes", &EcnProfile::kmax_bytes,
          "ECN marking is certain (0 = auto: 400 KB at 400G, scaled by rate)"},
    Field{"pmax", &EcnProfile::pmax, "ECN marking probability at kmax"},
    Field{"enabled", &EcnProfile::enabled, "ECN marking on"},
};

template <>
constexpr auto kFields<FlowTableConfig> = std::tuple{
    Field{"capacity", &FlowTableConfig::capacity, "entries (0 = unbounded)"},
    Field{"policy", &FlowTableConfig::policy, "reclamation when full", kEnum<EvictionPolicyName>},
    Field{"idle_timeout", &FlowTableConfig::idle_timeout,
          "quiet time before an entry ages out (policy=idle)", kTime},
    Field{"entry_bytes", &FlowTableConfig::entry_bytes,
          "dataplane bytes per entry (0 = derived from the ring)"},
};

template <>
constexpr auto kFields<ReorderHookConfig> = std::tuple{
    Field{"per_flow_buffer_bytes", &ReorderHookConfig::per_flow_buffer_bytes,
          "SprayReorder bytes held per flow before a forced flush"},
    Field{"flush_timeout", &ReorderHookConfig::flush_timeout,
          "SprayReorder longest wait for the expected packet", kTime},
    Field{"flow_table", &ReorderHookConfig::flow_table},
};

template <>
constexpr auto kFields<DownTimeSpec> = std::tuple{
    Field{"dist", &DownTimeSpec::dist, "outage length distribution", kEnum<DownTimeDistToken>},
    Field{"a", &DownTimeSpec::a, "fixed value, uniform low or exponential mean", kTime},
    Field{"b", &DownTimeSpec::b, "uniform high", kTime},
};

template <>
constexpr auto kFields<ScenarioEvent> = std::tuple{
    Field{"kind", &ScenarioEvent::kind, "fault kind", kEnum<FaultKindName>},
    Field{"target", &ScenarioEvent::target, "switch or ports (tor0:up0, spine0:*)"},
    Field{"at", &ScenarioEvent::at, "first occurrence", kTime},
    Field{"repeat", &ScenarioEvent::repeat, "occurrences"},
    Field{"period", &ScenarioEvent::period, "spacing between occurrence starts", kTime},
    Field{"down", &ScenarioEvent::down},
    Field{"duration", &ScenarioEvent::duration, "gray/degrade window", kTime},
    Field{"drop_prob", &ScenarioEvent::drop_prob, "gray per-packet loss probability"},
    Field{"corrupt_prob", &ScenarioEvent::corrupt_prob, "gray per-packet corruption probability"},
    Field{"factor", &ScenarioEvent::factor, "degrade rate multiplier"},
};

template <>
constexpr auto kFields<ScenarioScript> = std::tuple{
    Field{"seed", &ScenarioScript::seed, "fault RNG seed (0 = the experiment seed)"},
    Field{"sample_period", &ScenarioScript::sample_period, "recovery probe cadence", kTime},
    Field{"restore_fraction", &ScenarioScript::restore_fraction,
          "recovered at this share of baseline goodput"},
    Field{"events", &ScenarioScript::events, "fault events", ListCodec{"event"}},
};

template <>
constexpr auto kFields<ExperimentConfig> = [] {
  using C = ExperimentConfig;
  return std::tuple{
      Field{"seed", &C::seed, "experiment RNG seed"},
      Field{"fabric", &C::fabric, "topology", kEnum<FabricKindName>},
      Field{"fat_tree_k", &C::fat_tree_k,
            "fat-tree arity, even (16 = 1024 hosts); sets the shape below"},
      Field{"num_tors", &C::num_tors, "leaf-spine ToRs"},
      Field{"num_spines", &C::num_spines, "leaf-spine spines"},
      Field{"hosts_per_tor", &C::hosts_per_tor, "hosts per ToR"},
      Field{"link_rate_bps", &C::link_rate, "link speed"},
      Field{"link_delay", &C::link_delay, "per-link propagation delay", kTime},
      Field{"fabric_delay_skew", &C::fabric_delay_skew,
            "extra delay per spine index (spine s adds s x skew)", kTime},
      Field{"switch_buffer_bytes", &C::switch_buffer_bytes, "shared buffer per switch"},
      Field{"port_queue_bytes", &C::port_queue_bytes,
            "per-port queue cap (0 = switch buffer / ToR ports)"},
      Field{"ecn", &C::ecn},
      Field{"pfc_enabled", &C::pfc_enabled, "priority flow control (lossless fabric)"},
      Field{"pfc_xoff_bytes", &C::pfc_xoff_bytes,
            "PFC pause threshold (0 = auto: 150 KB at 400G, scaled by rate)"},
      Field{"pfc_xon_bytes", &C::pfc_xon_bytes,
            "PFC resume threshold (0 = auto: 100 KB at 400G, scaled by rate)"},
      Field{"scheme", &C::scheme, "load balancing", kEnum<SchemeName>},
      Field{"themis_spray_mode", &C::themis_spray_mode,
            "Themis spray point: ToR egress (Themis-D) or sport rewrite (Themis-S)",
            kEnum<SprayModeToken>},
      Field{"themis_compensation", &C::themis_compensation, "Themis-D NACK compensation"},
      Field{"themis_truncate_queue_entries", &C::themis_truncate_queue_entries,
            "Themis-D ring keeps 1-byte truncated PSNs"},
      Field{"themis_queue_expansion", &C::themis_queue_expansion,
            "Themis-D ring sizing factor F (Section 4)"},
      Field{"themis_pause_grace", &C::themis_pause_grace,
            "Themis-D pause-aware NACK grace window"},
      Field{"themis_grace_lookback", &C::themis_grace_lookback,
            "grace lookback (0 = auto from the PFC headroom)", kTime},
      Field{"themis_grace_slack", &C::themis_grace_slack,
            "grace slack (0 = auto from the PFC headroom)", kTime},
      Field{"themis_flow_capacity", &C::themis_flow_capacity,
            "Themis-D flow-table entries per ToR (0 = unbounded)"},
      Field{"themis_aging", &C::themis_aging,
            "reclamation when a bounded Themis-D table is full", kEnum<EvictionPolicyName>},
      Field{"themis_idle_timeout", &C::themis_idle_timeout,
            "quiet time before a Themis-D entry ages out (themis_aging=idle)", kTime},
      Field{"flowlet_gap", &C::flowlet_gap, "Flowlet inactivity gap", kTime},
      Field{"reorder", &C::reorder},
      Field{"traffic_model", &C::traffic_model,
            "hybrid background model (trace attaches from code only)",
            kEnum<TrafficModelKindName>},
      Field{"background_load", &C::background_load, "offered background load per fabric port"},
      Field{"traffic_burstiness", &C::traffic_burstiness, "background AR(1) modulation amplitude"},
      Field{"traffic_epoch", &C::traffic_epoch, "background epoch", kTime},
      Field{"scenario", &C::scenario},
      Field{"transport", &C::transport, "RNIC transport", kEnum<TransportKindName>},
      Field{"cc", &C::cc, "congestion control", kEnum<CcKindToken>},
      Field{"dcqcn_ti", &C::dcqcn_ti, "DCQCN rate-increase timer TI", kTime},
      Field{"dcqcn_td", &C::dcqcn_td, "DCQCN rate-decrease interval TD", kTime},
      Field{"fixed_rate_bps", &C::fixed_rate, "send rate for cc=fixed-rate (0 = line rate)"},
      Field{"mtu_bytes", &C::mtu_bytes, "MTU"},
      Field{"retransmit_timeout", &C::retransmit_timeout, "RNIC retransmission timeout", kTime},
  };
}();

template <>
constexpr auto kFields<WorkloadSpec> = std::tuple{
    Field{"pattern", &WorkloadSpec::pattern, "traffic matrix", kEnum<TrafficPatternName>},
    Field{"load", &WorkloadSpec::load, "offered load, fraction of edge bandwidth"},
    Field{"window", &WorkloadSpec::window, "flows arrive in [0, window)", kTime},
    Field{"incast_fanin", &WorkloadSpec::incast_fanin, "senders per incast burst"},
    Field{"incast_victim", &WorkloadSpec::incast_victim, "incast aggregator host"},
    Field{"incast_fraction", &WorkloadSpec::incast_fraction,
          "incast-mix: share of the load carried by bursts"},
    Field{"seed", &WorkloadSpec::seed, "workload RNG seed"},
    Field{"max_flows", &WorkloadSpec::max_flows, "cap on generated flows (0 = none)"},
};

// The aggregate arity of S: how many initializers it accepts.
struct AnyMember {
  template <typename T>
  operator T() const;
};

template <typename S, typename... Members>
constexpr size_t MemberCount() {
  if constexpr (requires { S{Members{}..., AnyMember{}}; }) {
    return MemberCount<S, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

// --- Table walks ---------------------------------------------------------------

// Calls fn(name, row, member) for every row of `s` (const or not), in table
// order: a nested struct's rows under "<name>.", and after a list's count,
// its elements' rows under "<element><i>.".
template <typename S, typename Fn>
void Visit(S& s, const std::string& prefix, Fn& fn) {
  using T = std::remove_const_t<S>;
  // Every struct AppendFields reaches passes here, so a member added without
  // a row fails to compile on every platform.
  static_assert(MemberCount<T>() == std::tuple_size_v<std::remove_const_t<decltype(kFields<T>)>>,
                "a member without a row in its field table");
  const auto visit_row = [&](const auto& row) {
    auto& member = s.*row.member;
    const std::string name = prefix + row.name;
    if constexpr (kHasTable<std::remove_cvref_t<decltype(member)>>) {
      Visit(member, name + ".", fn);
    } else {
      fn(name, row, member);
    }
    if constexpr (std::is_same_v<std::decay_t<decltype(row.codec)>, ListCodec>) {
      for (size_t i = 0; i < member.size(); ++i) {
        Visit(member[i], prefix + row.codec.element + std::to_string(i) + ".", fn);
      }
    }
  };
  std::apply([&](const auto&... row) { (visit_row(row), ...); }, kFields<T>);
}

template <typename S>
std::vector<ConfigField> Describe(const S& s, const std::string& prefix) {
  std::vector<ConfigField> fields;
  auto describe = [&fields](const std::string& name, const auto& row, const auto& member) {
    fields.push_back({name, row.codec.Format(member), row.codec.Grammar(member), row.doc});
  };
  Visit(s, prefix, describe);
  return fields;
}

// Parses `value` into the row named `name`; leaves `s` unchanged on failure.
template <typename S>
bool Set(S& s, const std::string& prefix, std::string_view name, std::string_view value,
         std::string* error) {
  bool found = false;
  bool ok = false;
  auto set = [&](const std::string& row_name, const auto& row, auto& member) {
    if (!found && row_name == name) {
      found = true;
      ok = row.codec.Parse(value, &member) ||
           Reject(error, name,
                  "expected " + row.codec.Grammar(member) + ", got '" + std::string(value) + "'");
    }
  };
  Visit(s, prefix, set);
  return found ? ok : Reject(error, name, "no such config field");
}

constexpr char kWorkloadPrefix[] = "workload.";

// What FctPointHash digests.
ConfigHasher FctPointHasher(const ExperimentConfig& config, const WorkloadSpec& workload,
                            std::string_view cdf_name, TimePs deadline) {
  ConfigHasher h;
  AppendFields(h, config);
  AppendFields(h, workload);
  h.Field("workload.cdf", cdf_name);
  h.Field("harness.deadline", deadline);
  return h;
}

// What CollectivePointHash digests.
ConfigHasher CollectivePointHasher(const ExperimentConfig& config, const CollectiveRun& run,
                                   std::string_view label) {
  ConfigHasher h;
  AppendFields(h, config);
  h.Field("collective.kind", static_cast<int64_t>(run.kind));
  h.Field("collective.bytes", run.bytes);
  h.Field("collective.groups",
          run.groups.empty() ? run.cross_rack_groups : static_cast<int>(run.groups.size()));
  for (size_t i = 0; i < run.groups.size(); ++i) {
    std::string ranks;
    for (const int rank : run.groups[i]) {
      ranks.append(ranks.empty() ? "" : " ").append(std::to_string(rank));
    }
    h.Field("collective.group" + std::to_string(i), ranks);
  }
  h.Field("harness.deadline", run.deadline);
  if (run.with_loss) {
    h.Field("loss.spine", CollectiveRun::kLossSpine);
    h.Field("loss.port", CollectiveRun::kLossPort);
    h.Field("loss.at", CollectiveRun::kLossAt);
    h.Field("loss.duration", CollectiveRun::kLossDuration);
  }
  if (!label.empty()) {
    h.Field("row.scheme", label);
  }
  return h;
}

// Appends every field of `s` under `prefix`.
template <typename S>
void AppendPrefixed(ConfigHasher& h, const S& s, const std::string& prefix) {
  for (const ConfigField& f : Describe(s, prefix)) {
    h.Field(f.name, f.value);
  }
}

// What ChaosPointHash digests.
ConfigHasher ChaosPointHasher(const ExperimentConfig& clean, const WorkloadSpec& workload,
                              std::string_view cdf_name, TimePs deadline,
                              const std::vector<ChaosFaultRun>& faults) {
  ConfigHasher h = FctPointHasher(clean, workload, cdf_name, deadline);
  for (size_t i = 0; i < faults.size(); ++i) {
    const std::string prefix = "fault" + std::to_string(i);
    h.Field(prefix, faults[i].label);
    AppendPrefixed(h, faults[i].script, prefix + ".");
  }
  return h;
}

// What HybridPointHash digests.
ConfigHasher HybridPointHasher(const ExperimentConfig& baseline, const WorkloadSpec& foreground,
                               std::string_view cdf_name, TimePs deadline,
                               const WorkloadSpec& background, TimePs calibration_period) {
  ConfigHasher h = FctPointHasher(baseline, foreground, cdf_name, deadline);
  AppendPrefixed(h, background, "background.");
  h.Field("calibration.period", calibration_period);
  return h;
}

}  // namespace

void ConfigHasher::AppendLine(std::string_view name, std::string_view value) {
  const auto mix = [this](std::string_view s) {
    for (const char ch : s) {
      hash_ ^= static_cast<unsigned char>(ch);
      hash_ *= kFnvPrime;
    }
  };
  mix(name);
  mix("=");
  mix(value);
  mix("\n");
  text_.append(name);
  text_.push_back('=');
  text_.append(value);
  text_.push_back('\n');
}

void ConfigHasher::Field(std::string_view name, uint64_t value) {
  AppendLine(name, ValueCodec::Format(value));
}

void ConfigHasher::Field(std::string_view name, int64_t value) {
  AppendLine(name, ValueCodec::Format(value));
}

void ConfigHasher::Field(std::string_view name, bool value) {
  AppendLine(name, ValueCodec::Format(value));
}

void ConfigHasher::Field(std::string_view name, double value) {
  AppendLine(name, ValueCodec::Format(value));
}

void ConfigHasher::Field(std::string_view name, std::string_view value) {
  AppendLine(name, value);
}

void AppendFields(ConfigHasher& h, const ExperimentConfig& config) {
  for (const ConfigField& f : ConfigFields(config)) {
    h.Field(f.name, f.value);
  }
}

void AppendFields(ConfigHasher& h, const WorkloadSpec& workload) {
  for (const ConfigField& f : ConfigFields(workload)) {
    h.Field(f.name, f.value);
  }
}

bool SetField(ExperimentConfig& config, std::string_view name, std::string_view value,
              std::string* error) {
  return Set(config, "", name, value, error);
}

bool SetField(WorkloadSpec& workload, std::string_view name, std::string_view value,
              std::string* error) {
  return Set(workload, kWorkloadPrefix, name, value, error);
}

std::vector<ConfigField> ConfigFields(const ExperimentConfig& config) {
  return Describe(config, "");
}

std::vector<ConfigField> ConfigFields(const WorkloadSpec& workload) {
  return Describe(workload, kWorkloadPrefix);
}

uint64_t FctPointHash(const ExperimentConfig& config, const WorkloadSpec& workload,
                      std::string_view cdf_name, TimePs deadline) {
  return FctPointHasher(config, workload, cdf_name, deadline).hash();
}

uint64_t CollectivePointHash(const ExperimentConfig& config, const CollectiveRun& run,
                             std::string_view label) {
  return CollectivePointHasher(config, run, label).hash();
}

uint64_t ChaosPointHash(const ExperimentConfig& clean, const WorkloadSpec& workload,
                        std::string_view cdf_name, TimePs deadline,
                        const std::vector<ChaosFaultRun>& faults) {
  return ChaosPointHasher(clean, workload, cdf_name, deadline, faults).hash();
}

uint64_t HybridPointHash(const ExperimentConfig& baseline, const WorkloadSpec& foreground,
                         std::string_view cdf_name, TimePs deadline,
                         const WorkloadSpec& background, TimePs calibration_period) {
  return HybridPointHasher(baseline, foreground, cdf_name, deadline, background,
                           calibration_period)
      .hash();
}

std::vector<ConfigHashGoldenCase> ConfigHashGoldenCases() {
  std::vector<ConfigHashGoldenCase> cases;
  const auto add = [&cases](const char* label, const ConfigHasher& h) {
    cases.push_back({label, h.hash(), h.canonical_text()});
  };
  const auto add_config = [&add](const char* label, const ExperimentConfig& c) {
    ConfigHasher h;
    AppendFields(h, c);
    add(label, h);
  };

  add_config("default", ExperimentConfig{});
  {
    ExperimentConfig c;
    c.seed = 7;
    c.fabric = FabricKind::kFatTree;
    c.fat_tree_k = 16;
    c.traffic_model = TrafficModelKind::kFluid;
    c.background_load = 0.4;
    add_config("fattree16-fluid", c);
  }
  {
    ExperimentConfig c;
    c.scheme = Scheme::kThemis;
    c.themis_spray_mode = SprayMode::kSportRewrite;
    c.pfc_enabled = false;
    c.themis_pause_grace = false;
    add_config("themis-s-nopfc", c);
  }
  {
    ExperimentConfig c;
    c.themis_flow_capacity = 1600;
    c.themis_aging = EvictionPolicy::kIdleTimeout;
    c.themis_idle_timeout = 50 * kMicrosecond;
    add_config("bounded-flow-table", c);
  }
  {
    ExperimentConfig c;
    ScenarioPreset("tor-uplink-flap", &c.scenario);
    add_config("scenario-tor-uplink-flap", c);
  }
  {
    // A full FCT grid point: fabric + workload + distribution + deadline.
    ExperimentConfig c;
    c.seed = 42;
    c.num_tors = 2;
    c.num_spines = 2;
    c.hosts_per_tor = 4;
    c.scheme = Scheme::kRandomSpray;
    WorkloadSpec w;
    w.pattern = TrafficPattern::kIncastMix;
    w.load = 0.3;
    w.window = 200 * kMicrosecond;
    w.incast_fanin = 4;
    w.seed = 42;
    w.max_flows = 48;
    add("fct-point", FctPointHasher(c, w, "alistorage", w.window * 40));
  }
  {
    // The first Fig. 5 Allreduce point: ECMP at (TI=900us, TD=4us), 16
    // cross-rack groups of 8 MiB each, 60 s deadline.
    ExperimentConfig c;
    c.scheme = Scheme::kEcmp;
    c.dcqcn_ti = 900 * kMicrosecond;
    c.dcqcn_td = 4 * kMicrosecond;
    CollectiveRun run;
    run.kind = CollectiveKind::kAllreduce;
    run.bytes = uint64_t{8} << 20;
    run.cross_rack_groups = 16;
    run.deadline = 60 * kSecond;
    add("fig5-point", CollectivePointHasher(c, run, ""));
  }
  {
    // A Fig. 1-fabric ablation point: Themis on the two neighbour rings, 8 MiB
    // per hop, with spine 0's downlink to rack 1 blackholed at 30 us for 10 us.
    ExperimentConfig c;
    c.num_tors = 2;
    c.num_spines = 4;
    c.hosts_per_tor = 4;
    c.link_rate = Rate::Gbps(100);
    c.dcqcn_ti = 10 * kMicrosecond;
    c.dcqcn_td = 200 * kMicrosecond;
    c.fabric_delay_skew = 200 * kNanosecond;
    CollectiveRun run;
    run.kind = CollectiveKind::kNeighborRing;
    run.bytes = uint64_t{8} << 20;
    run.groups = {{0, 4, 1, 5}, {2, 6, 3, 7}};
    run.deadline = 120 * kSecond;
    run.with_loss = true;
    add("ring-loss-point", CollectivePointHasher(c, run, "Compensation/on/loss"));
  }
  {
    // The first chaos point: ECMP on the 4x4x4 leaf-spine, clean and under
    // the flap, reboot, gray and degrade campaigns.
    ExperimentConfig c;
    c.seed = 42;
    c.num_tors = 4;
    c.num_spines = 4;
    c.hosts_per_tor = 4;
    c.link_rate = Rate::Gbps(100);
    c.scheme = Scheme::kEcmp;
    const WorkloadSpec w{.load = 0.5, .window = 1200 * kMicrosecond, .seed = 42};
    std::vector<ChaosFaultRun> faults = {{"flap", {}}, {"reboot", {}}, {"gray", {}},
                                         {"degrade", {}}};
    ScenarioPreset("tor-uplink-flap", &faults[0].script);
    ParseScenario("seed 17\nsample-period 20us\nreboot target=spine1 at=400us down=150us\n",
                  &faults[1].script, nullptr);
    ScenarioPreset("gray-spine", &faults[2].script);
    ParseScenario("seed 19\nsample-period 20us\n"
                  "degrade target=tor0:up1 at=300us duration=500us factor=0.25\n",
                  &faults[3].script, nullptr);
    add("chaos-point", ChaosPointHasher(c, w, "websearch", w.window * 100, faults));
  }
  {
    // The first hybrid point: RandomSpray on the 2x2x2 validation fabric,
    // background load 0.2 (seed 99), calibration every 5 us.
    ExperimentConfig c;
    c.seed = 42;
    c.num_tors = 2;
    c.num_spines = 2;
    c.hosts_per_tor = 2;
    c.link_rate = Rate::Gbps(100);
    c.scheme = Scheme::kRandomSpray;
    const WorkloadSpec fg{.load = 0.3, .window = 200 * kMicrosecond, .seed = 1};
    const WorkloadSpec bg{.load = 0.2, .window = 200 * kMicrosecond, .seed = 99};
    add("hybrid-point", HybridPointHasher(c, fg, "small", fg.window * 100, bg, 5 * kMicrosecond));
  }
  {
    // Every enum token the canonical text can print: one config per
    // enumerator of each serialized enum, then a scenario using all four
    // fault kinds and all three down-time distributions.
    ConfigHasher h;
    const auto each = [&h](int count, const auto& set) {
      for (int i = 0; i < count; ++i) {
        ExperimentConfig c;
        WorkloadSpec w;
        set(c, w, i);
        AppendFields(h, c);
        AppendFields(h, w);
      }
    };
    each(2, [](ExperimentConfig& c, WorkloadSpec&, int i) { c.fabric = FabricKind(i); });
    each(6, [](ExperimentConfig& c, WorkloadSpec&, int i) { c.scheme = Scheme(i); });
    each(2, [](ExperimentConfig& c, WorkloadSpec&, int i) { c.themis_spray_mode = SprayMode(i); });
    each(3, [](ExperimentConfig& c, WorkloadSpec&, int i) {
      c.themis_aging = EvictionPolicy(i);
      c.reorder.flow_table.policy = EvictionPolicy(i);
    });
    each(3, [](ExperimentConfig& c, WorkloadSpec&, int i) {
      c.traffic_model = TrafficModelKind(i);
    });
    each(5, [](ExperimentConfig& c, WorkloadSpec&, int i) { c.transport = TransportKind(i); });
    each(2, [](ExperimentConfig& c, WorkloadSpec&, int i) { c.cc = CcKind(i); });
    each(4, [](ExperimentConfig&, WorkloadSpec& w, int i) { w.pattern = TrafficPattern(i); });
    each(1, [](ExperimentConfig& c, WorkloadSpec&, int) {
      ParseScenario(
          "seed 3\n"
          "flap target=tor0:up0 at=1us down=5us\n"
          "reboot target=spine1 at=2us down=uniform:1us:3us\n"
          "gray target=spine0:* at=3us duration=4us drop=1e-3 corrupt=2e-3\n"
          "degrade target=tor1:up1 at=5us duration=6us factor=0.5\n"
          "flap target=tor1:up0 at=7us down=exp:2us repeat=2 period=9us\n",
          &c.scenario, nullptr);
    });
    add("enum-tokens", h);
  }
  return cases;
}

}  // namespace themis
