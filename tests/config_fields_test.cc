// Tests for the config field table (src/experiment_service/config_hash.h)
// and the shared number/time grammar (src/sim/parse.h): the parser is the
// strict inverse of the canonical text, every table row reaches the hash,
// and hostile input is rejected with an error instead of crashing or
// allocating without bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/experiment_service/config_hash.h"
#include "src/scenario/scenario_script.h"
#include "src/sim/parse.h"
#include "src/sim/random.h"

namespace themis {
namespace {

// --- Shared number/time grammar ----------------------------------------------

TEST(ParseTest, IntegersConsumeEverythingAndFitTheirType) {
  int i = 7;
  EXPECT_TRUE(ParseInt("-42", &i));
  EXPECT_EQ(i, -42);
  for (const char* bad : {"", "abc", "4x", " 4", "+4", "4 ", "2147483648", "1e3"}) {
    EXPECT_FALSE(ParseInt(bad, &i)) << bad;
  }
  EXPECT_EQ(i, -42);  // untouched by failures
  uint32_t u = 0;
  EXPECT_TRUE(ParseInt("4294967295", &u));
  EXPECT_FALSE(ParseInt("4294967296", &u));
  EXPECT_FALSE(ParseInt("-1", &u));
  uint64_t big = 0;
  EXPECT_FALSE(ParseInt("99999999999999999999", &big));
  int64_t n = 5;
  EXPECT_TRUE(ParseNonNegative("0", &n));
  EXPECT_EQ(n, 0);
  EXPECT_FALSE(ParseNonNegative("-1", &n));
  EXPECT_EQ(n, 0);
}

TEST(ParseTest, DoublesAreFiniteAndWhole) {
  double d = 0.0;
  EXPECT_TRUE(ParseDouble("2e-3", &d));
  EXPECT_EQ(d, 2e-3);
  EXPECT_TRUE(ParseDouble("-0.5", &d));
  EXPECT_EQ(d, -0.5);
  for (const char* bad : {"", "0.5x", "nan", "inf", "1e999", "--1", "0x1p3"}) {
    EXPECT_FALSE(ParseDouble(bad, &d)) << bad;
  }
}

TEST(ParseTest, TimesAndRatesTakeUnits) {
  TimePs t = 0;
  EXPECT_TRUE(ParseTime("100us", &t));
  EXPECT_EQ(t, 100 * kMicrosecond);
  EXPECT_TRUE(ParseTime("1.5ns", &t));
  EXPECT_EQ(t, 1500);
  for (const char* bad : {"100", "us", "2e2us", "-1us", "1.2.3ms", "5min", "1e30s"}) {
    EXPECT_FALSE(ParseTime(bad, &t)) << bad;
  }
  EXPECT_TRUE(ParseTime(".5us", &t));
  EXPECT_EQ(t, 500'000);
  Rate r;
  EXPECT_TRUE(ParseRate("100G", &r));
  EXPECT_EQ(r, Rate::Gbps(100));
  EXPECT_TRUE(ParseRate("2.5G", &r));
  EXPECT_EQ(r.bps(), 2'500'000'000);
  EXPECT_TRUE(ParseRate("400", &r));  // bare integer bits per second
  EXPECT_EQ(r.bps(), 400);
  for (const char* bad : {"", "G", "100Gbps", "-5G", "-5", "1e30T", "100 G"}) {
    EXPECT_FALSE(ParseRate(bad, &r)) << bad;
  }
}

// --- Helpers -------------------------------------------------------------------

std::string Canonical(const ExperimentConfig& config, const WorkloadSpec& workload) {
  ConfigHasher h;
  AppendFields(h, config);
  AppendFields(h, workload);
  return h.canonical_text();
}

// Routes one canonical name to the struct that owns it.
bool Apply(ExperimentConfig& config, WorkloadSpec& workload, const std::string& name,
           const std::string& value, std::string* error) {
  return name.starts_with("workload.") ? SetField(workload, name, value, error)
                                       : SetField(config, name, value, error);
}

// Re-serializes canonical text by parsing it line by line. Each struct's
// serialization ends at its last table row; lines that name no field (the
// harness knobs of an FCT point) are copied through.
std::string Reparse(const std::string& text) {
  const std::string config_end = ConfigFields(ExperimentConfig{}).back().name;
  const std::string workload_end = ConfigFields(WorkloadSpec{}).back().name;
  ConfigHasher out;
  ExperimentConfig config;
  WorkloadSpec workload;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    const size_t eq = line.find('=');
    const std::string name = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    std::string error;
    if (!Apply(config, workload, name, value, &error)) {
      out.Field(name, value);
    } else if (name == config_end) {
      AppendFields(out, config);
      config = ExperimentConfig{};
    } else if (name == workload_end) {
      AppendFields(out, workload);
      workload = WorkloadSpec{};
    }
  }
  return out.canonical_text();
}

constexpr char kFirstEvent[] = "scenario.event0.";

// "scenario.event0.at" -> "scenario.event3.at"; other names unchanged.
std::string AtIndex(const std::string& name, uint64_t index) {
  if (!name.starts_with(kFirstEvent)) {
    return name;
  }
  return "scenario.event" + std::to_string(index) + "." +
         name.substr(sizeof(kFirstEvent) - 1);
}

// Every field of a config with one scenario event, then the workload's.
std::vector<ConfigField> AllFields(const ExperimentConfig& config, const WorkloadSpec& workload) {
  ExperimentConfig one_event = config;
  one_event.scenario.events.resize(1);
  std::vector<ConfigField> fields = ConfigFields(one_event);
  const std::vector<ConfigField> more = ConfigFields(workload);
  fields.insert(fields.end(), more.begin(), more.end());
  return fields;
}

std::vector<std::string> Tokens(const std::string& grammar) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (pos <= grammar.size()) {
    const size_t bar = std::min(grammar.find('|', pos), grammar.size());
    tokens.push_back(grammar.substr(pos, bar - pos));
    pos = bar + 1;
  }
  return tokens;
}

// A random value in `field`'s grammar; times and rates alternate between the
// canonical integer and the unit spelling.
std::string RandomValue(const ConfigField& field, Rng& rng) {
  const std::string& g = field.grammar;
  if (g == "int") {
    return std::to_string(rng.Range(-1000000, 1000000));
  }
  if (g == "uint") {
    return std::to_string(rng.Below(1u << 31));
  }
  if (g == "number") {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", (rng.NextDouble() - 0.5) * 1e6);
    return buf;
  }
  if (g == "time") {
    return rng.Chance(0.5) ? std::to_string(rng.Below(kSecond))
                           : std::to_string(rng.Below(10000)) + "us";
  }
  if (g == "rate") {
    return rng.Chance(0.5) ? std::to_string(rng.Below(1ull << 40))
                           : std::to_string(rng.Below(800)) + "G";
  }
  if (g == "text") {
    static constexpr char kChars[] = "abcdefghijklmnopqrstuvwxyz0123456789:*= ";
    std::string text;
    for (uint64_t n = rng.Below(12); n > 0; --n) {
      text.push_back(kChars[rng.Below(sizeof(kChars) - 1)]);
    }
    return text;
  }
  const std::vector<std::string> tokens = Tokens(g);  // 0|1 and enums
  return tokens[rng.Below(tokens.size())];
}

// Sets every field of both structs to a random value, with up to four
// random scenario events.
void Randomize(ExperimentConfig& config, WorkloadSpec& workload, Rng& rng) {
  const uint64_t events = rng.Below(5);
  for (const ConfigField& f : AllFields(config, workload)) {
    std::string error;
    if (f.name == "scenario.events") {
      ASSERT_TRUE(Apply(config, workload, f.name, std::to_string(events), &error)) << error;
    } else if (f.name.starts_with(kFirstEvent)) {
      for (uint64_t i = 0; i < events; ++i) {
        ASSERT_TRUE(Apply(config, workload, AtIndex(f.name, i), RandomValue(f, rng), &error))
            << error;
      }
    } else {
      ASSERT_TRUE(Apply(config, workload, f.name, RandomValue(f, rng), &error)) << error;
    }
  }
}

// --- Round trip ------------------------------------------------------------------

TEST(ConfigFieldsTest, GoldenCanonicalTextsParseBackExactly) {
  for (const ConfigHashGoldenCase& c : ConfigHashGoldenCases()) {
    EXPECT_EQ(Reparse(c.canonical_text), c.canonical_text) << c.label;
  }
}

TEST(ConfigFieldsTest, RandomConfigsRoundTrip) {
  Rng rng(2026);
  for (int trial = 0; trial < 1000; ++trial) {
    ExperimentConfig config;
    WorkloadSpec workload;
    Randomize(config, workload, rng);
    const std::string text = Canonical(config, workload);
    ASSERT_EQ(Reparse(text), text) << "trial " << trial;
  }
}

TEST(ConfigFieldsTest, ListsEveryCanonicalLineOnce) {
  ExperimentConfig config;
  ASSERT_TRUE(SetField(config, "scenario.events", "2", nullptr));
  ASSERT_TRUE(SetField(config, "scenario.event1.target", "spine0", nullptr));
  std::string listed;
  for (const ConfigField& f : ConfigFields(config)) {
    listed += f.name + "=" + f.value + "\n";
  }
  ConfigHasher h;
  AppendFields(h, config);
  EXPECT_EQ(listed, h.canonical_text());
}

// --- Every row reaches the hash (replaces a three-field spot check) ----------

// A valid value other than `field.value`.
std::string OtherValue(const ConfigField& field) {
  const std::string& g = field.grammar;
  if (g == "int" || g == "uint" || g == "time" || g == "rate" || g.starts_with("count")) {
    return std::to_string(std::stoll(field.value) + 1);
  }
  if (g == "number") {
    return field.value == "1" ? "2" : "1";
  }
  if (g == "text") {
    return field.value + "x";
  }
  for (const std::string& token : Tokens(g)) {
    if (token != field.value) {
      return token;
    }
  }
  return field.value;
}

TEST(ConfigFieldsTest, PerturbingEveryRowChangesTheHash) {
  ExperimentConfig base;
  ASSERT_TRUE(SetField(base, "scenario.events", "1", nullptr));
  const WorkloadSpec base_workload;
  const uint64_t base_hash = FctPointHash(base, base_workload, "websearch", kSecond);
  const std::vector<ConfigField> fields = AllFields(base, base_workload);
  ASSERT_EQ(fields.size(), 51u + 12u + 8u);  // fixed + one event + workload
  for (const ConfigField& f : fields) {
    ExperimentConfig config = base;
    WorkloadSpec workload = base_workload;
    std::string error;
    ASSERT_TRUE(Apply(config, workload, f.name, OtherValue(f), &error)) << error;
    EXPECT_NE(FctPointHash(config, workload, "websearch", kSecond), base_hash) << f.name;
  }
}

// --- Malformed and hostile input ------------------------------------------------

TEST(ConfigFieldsTest, MalformedValuesNameTheFieldAndChangeNothing) {
  struct Case {
    const char* name;
    const char* value;
  };
  const Case kCases[] = {
      {"num_tors", "abc"},           {"workload.load", "0.5x"},
      {"workload.window", "2e2"},    {"mtu_bytes", "-1"},
      {"mtu_bytes", "4294967296"},   {"scheme", "themis"},
      {"pfc_enabled", "true"},       {"link_rate_bps", "100Gbps"},
      {"link_rate_bps", "-5"},       {"link_delay", "-1"},
      {"ecn.pmax", "nan"},           {"scenario.event0.kind", "flap"},
      {"scenario.events", "4097"},   {"scenario.events", "4000000000"},
      {"no_such_field", "1"},        {"ecn", "1"},
      {"workload.nope", "1"},        {"scenario.event0x.kind", "flap"},
  };
  for (const Case& c : kCases) {
    ExperimentConfig config;
    WorkloadSpec workload;
    const std::string before = Canonical(config, workload);
    std::string error;
    EXPECT_FALSE(Apply(config, workload, c.name, c.value, &error)) << c.name << "=" << c.value;
    EXPECT_EQ(error.rfind(std::string(c.name) + ": ", 0), 0u) << error;
    EXPECT_EQ(Canonical(config, workload), before) << c.name << "=" << c.value;
  }
}

// Values the field table reads whole but that would stall a run (a zero
// timer period re-arms at the same tick forever) or crash it (an empty PSN
// queue ring): ValidateConfig rejects each, naming the field, and accepts the
// default config.
TEST(ConfigFieldsTest, ValidateConfigRejectsStallingAndCrashingValues) {
  std::string error;
  EXPECT_TRUE(ValidateConfig(ExperimentConfig{}, &error)) << error;
  struct Case {
    const char* name;
    const char* value;
  };
  const Case kCases[] = {
      {"dcqcn_ti", "0"},           {"retransmit_timeout", "0"},
      {"traffic_epoch", "0"},
      {"themis_queue_expansion", "0"}, {"themis_queue_expansion", "-1.5"},
      {"fat_tree_k", "3"},         {"fat_tree_k", "0"},
  };
  for (const Case& c : kCases) {
    ExperimentConfig config;
    config.fabric = FabricKind::kFatTree;
    ASSERT_TRUE(ValidateConfig(config, &error)) << error;
    ASSERT_TRUE(SetField(config, c.name, c.value, &error)) << error;
    error.clear();
    EXPECT_FALSE(ValidateConfig(config, &error)) << c.name << "=" << c.value;
    EXPECT_EQ(error.rfind(std::string(c.name) + ": ", 0), 0u) << error;
  }
  // Negative times and non-finite expansions cannot be spelled in config
  // text; set them directly.
  ExperimentConfig negative;
  negative.dcqcn_ti = -kMicrosecond;
  EXPECT_FALSE(ValidateConfig(negative, &error));
  EXPECT_EQ(error.rfind("dcqcn_ti: ", 0), 0u) << error;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    ExperimentConfig config;
    config.themis_queue_expansion = bad;
    EXPECT_FALSE(ValidateConfig(config, &error)) << bad;
    EXPECT_EQ(error.rfind("themis_queue_expansion: ", 0), 0u) << error;
  }
  // An odd arity only matters on a fat-tree.
  ExperimentConfig leaf_spine;
  leaf_spine.fat_tree_k = 3;
  EXPECT_TRUE(ValidateConfig(leaf_spine, &error)) << error;
  // The scenario check still runs, and names the scenario.
  ExperimentConfig bad_scenario;
  ASSERT_TRUE(SetField(bad_scenario, "scenario.sample_period", "0", &error)) << error;
  EXPECT_FALSE(ValidateConfig(bad_scenario, &error));
  EXPECT_EQ(error.rfind("scenario", 0), 0u) << error;
}

TEST(ConfigFieldsTest, ScnSpellingsAndEventCountCap) {
  ExperimentConfig config;
  std::string error;
  ASSERT_TRUE(SetField(config, "link_delay", "2us", &error)) << error;
  EXPECT_EQ(config.link_delay, 2 * kMicrosecond);
  ASSERT_TRUE(SetField(config, "link_rate_bps", "25G", &error)) << error;
  EXPECT_EQ(config.link_rate, Rate::Gbps(25));
  ASSERT_TRUE(SetField(config, "scenario.events", "4096", &error)) << error;
  EXPECT_EQ(config.scenario.events.size(), 4096u);
  ASSERT_TRUE(SetField(config, "scenario.event4095.down.dist", "exponential", &error)) << error;
  EXPECT_EQ(config.scenario.events[4095].down.dist, DownTimeSpec::Dist::kExponential);
  ASSERT_TRUE(SetField(config, "scenario.events", "2", &error)) << error;
  EXPECT_EQ(config.scenario.events.size(), 2u);
}

// Every line of a mutated canonical text either applies or is rejected with
// an error; none may crash (the sanitizer build runs this too).
TEST(ConfigFieldsTest, MutatedCanonicalTextAppliesOrRejects) {
  std::vector<std::string> texts;
  for (const ConfigHashGoldenCase& c : ConfigHashGoldenCases()) {
    texts.push_back(c.canonical_text);
  }
  Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    ExperimentConfig config;
    WorkloadSpec workload;
    Randomize(config, workload, rng);
    texts.push_back(Canonical(config, workload));
  }
  const std::string kHostile =
      "no_such_field=1\nseed==1\nnum_tors=4=5\nnum_tors=99999999999999999999\n"
      "link_delay=1e300s\nlink_rate_bps=1e30G\nmtu_bytes=-1\nseed=-5\n"
      "workload.max_flows=-1\nscenario.events=4000000000\nscenario.events=-1\n"
      "scenario.event99.at=1us\n=\n==\nworkload.=1\nscenario.event.kind=flap\n";

  std::vector<std::string> mutants;
  for (const std::string& text : texts) {
    mutants.push_back(kHostile + text);
    for (int m = 0; m < 25; ++m) {
      std::string mutant = text;
      switch (m % 3) {
        case 0:  // truncation
          mutant.resize(rng.Below(mutant.size()));
          break;
        case 1:  // byte flips
          for (int flips = 0; flips < 4; ++flips) {
            mutant[rng.Below(mutant.size())] = static_cast<char>(rng.Below(256));
          }
          break;
        default:  // a line's value swapped for a hostile one
          mutant += "scenario.events=" + std::to_string(rng.Below(3)) + "\n" +
                    "scenario.event" + std::to_string(rng.Below(4)) + ".repeat=" +
                    std::to_string(rng.Next()) + "\n";
          break;
      }
      mutants.push_back(mutant);
    }
  }

  size_t applied = 0;
  size_t rejected = 0;
  for (const std::string& mutant : mutants) {
    ExperimentConfig config;
    WorkloadSpec workload;
    size_t pos = 0;
    while (pos < mutant.size()) {
      size_t nl = mutant.find('\n', pos);
      if (nl == std::string::npos) {
        nl = mutant.size();
      }
      const std::string line = mutant.substr(pos, nl - pos);
      pos = nl + 1;
      const size_t eq = line.find('=');
      if (eq == std::string::npos) {
        ++rejected;  // not an assignment at all
        continue;
      }
      std::string error;
      if (Apply(config, workload, line.substr(0, eq), line.substr(eq + 1), &error)) {
        ++applied;
      } else {
        ++rejected;
        EXPECT_FALSE(error.empty()) << line;
      }
      ASSERT_LE(config.scenario.events.size(), 4096u);
    }
    // What the lines left gets the CLIs' scenario check, which must not crash.
    std::string error;
    if (!ValidateScenario(config.scenario, &error)) {
      EXPECT_EQ(error.rfind("scenario", 0), 0u) << error;
    }
  }
  EXPECT_GT(applied, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace themis
