// Command-line plumbing shared by the example CLIs: `--flag=value` matching,
// strict integer flags, and `--set NAME=VALUE` plus its --help listing over the
// config field table (src/experiment_service/config_hash.h).

#ifndef THEMIS_EXAMPLES_CONFIG_FLAGS_H_
#define THEMIS_EXAMPLES_CONFIG_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/experiment_service/config_hash.h"
#include "src/sim/parse.h"

namespace themis::cli {

// The fabric workload_cli and trace_cli start from: Themis-D on a 4x4x4
// leaf-spine at 100G, small enough to read a trace of in a viewer.
inline ExperimentConfig SmallLeafSpine() {
  ExperimentConfig config;
  config.num_tors = 4;
  config.num_spines = 4;
  config.hosts_per_tor = 4;
  config.link_rate = Rate::Gbps(100);
  return config;
}

[[noreturn]] inline void Fail(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(1);
}

// True when `arg` is `flag=value`; stores the value.
inline bool FlagValue(const char* arg, const char* flag, std::string* value) {
  const size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0 || arg[len] != '=') {
    return false;
  }
  *value = arg + len + 1;
  return true;
}

template <typename Int>
Int IntFlag(const char* flag, const std::string& value) {
  Int out{};
  if (!ParseInt(value, &out)) {
    Fail(std::string(flag) + ": expected an integer, got '" + value + "'");
  }
  return out;
}

// Collects the NAME=VALUE of `--set NAME=VALUE` at argv[*i].
inline bool SetFlag(int argc, char** argv, int* i, std::vector<std::string>* sets) {
  if (std::strcmp(argv[*i], "--set") != 0) {
    return false;
  }
  sets->push_back(++*i < argc ? argv[*i] : "");
  return true;
}

// Applies the collected --set lines in order, after every other flag (so a
// --scenario never overwrites them): names under "workload." go to
// `workload` (null for a CLI without one), the rest to `config`. Then checks
// the config they leave (ValidateConfig, scenario included). Exits 1, naming
// the field, on the first rejection.
inline void ApplySets(const std::vector<std::string>& sets, ExperimentConfig& config,
                      WorkloadSpec* workload) {
  for (const std::string& assignment : sets) {
    const size_t eq = assignment.find('=');
    if (eq == std::string::npos) {
      Fail("--set expects NAME=VALUE, got '" + assignment + "'");
    }
    const std::string name = assignment.substr(0, eq);
    const std::string value = assignment.substr(eq + 1);
    std::string error;
    const bool ok = workload != nullptr && name.starts_with("workload.")
                        ? SetField(*workload, name, value, &error)
                        : SetField(config, name, value, &error);
    if (!ok) {
      Fail("--set " + error);
    }
  }
  std::string error;
  if (!ValidateConfig(config, &error)) {
    Fail("--set " + error);
  }
}

// Lists every field --set takes, with its value in `config` / `workload`. A
// blank event stands in for the event fields (as scenario.event0.*) while
// scenario.events keeps the CLI's count.
inline void PrintFields(ExperimentConfig config, const WorkloadSpec* workload) {
  std::printf(
      "\nConfig fields as NAME=DEFAULT, each settable with --set NAME=VALUE (applied in\n"
      "order, after the other flags). Values are spelled as in the canonical config\n"
      "text; a time also takes 100us/2ms/..., a rate 100G/25M/.... The\n"
      "scenario.event<i>.* fields exist once scenario.events > i.\n\n");
  const std::string events = std::to_string(config.scenario.events.size());
  if (config.scenario.events.empty()) {
    config.scenario.events.resize(1);
  }
  std::vector<ConfigField> fields = ConfigFields(config);
  if (workload != nullptr) {
    const std::vector<ConfigField> more = ConfigFields(*workload);
    fields.insert(fields.end(), more.begin(), more.end());
  }
  for (const ConfigField& f : fields) {
    const std::string& value = f.name == "scenario.events" ? events : f.value;
    std::printf("  %-38s %s [%s]\n", (f.name + "=" + value).c_str(), f.doc.c_str(),
                f.grammar.c_str());
  }
}

}  // namespace themis::cli

#endif  // THEMIS_EXAMPLES_CONFIG_FLAGS_H_
