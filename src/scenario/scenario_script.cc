#include "src/scenario/scenario_script.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "src/sim/parse.h"

namespace themis {
namespace {

// Splits a line into whitespace-separated tokens, dropping `#` comments.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') {
      break;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    tokens.push_back(current);
  }
  return tokens;
}

// down=100us | down=uniform:50us:150us | down=exp:100us
bool ParseDownTime(const std::string& text, DownTimeSpec* out) {
  if (text.rfind("uniform:", 0) == 0) {
    const std::string rest = text.substr(8);
    const size_t colon = rest.find(':');
    out->dist = DownTimeSpec::Dist::kUniform;
    return colon != std::string::npos && ParseTime(rest.substr(0, colon), &out->a) &&
           ParseTime(rest.substr(colon + 1), &out->b);
  }
  if (text.rfind("exp:", 0) == 0) {
    out->dist = DownTimeSpec::Dist::kExponential;
    out->b = 0;
    return ParseTime(text.substr(4), &out->a);
  }
  out->dist = DownTimeSpec::Dist::kFixed;
  out->b = 0;
  return ParseTime(text, &out->a);
}

// The reason of the first failed check, or nullptr.
const char* FirstProblem(std::initializer_list<std::pair<bool, const char*>> checks) {
  for (const auto& [failed, reason] : checks) {
    if (failed) {
      return reason;
    }
  }
  return nullptr;
}

// The range checks ParseScenario and ValidateScenario share: the script's
// directives, then each event.
const char* HeaderProblem(const ScenarioScript& s) {
  return FirstProblem({
      {s.sample_period <= 0, "the sample period must be a positive time"},
      {!(s.restore_fraction > 0.0 && s.restore_fraction <= 1.0),
       "the restore fraction must be in (0, 1]"},
  });
}

// When the last occurrence of `e` clears at the latest: at + (repeat - 1) *
// period + the longest hold, exact in 128 bits for any field values. An
// exponential draw is -mean * ln(1 - u) with 1 - u >= 2^-53
// (Rng::NextDouble), so it never exceeds 37 means; bounding this sum bounds
// the mean.
__int128 LatestClear(const ScenarioEvent& e) {
  __int128 hold = e.duration;
  if (e.kind == FaultKind::kLinkFlap || e.kind == FaultKind::kSwitchReboot) {
    switch (e.down.dist) {
      case DownTimeSpec::Dist::kFixed:
        hold = e.down.a;
        break;
      case DownTimeSpec::Dist::kUniform:
        hold = std::max(e.down.a, e.down.b);
        break;
      case DownTimeSpec::Dist::kExponential:
        hold = static_cast<__int128>(e.down.a) * 37;
        break;
    }
  }
  return static_cast<__int128>(e.at) +
         (static_cast<__int128>(e.repeat) - 1) * e.period + hold;
}

// `earlier` occurrences of the events before `e` are already scheduled.
const char* EventProblem(const ScenarioEvent& e, int64_t earlier) {
  const bool gray = e.kind == FaultKind::kGrayFailure;
  const bool degrade = e.kind == FaultKind::kLinkDegrade;
  const double faulty = e.drop_prob + e.corrupt_prob;
  return FirstProblem({
      {e.target.empty(), "missing target"},
      {e.at < 0 || e.period < 0 || e.duration < 0 || e.down.a < 0 || e.down.b < 0,
       "times must not be negative"},
      {e.repeat < 1, "repeat must be a positive integer"},
      {e.repeat > kMaxScenarioOccurrences - earlier, "too many occurrences in the script"},
      {e.repeat > 1 && e.period <= 0, "repeat > 1 requires a period"},
      {LatestClear(e) > kMaxScenarioTime,
       "the last occurrence must clear within an hour of simulated time"},
      {e.down.dist == DownTimeSpec::Dist::kUniform && e.down.b < e.down.a,
       "uniform down-time needs low <= high"},
      {e.down.dist == DownTimeSpec::Dist::kExponential && e.down.a <= 0,
       "exponential down-time needs a positive mean"},
      {!(e.drop_prob >= 0.0 && e.drop_prob <= 1.0), "drop probability must be in [0, 1]"},
      {!(e.corrupt_prob >= 0.0 && e.corrupt_prob <= 1.0),
       "corrupt probability must be in [0, 1]"},
      {!(e.factor > 0.0 && e.factor <= 1.0), "factor must be in (0, 1]"},
      {(gray || degrade) && e.duration <= 0, "gray/degrade require a duration"},
      {gray && faulty <= 0.0, "gray requires a drop or corrupt probability > 0"},
      {gray && faulty > 1.0, "drop + corrupt must not exceed 1"},
      {degrade && e.factor >= 1.0, "degrade requires a factor below 1"},
  });
}

bool Fail(std::string* error, int line_no, const std::string& reason) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + reason;
  }
  return false;
}

}  // namespace

TimePs DownTimeSpec::Draw(Rng& rng) const {
  switch (dist) {
    case Dist::kFixed:
      return a;
    case Dist::kUniform:
      return b > a ? a + static_cast<TimePs>(rng.Below(static_cast<uint64_t>(b - a + 1)))
                   : a;
    case Dist::kExponential: {
      // Inverse-CDF; std::log keeps this off the pinned-golden path (see
      // tests/determinism_test.cc — the campaign golden uses fixed/uniform
      // down-times only, so libm variation cannot move the hash).
      const double u = rng.NextDouble();
      const double draw = -static_cast<double>(a) * std::log(1.0 - u);
      return static_cast<TimePs>(draw + 0.5);
    }
  }
  return a;
}

bool ParseScenario(const std::string& text, ScenarioScript* out, std::string* error) {
  *out = ScenarioScript{};
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  int64_t occurrences = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& head = tokens[0];

    // --- Directives -----------------------------------------------------
    if (head == "seed" || head == "sample-period" || head == "restore-fraction") {
      if (tokens.size() != 2) {
        return Fail(error, line_no, head + " takes one value");
      }
      const std::string& value = tokens[1];
      const bool ok = head == "seed"            ? ParseInt(value, &out->seed)
                      : head == "sample-period" ? ParseTime(value, &out->sample_period)
                                                : ParseDouble(value, &out->restore_fraction);
      if (!ok) {
        return Fail(error, line_no, "bad " + head + " value '" + value + "'");
      }
      if (const char* problem = HeaderProblem(*out)) {
        return Fail(error, line_no, problem);
      }
      continue;
    }

    // --- Events ---------------------------------------------------------
    ScenarioEvent event;
    if (head == "flap") {
      event.kind = FaultKind::kLinkFlap;
    } else if (head == "reboot") {
      event.kind = FaultKind::kSwitchReboot;
    } else if (head == "gray") {
      event.kind = FaultKind::kGrayFailure;
    } else if (head == "degrade") {
      event.kind = FaultKind::kLinkDegrade;
    } else {
      return Fail(error, line_no, "unknown directive '" + head + "'");
    }

    bool have_at = false;
    bool have_down = false;
    for (size_t i = 1; i < tokens.size(); ++i) {
      const std::string& token = tokens[i];
      const size_t eq = token.find('=');
      if (eq == std::string::npos) {
        return Fail(error, line_no, "expected key=value, got '" + token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      bool ok = true;
      if (key == "target") {
        event.target = value;
      } else if (key == "at") {
        ok = have_at = ParseTime(value, &event.at);
      } else if (key == "down") {
        ok = have_down = ParseDownTime(value, &event.down);
      } else if (key == "duration") {
        ok = ParseTime(value, &event.duration);
      } else if (key == "repeat") {
        ok = ParseInt(value, &event.repeat);
      } else if (key == "period") {
        ok = ParseTime(value, &event.period);
      } else if (key == "drop") {
        ok = ParseDouble(value, &event.drop_prob);
      } else if (key == "corrupt") {
        ok = ParseDouble(value, &event.corrupt_prob);
      } else if (key == "factor") {
        ok = ParseDouble(value, &event.factor);
      } else {
        return Fail(error, line_no, "unknown key '" + key + "'");
      }
      if (!ok) {
        return Fail(error, line_no, "bad " + key + " '" + value + "'");
      }
    }

    if (!have_at) {
      return Fail(error, line_no, "missing at=");
    }
    if (!have_down &&
        (event.kind == FaultKind::kLinkFlap || event.kind == FaultKind::kSwitchReboot)) {
      return Fail(error, line_no, "flap/reboot require down=");
    }
    if (const char* problem = EventProblem(event, occurrences)) {
      return Fail(error, line_no, problem);
    }
    occurrences += event.repeat;
    out->events.push_back(std::move(event));
  }
  return true;
}

bool ValidateScenario(const ScenarioScript& script, std::string* error) {
  const char* problem = HeaderProblem(script);
  std::string where = "scenario";
  int64_t occurrences = 0;
  for (size_t i = 0; problem == nullptr && i < script.events.size(); ++i) {
    problem = EventProblem(script.events[i], occurrences);
    occurrences += script.events[i].repeat;
    where = "scenario.event" + std::to_string(i);
  }
  if (problem != nullptr && error != nullptr) {
    *error = where + ": " + problem;
  }
  return problem == nullptr;
}

bool LoadScenarioFile(const std::string& path, ScenarioScript* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open scenario file '" + path + "'";
    }
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!ParseScenario(buffer.str(), out, error)) {
    if (error != nullptr) {
      *error = path + ": " + *error;
    }
    return false;
  }
  return true;
}

// Keep these in sync with examples/scenarios/*.scn — scenario_test asserts
// that parsing each example file yields the matching preset.
bool ScenarioPreset(const std::string& name, ScenarioScript* out) {
  if (name == "tor-uplink-flap") {
    const char* text =
        "seed 11\n"
        "sample-period 20us\n"
        "flap target=tor0:up0 at=400us down=150us repeat=2 period=700us\n";
    std::string error;
    const bool ok = ParseScenario(text, out, &error);
    (void)error;
    return ok;
  }
  if (name == "gray-spine") {
    const char* text =
        "seed 13\n"
        "sample-period 20us\n"
        "gray target=spine0:* at=300us duration=900us drop=2e-3 corrupt=2e-3\n";
    std::string error;
    const bool ok = ParseScenario(text, out, &error);
    (void)error;
    return ok;
  }
  return false;
}

std::vector<std::string> ScenarioPresetNames() {
  return {"tor-uplink-flap", "gray-spine"};
}

}  // namespace themis
