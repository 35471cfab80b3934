#include "src/telemetry/export.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <string_view>

namespace themis {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

// Formats into a fixed buffer and hands the stream one large write() each
// time the buffer fills, instead of one small insert per token. The caller
// ends with Flush(); write errors land in the stream's state as usual.
class BufferedWriter {
 public:
  explicit BufferedWriter(std::ostream& out) : out_(out), buf_(new char[kSize]) {}

  void Put(char c) {
    Reserve(1);
    buf_[used_++] = c;
  }

  void Append(std::string_view s) {
    if (s.size() > kSize) {
      Flush();
      out_.write(s.data(), static_cast<std::streamsize>(s.size()));
      return;
    }
    Reserve(s.size());
    s.copy(buf_.get() + used_, s.size());
    used_ += s.size();
  }

  void Unsigned(uint64_t v) {
    Reserve(kMaxFormattedChars);
    Commit(std::to_chars(Cursor(), Cursor() + kMaxFormattedChars, v).ptr);
  }

  void CounterValue(double v) {
    Reserve(kMaxFormattedChars);
    Commit(FormatCounterValue(Cursor(), v));
  }

  void Micros(TimePs ps) {
    Reserve(kMaxFormattedChars);
    Commit(FormatMicros(Cursor(), static_cast<double>(ps) / 1e6));
  }

  void Flush() {
    out_.write(buf_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr size_t kSize = 1 << 16;

  void Reserve(size_t n) {
    if (kSize - used_ < n) {
      Flush();
    }
  }
  char* Cursor() { return buf_.get() + used_; }
  void Commit(char* end) { used_ = static_cast<size_t>(end - buf_.get()); }

  std::ostream& out_;
  std::unique_ptr<char[]> buf_;
  size_t used_ = 0;
};

// Closes the file so its final buffered flush happens here, where a failure
// is still observable, and reports whether every write succeeded.
bool CloseAndCheck(std::ofstream& out) {
  out.close();
  return !out.fail();
}

}  // namespace

char* FormatCounterValue(char* first, double value) {
  // Most cells of a sampled run are +0; -0 keeps its sign ("%.6g" -> "-0").
  if (value == 0.0 && !std::signbit(value)) {
    *first = '0';
    return first + 1;
  }
  return std::to_chars(first, first + kMaxFormattedChars, value, std::chars_format::general, 6)
      .ptr;
}

char* FormatMicros(char* first, double micros) {
  return std::to_chars(first, first + kMaxFormattedChars, micros, std::chars_format::fixed, 6)
      .ptr;
}

const char* TraceEventName(TraceCategory category, uint8_t code) {
  switch (category) {
    case TraceCategory::kPort:
      switch (static_cast<PortTrace>(code)) {
        case PortTrace::kEnqueue:
          return "port.enqueue";
        case PortTrace::kDequeue:
          return "port.dequeue";
        case PortTrace::kDrop:
          return "port.drop";
        case PortTrace::kEcnMark:
          return "port.ecn_mark";
        case PortTrace::kPauseOn:
          return "port.pause_on";
        case PortTrace::kPauseOff:
          return "port.pause_off";
      }
      break;
    case TraceCategory::kRnic:
      switch (static_cast<RnicTrace>(code)) {
        case RnicTrace::kSend:
          return "rnic.send";
        case RnicTrace::kRetransmit:
          return "rnic.retransmit";
        case RnicTrace::kAckRx:
          return "rnic.ack_rx";
        case RnicTrace::kNackRx:
          return "rnic.nack_rx";
        case RnicTrace::kCnpRx:
          return "rnic.cnp_rx";
        case RnicTrace::kTimeout:
          return "rnic.timeout";
        case RnicTrace::kNackTx:
          return "rnic.nack_tx";
        case RnicTrace::kAckTx:
          return "rnic.ack_tx";
        case RnicTrace::kCorruptRx:
          return "rnic.corrupt_rx";
      }
      break;
    case TraceCategory::kThemis:
      switch (static_cast<ThemisTrace>(code)) {
        case ThemisTrace::kFlowCreate:
          return "themis.flow_create";
        case ThemisTrace::kFlowHit:
          return "themis.flow_hit";
        case ThemisTrace::kFlowMiss:
          return "themis.flow_miss";
        case ThemisTrace::kRingPush:
          return "themis.ring_push";
        case ThemisTrace::kRingPop:
          return "themis.ring_pop";
        case ThemisTrace::kNackValid:
          return "themis.nack_valid";
        case ThemisTrace::kNackBlocked:
          return "themis.nack_blocked";
        case ThemisTrace::kNackUnmatched:
          return "themis.nack_unmatched";
        case ThemisTrace::kCompensate:
          return "themis.compensate";
        case ThemisTrace::kCompCancelled:
          return "themis.comp_cancelled";
        case ThemisTrace::kSpuriousValid:
          return "themis.spurious_valid";
        case ThemisTrace::kGraceDeferred:
          return "themis.grace_deferred";
        case ThemisTrace::kGraceExpired:
          return "themis.grace_expired";
        case ThemisTrace::kGraceCancelled:
          return "themis.grace_cancelled";
      }
      break;
    case TraceCategory::kCc:
      switch (static_cast<CcTrace>(code)) {
        case CcTrace::kRateCut:
          return "cc.rate_cut";
        case CcTrace::kRateIncrease:
          return "cc.rate_increase";
      }
      break;
    case TraceCategory::kTraffic:
      switch (static_cast<TrafficTrace>(code)) {
        case TrafficTrace::kEpochUpdate:
          return "traffic.epoch_update";
      }
      break;
    case TraceCategory::kScenario:
      switch (static_cast<ScenarioTrace>(code)) {
        case ScenarioTrace::kFaultApplied:
          return "scenario.fault_applied";
        case ScenarioTrace::kFaultCleared:
          return "scenario.fault_cleared";
        case ScenarioTrace::kFirstDrop:
          return "scenario.first_drop";
        case ScenarioTrace::kRecovered:
          return "scenario.recovered";
      }
      break;
    case TraceCategory::kCount:
      break;
  }
  return "unknown";
}

void WriteChromeTrace(const TraceSink& sink, std::ostream& out, const NodeNamer& namer) {
  BufferedWriter w(out);
  w.Append("{\"traceEvents\":[");
  bool first = true;

  // Metadata: one process_name record per node that appears in the ring, so
  // Perfetto's track list reads "tor0"/"host3" instead of bare pids.
  std::set<uint16_t> nodes;
  sink.ForEach([&nodes](const TraceEvent& e) { nodes.insert(e.node); });
  for (uint16_t node : nodes) {
    std::string name = namer ? namer(node) : "node" + std::to_string(node);
    if (name.empty()) {
      name = "node" + std::to_string(node);
    }
    if (!first) {
      w.Put(',');
    }
    first = false;
    w.Append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
    w.Unsigned(node);
    w.Append(",\"tid\":0,\"args\":{\"name\":\"");
    w.Append(JsonEscape(name));
    w.Append("\"}}");
  }

  sink.ForEach([&w, &first](const TraceEvent& e) {
    const auto category = static_cast<TraceCategory>(e.category);
    // Port events get the port index as tid (one Perfetto track per egress
    // port); everything else tracks by flow/QP id.
    const uint32_t tid = category == TraceCategory::kPort ? e.port : e.id;
    if (!first) {
      w.Put(',');
    }
    first = false;
    w.Append("{\"name\":\"");
    w.Append(TraceEventName(category, e.code));
    w.Append("\",\"cat\":\"");
    w.Append(TraceCategoryName(category));
    w.Append("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
    w.Micros(e.time);
    w.Append(",\"pid\":");
    w.Unsigned(e.node);
    w.Append(",\"tid\":");
    w.Unsigned(tid);
    w.Append(",\"args\":{\"id\":");
    w.Unsigned(e.id);
    w.Append(",\"a\":");
    w.Unsigned(e.a);
    w.Append(",\"b\":");
    w.Unsigned(e.b);
    w.Append("}}");
  });

  w.Append("],\"displayTimeUnit\":\"ns\"}\n");
  w.Flush();
}

bool WriteChromeTraceFile(const TraceSink& sink, const std::string& path,
                          const NodeNamer& namer) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteChromeTrace(sink, out, namer);
  return CloseAndCheck(out);
}

void WriteCountersCsv(const CounterSampler& sampler, std::ostream& out) {
  const CounterRegistry& registry = sampler.registry();
  const size_t columns = registry.size();
  BufferedWriter w(out);
  w.Append("time_us");
  for (size_t i = 0; i < columns; ++i) {
    w.Put(',');
    w.Append(registry.at(i).name);
  }
  w.Put('\n');

  const auto& times = sampler.sample_times();
  const auto& rows = sampler.rows();
  for (size_t k = 0; k < times.size(); ++k) {
    w.Micros(times[k]);
    for (const double value : rows[k]) {
      w.Put(',');
      w.CounterValue(value);
    }
    // Entries registered after this tick have no cell in it: zero-fill.
    for (size_t col = rows[k].size(); col < columns; ++col) {
      w.Append(",0");
    }
    w.Put('\n');
  }
  w.Flush();
}

bool WriteCountersCsvFile(const CounterSampler& sampler, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteCountersCsv(sampler, out);
  return CloseAndCheck(out);
}

}  // namespace themis
