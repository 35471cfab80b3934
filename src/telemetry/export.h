// Exporters: TraceSink -> Chrome trace_event JSON, CounterSampler -> CSV.
//
// The JSON output is the Trace Event Format's object form
// ({"traceEvents": [...]}) using instant events, so the file loads directly
// in chrome://tracing and ui.perfetto.dev. pid = node id (named via the
// process_name metadata records), tid = port index for port events and
// flow/QP id otherwise, ts = simulation time in microseconds.
//
// The CSV has one row per sample tick (`time_us` first column) and one
// column per registered counter/gauge; ticks from before a late-registered
// entry existed are zero-filled so every row has the full column set.
//
// Both exporters format into a local buffer with std::to_chars and hand the
// stream large write() calls. Numbers are written exactly as printf would
// in the C locale: times as "%.6f" microseconds, counter values as "%.6g",
// ids and payload words as plain decimal. The *File variants report
// failure when the file cannot be opened or a write (including the final
// flush) fails.

#ifndef THEMIS_SRC_TELEMETRY_EXPORT_H_
#define THEMIS_SRC_TELEMETRY_EXPORT_H_

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>

#include "src/telemetry/sampler.h"
#include "src/telemetry/trace.h"

namespace themis {

// Optional node-id -> display-name resolver for the Perfetto process list;
// nullptr falls back to "node<id>".
using NodeNamer = std::function<std::string(uint16_t)>;

void WriteChromeTrace(const TraceSink& sink, std::ostream& out,
                      const NodeNamer& namer = nullptr);
bool WriteChromeTraceFile(const TraceSink& sink, const std::string& path,
                          const NodeNamer& namer = nullptr);

void WriteCountersCsv(const CounterSampler& sampler, std::ostream& out);
bool WriteCountersCsvFile(const CounterSampler& sampler, const std::string& path);

// The exporters' two number formats. Each writes at `first`, which needs
// kMaxFormattedChars of room, and returns one past the last char written.
// FormatMicros takes |micros| < 1e18, which covers every TimePs.
inline constexpr size_t kMaxFormattedChars = 32;
char* FormatCounterValue(char* first, double value);  // printf("%.6g", value)
char* FormatMicros(char* first, double micros);       // printf("%.6f", micros)

}  // namespace themis

#endif  // THEMIS_SRC_TELEMETRY_EXPORT_H_
