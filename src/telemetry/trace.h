// Binary event tracing.
//
// A TraceSink is a fixed-capacity ring of compact binary records: simulation
// time, category, event code, node/port identity, flow/QP id, and two 64-bit
// payload words. Components call the TraceRecord() helper at interesting
// points (port enqueue/drop/pause, RNIC send/NACK, Themis verdicts, DCQCN
// rate updates); the helper is
//
//   * a null-check when no sink is attached to the Simulator (the default);
//   * a category-mask test plus one 40-byte ring write when tracing is live.
//
// Tracing is pure observation: it never schedules events, touches the RNG,
// or mutates model state, so determinism hashes are identical with tracing
// on or off. Exporters (src/telemetry/export.h) turn the ring into Chrome
// trace_event JSON (chrome://tracing, Perfetto) or CSV.

#ifndef THEMIS_SRC_TELEMETRY_TRACE_H_
#define THEMIS_SRC_TELEMETRY_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace themis {

// Event categories, one runtime mask bit each. Each enum below is followed by
// its name array, indexed by code; the static_asserts keep the two the same
// length.
enum class TraceCategory : uint8_t {
  kPort = 0,    // egress-port queue activity, drops, ECN, PFC pause
  kRnic = 1,    // sender/receiver QP activity
  kThemis = 2,  // Themis-D flow table, ring queue, NACK verdicts
  kCc = 3,      // congestion-control rate updates
  kTraffic = 4,  // background-load engine epoch updates (hybrid fidelity)
  kScenario = 5,  // chaos-engine fault lifecycle (apply/clear/recover)
  kCount = 6,
};

inline constexpr const char* kTraceCategoryNames[] = {
    "port", "rnic", "themis", "cc", "traffic", "scenario",
};
static_assert(std::size(kTraceCategoryNames) == static_cast<size_t>(TraceCategory::kCount));

constexpr const char* TraceCategoryName(TraceCategory category) {
  const auto index = static_cast<size_t>(category);
  return index < std::size(kTraceCategoryNames) ? kTraceCategoryNames[index] : "?";
}

constexpr uint32_t TraceCategoryBit(TraceCategory category) {
  return 1u << static_cast<uint32_t>(category);
}

inline constexpr uint32_t kTraceAllCategories =
    (1u << static_cast<uint32_t>(TraceCategory::kCount)) - 1;

// --- Per-category event codes ------------------------------------------------

enum class PortTrace : uint8_t {
  kEnqueue = 0,   // data packet queued; a = queued bytes after, b = wire bytes
  kDequeue = 1,   // data packet to the wire; a = queued bytes after
  kDrop = 2,      // drop-tail or failed-link drop; a = wire bytes, b = queued
  kEcnMark = 3,   // CE mark applied; a = queued bytes at mark time
  kPauseOn = 4,   // PFC pause asserted; a = accumulated pause ps so far
  kPauseOff = 5,  // PFC pause released; a = accumulated pause ps so far
};

inline constexpr const char* kPortTraceNames[] = {
    "port.enqueue", "port.dequeue", "port.drop", "port.ecn_mark", "port.pause_on", "port.pause_off",
};
static_assert(std::size(kPortTraceNames) == static_cast<size_t>(PortTrace::kPauseOff) + 1);

enum class RnicTrace : uint8_t {
  kSend = 0,        // fresh data packet; a = psn, b = wire bytes
  kRetransmit = 1,  // retransmission; a = psn, b = wire bytes
  kAckRx = 2,       // ACK received; a = cumulative psn, b = aux (SACK) psn
  kNackRx = 3,      // NACK received; a = ePSN, b = aux (IRN tPSN)
  kCnpRx = 4,       // CNP received
  kTimeout = 5,     // RTO fired; a = snd_una
  kNackTx = 6,      // receiver emitted a NACK; a = ePSN, b = OOO-bitmap size
  kAckTx = 7,       // receiver emitted an ACK; a = ePSN, b = OOO-bitmap size
  kCorruptRx = 8,   // wire-corrupted arrival CRC-dropped; a = psn, b = bytes
};

inline constexpr const char* kRnicTraceNames[] = {
    "rnic.send", "rnic.retransmit", "rnic.ack_rx", "rnic.nack_rx", "rnic.cnp_rx", "rnic.timeout",
    "rnic.nack_tx", "rnic.ack_tx", "rnic.corrupt_rx",
};
static_assert(std::size(kRnicTraceNames) == static_cast<size_t>(RnicTrace::kCorruptRx) + 1);

enum class ThemisTrace : uint8_t {
  kFlowCreate = 0,     // flow-table miss on data -> entry provisioned
  kFlowHit = 1,        // flow-table hit on a NACK lookup
  kFlowMiss = 2,       // NACK for an untracked flow (fail open)
  kRingPush = 3,       // PSN pushed; a = psn, b = ring size after
  kRingPop = 4,        // tPSN scan; a = recovered tPSN (0 = drained), b = size
  kNackValid = 5,      // Eq. 3 held; a = tPSN, b = ePSN
  kNackBlocked = 6,    // Eq. 3 failed -> blocked; a = tPSN, b = ePSN
  kNackUnmatched = 7,  // no tPSN identified -> forwarded; a = ePSN
  kCompensate = 8,     // NACK generated on the RNIC's behalf; a = BePSN
  kCompCancelled = 9,  // BePSN packet arrived after all; a = BePSN
  kSpuriousValid = 10,  // valid-forwarded NACK proved spurious; a = ePSN
  kGraceDeferred = 11,  // valid NACK deferred by pause overlap; a = ePSN, b = overlap ps
  kGraceExpired = 12,   // grace window elapsed -> NACK released; a = ePSN, b = held ps
  kGraceCancelled = 13,  // ePSN arrived during grace -> NACK dropped; a = ePSN
};

inline constexpr const char* kThemisTraceNames[] = {
    "themis.flow_create", "themis.flow_hit", "themis.flow_miss", "themis.ring_push",
    "themis.ring_pop", "themis.nack_valid", "themis.nack_blocked", "themis.nack_unmatched",
    "themis.compensate", "themis.comp_cancelled", "themis.spurious_valid", "themis.grace_deferred",
    "themis.grace_expired", "themis.grace_cancelled",
};
static_assert(std::size(kThemisTraceNames) ==
              static_cast<size_t>(ThemisTrace::kGraceCancelled) + 1);

enum class CcTrace : uint8_t {
  kRateCut = 0,       // multiplicative decrease; a = old bps, b = new bps
  kRateIncrease = 1,  // increase event; a = new current bps, b = target bps
};

inline constexpr const char* kCcTraceNames[] = {"cc.rate_cut", "cc.rate_increase"};
static_assert(std::size(kCcTraceNames) == static_cast<size_t>(CcTrace::kRateIncrease) + 1);

enum class TrafficTrace : uint8_t {
  kEpochUpdate = 0,  // background epoch applied; a = total exo bytes, b = epoch
};

inline constexpr const char* kTrafficTraceNames[] = {"traffic.epoch_update"};
static_assert(std::size(kTrafficTraceNames) ==
              static_cast<size_t>(TrafficTrace::kEpochUpdate) + 1);

enum class ScenarioTrace : uint8_t {
  kFaultApplied = 0,  // fault occurrence began; a = event index, b = occurrence
  kFaultCleared = 1,  // fault occurrence ended; a = event index, b = occurrence
  kFirstDrop = 2,     // first drop attributed to an open fault; a = record id
  kRecovered = 3,     // goodput back above the restore fraction; a = record id,
                      // b = recovery time ps (first drop -> recovered)
};

inline constexpr const char* kScenarioTraceNames[] = {
    "scenario.fault_applied", "scenario.fault_cleared", "scenario.first_drop", "scenario.recovered",
};
static_assert(std::size(kScenarioTraceNames) ==
              static_cast<size_t>(ScenarioTrace::kRecovered) + 1);

// The name arrays above, indexed by TraceCategory.
inline constexpr std::span<const char* const> kTraceEventNames[] = {
    kPortTraceNames, kRnicTraceNames, kThemisTraceNames,
    kCcTraceNames, kTrafficTraceNames, kScenarioTraceNames,
};
static_assert(std::size(kTraceEventNames) == static_cast<size_t>(TraceCategory::kCount));

// Human-readable name for (category, code); "unknown" for a code no enum
// declares. Shared by the exporters.
constexpr const char* TraceEventName(TraceCategory category, uint8_t code) {
  const auto index = static_cast<size_t>(category);
  if (index >= std::size(kTraceEventNames) || code >= kTraceEventNames[index].size()) {
    return "unknown";
  }
  return kTraceEventNames[index][code];
}

// One ring record. 40 bytes; `a` and `b` carry per-code payload documented
// with each code above.
struct TraceEvent {
  TimePs time = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint32_t id = 0;    // flow / QP id (0 when not applicable)
  uint16_t node = 0;  // node id of the component recording the event
  uint8_t port = 0;   // port index within the node (0 when not applicable)
  uint8_t category = 0;
  uint8_t code = 0;
};

class TraceSink {
 public:
  explicit TraceSink(size_t capacity = kDefaultCapacity)
      : buffer_(capacity > 0 ? capacity : 1) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // Runtime category filter; defaults to everything.
  void set_category_mask(uint32_t mask) { mask_ = mask; }
  uint32_t category_mask() const { return mask_; }
  bool Accepts(TraceCategory category) const {
    return (mask_ & TraceCategoryBit(category)) != 0;
  }

  void Record(TimePs time, TraceCategory category, uint8_t code, uint16_t node,
              uint8_t port, uint32_t id, uint64_t a, uint64_t b) {
    TraceEvent& e = buffer_[tail_];
    e.time = time;
    e.a = a;
    e.b = b;
    e.id = id;
    e.node = node;
    e.port = port;
    e.category = static_cast<uint8_t>(category);
    e.code = code;
    tail_ = tail_ + 1 == buffer_.size() ? 0 : tail_ + 1;
    if (count_ == buffer_.size()) {
      head_ = head_ + 1 == buffer_.size() ? 0 : head_ + 1;  // oldest evicted
      ++overwritten_;
    } else {
      ++count_;
    }
    ++recorded_;
  }

  size_t capacity() const { return buffer_.size(); }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  // Total events accepted / evicted by ring wrap-around since Clear().
  uint64_t recorded() const { return recorded_; }
  uint64_t overwritten() const { return overwritten_; }

  // Chronological access, oldest first.
  const TraceEvent& at(size_t i) const {
    const size_t index = head_ + i;
    return buffer_[index >= buffer_.size() ? index - buffer_.size() : index];
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < count_; ++i) {
      fn(at(i));
    }
  }

  void Clear() {
    head_ = 0;
    tail_ = 0;
    count_ = 0;
    recorded_ = 0;
    overwritten_ = 0;
  }

 private:
  static constexpr size_t kDefaultCapacity = 1 << 18;  // 256K events, 10 MB

  std::vector<TraceEvent> buffer_;
  uint32_t mask_ = kTraceAllCategories;
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t count_ = 0;
  uint64_t recorded_ = 0;
  uint64_t overwritten_ = 0;
};

// The one record-site entry point: a null-check unless a sink is attached to
// the simulator and the category passes the runtime mask.
inline void TraceRecord(Simulator* sim, TraceCategory category, uint8_t code,
                        uint16_t node, uint8_t port, uint32_t id, uint64_t a = 0,
                        uint64_t b = 0) {
  TraceSink* sink = sim->trace_sink();
  if (sink != nullptr && sink->Accepts(category)) {
    sink->Record(sim->now(), category, code, node, port, id, a, b);
  }
}

// Typed wrappers so record sites name their event enum instead of raw codes.
inline void TracePort(Simulator* sim, PortTrace code, uint16_t node, uint8_t port,
                      uint32_t flow_id, uint64_t a = 0, uint64_t b = 0) {
  TraceRecord(sim, TraceCategory::kPort, static_cast<uint8_t>(code), node, port, flow_id, a,
              b);
}

inline void TraceRnic(Simulator* sim, RnicTrace code, uint16_t node, uint32_t flow_id,
                      uint64_t a = 0, uint64_t b = 0) {
  TraceRecord(sim, TraceCategory::kRnic, static_cast<uint8_t>(code), node, 0, flow_id, a, b);
}

inline void TraceThemis(Simulator* sim, ThemisTrace code, uint16_t node, uint32_t flow_id,
                        uint64_t a = 0, uint64_t b = 0) {
  TraceRecord(sim, TraceCategory::kThemis, static_cast<uint8_t>(code), node, 0, flow_id, a,
              b);
}

inline void TraceCc(Simulator* sim, CcTrace code, uint16_t node, uint32_t flow_id,
                    uint64_t a = 0, uint64_t b = 0) {
  TraceRecord(sim, TraceCategory::kCc, static_cast<uint8_t>(code), node, 0, flow_id, a, b);
}

inline void TraceTraffic(Simulator* sim, TrafficTrace code, uint64_t a = 0, uint64_t b = 0) {
  TraceRecord(sim, TraceCategory::kTraffic, static_cast<uint8_t>(code), 0, 0, 0, a, b);
}

inline void TraceScenario(Simulator* sim, ScenarioTrace code, uint64_t a = 0,
                          uint64_t b = 0) {
  TraceRecord(sim, TraceCategory::kScenario, static_cast<uint8_t>(code), 0, 0, 0, a, b);
}

}  // namespace themis

#endif  // THEMIS_SRC_TELEMETRY_TRACE_H_
