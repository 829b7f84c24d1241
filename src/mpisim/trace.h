// Event tracing for simulated runs.
//
// When a Tracer is attached to a World, every rank records timestamped
// events (phase changes, sends, receives, collective entries, faults,
// custom marks). After the run the merged, time-ordered stream can be
// rendered as a text timeline — the tool of choice for understanding why a
// protocol serializes (e.g. watching the mpiBLAST master's per-alignment
// fetch round trips stack up).
//
// Message, collective and fault events are typed: consumers (the
// conformance monitor, tests, benches) read their fields. Only PHASE, MARK,
// VRFY and RECOV carry free text. trace_detail() formats either as text.
//
// Tracing is off unless a Tracer is attached; the hot path then costs one
// branch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "sim/time.h"

namespace pioblast::mpisim {

/// Kinds of recorded events.
enum class TraceKind : std::uint8_t {
  kPhase,       ///< rank entered a named phase (detail: the phase name)
  kSend,        ///< message injected (peer = dst, tag, bytes)
  kRecv,        ///< message consumed (peer = src, tag, bytes)
  kMark,        ///< driver-defined annotation (detail)
  kCollective,  ///< collective entry (op, peer = root, seq = ordinal)
  kVerify,      ///< protocol-verifier report (detail: full text)
  kFault,       ///< crash (of `rank`) or dropped send (drop, seq, peer...)
  kRecovery,    ///< recovery action (detail: requeue, degraded I/O)
};

const char* to_string(TraceKind kind);

struct TraceEvent {
  int rank = 0;
  sim::Time time = 0.0;
  TraceKind kind = TraceKind::kMark;
  /// FAULT: a dropped send (peer/tag/bytes/seq describe it); otherwise the
  /// FAULT is the crash of `rank`.
  bool drop = false;
  int peer = -1;  ///< SEND and dropped send: dst; RECV: src; COLL: root
  int tag = -1;   ///< SEND, RECV, dropped send
  std::uint64_t bytes = 0;
  std::uint64_t seq = 0;     ///< COLL: the rank's collective ordinal;
                             ///< dropped send: its 1-based send ordinal
  const char* op = nullptr;  ///< COLL: the operation's name (static)
  std::string detail{};      ///< PHASE, MARK, VRFY, RECOV: free text
};

/// The event's timeline text: its free text, or its typed fields as
///   SEND "dst=D tag=T bytes=B"   RECV "src=S tag=T bytes=B"
///   COLL "<op> root=R seq=N"     FAULT "drop send #N dst=D tag=T bytes=B"
///                                      or "rank R crashed"
std::string trace_detail(const TraceEvent& event);

/// Thread-safe event sink shared by all ranks of a run.
class Tracer {
 public:
  /// Appends one event (called by Process and World).
  void record(TraceEvent event);

  /// Appends one free-text event (PHASE, MARK, VRFY, RECOV).
  void record(int rank, sim::Time time, TraceKind kind, std::string detail);

  /// All events, globally ordered by (time, rank); call after the run.
  std::vector<TraceEvent> sorted() const;

  /// Number of recorded events.
  std::size_t size() const;

  /// Renders a per-rank text timeline of the first `max_events` events:
  ///   [   0.000123s] r2   SEND  dst=0 tag=7 bytes=48
  void render(std::ostream& os, std::size_t max_events = 200) const;

  /// Events of one rank, time-ordered (for assertions in tests).
  std::vector<TraceEvent> for_rank(int rank) const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

// Kept for pbbench until a benchmark change drops it: pbbench decodes SEND
// events through this call. Events are typed, so there is nothing left to
// decode.
using ParsedEvent = TraceEvent;
inline bool parse_trace_event(const TraceEvent& event, ParsedEvent& out) {
  out = event;
  return true;
}

}  // namespace pioblast::mpisim
