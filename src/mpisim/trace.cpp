#include "mpisim/trace.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace pioblast::mpisim {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kPhase:
      return "PHASE";
    case TraceKind::kSend:
      return "SEND";
    case TraceKind::kRecv:
      return "RECV";
    case TraceKind::kMark:
      return "MARK";
    case TraceKind::kCollective:
      return "COLL";
    case TraceKind::kVerify:
      return "VRFY";
    case TraceKind::kFault:
      return "FAULT";
    case TraceKind::kRecovery:
      return "RECOV";
  }
  return "?";
}

std::string trace_detail(const TraceEvent& e) {
  const auto message = [&e](const char* peer_key) {
    return std::string(peer_key) + "=" + std::to_string(e.peer) +
           " tag=" + std::to_string(e.tag) +
           " bytes=" + std::to_string(e.bytes);
  };
  switch (e.kind) {
    case TraceKind::kSend:
      return message("dst");
    case TraceKind::kRecv:
      return message("src");
    case TraceKind::kCollective:
      return std::string(e.op) + " root=" + std::to_string(e.peer) +
             " seq=" + std::to_string(e.seq);
    case TraceKind::kFault:
      if (e.drop)
        return "drop send #" + std::to_string(e.seq) + " " + message("dst");
      return "rank " + std::to_string(e.rank) + " crashed";
    default:
      return e.detail;
  }
}

void Tracer::record(TraceEvent event) {
  std::lock_guard lock(mu_);
  events_.push_back(std::move(event));
}

void Tracer::record(int rank, sim::Time time, TraceKind kind,
                    std::string detail) {
  record({.rank = rank, .time = time, .kind = kind, .detail = std::move(detail)});
}

std::vector<TraceEvent> Tracer::sorted() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard lock(mu_);
    out = events_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.rank < b.rank;
                   });
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

void Tracer::render(std::ostream& os, std::size_t max_events) const {
  const auto events = sorted();
  char buf[64];
  std::size_t shown = 0;
  for (const TraceEvent& e : events) {
    if (shown++ >= max_events) {
      os << "... (" << events.size() - max_events << " more events)\n";
      break;
    }
    std::snprintf(buf, sizeof buf, "[%12.6fs] r%-3d %-5s ", e.time, e.rank,
                  to_string(e.kind));
    os << buf << trace_detail(e) << '\n';
  }
}

std::vector<TraceEvent> Tracer::for_rank(int rank) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : sorted())
    if (e.rank == rank) out.push_back(e);
  return out;
}

}  // namespace pioblast::mpisim
