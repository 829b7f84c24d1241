// Crash points read off a probe run's trace, for tests that kill a worker
// at a chosen point of the driver protocol.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "driver/tags.h"
#include "mpisim/trace.h"

namespace pioblast::test_support {

/// The 1-based comm-event ordinal at which `rank` sends its `nth` work
/// request, read off a probe run's trace. Crashing at that ordinal kills
/// the worker inside the serve loop, after it has banked n-1 assignments.
/// The probe and the crash run must both use the event backend: on threads
/// the greedy master serves requests in host arrival order, so a worker's
/// request count, and with it the ordinal, differs from run to run.
inline std::uint64_t nth_work_request_event(const mpisim::Tracer& tracer,
                                            int rank, int nth) {
  std::uint64_t events = 0;
  int requests = 0;
  for (const mpisim::TraceEvent& e : tracer.for_rank(rank)) {
    if (e.kind != mpisim::TraceKind::kSend &&
        e.kind != mpisim::TraceKind::kRecv) {
      continue;
    }
    ++events;
    if (e.kind == mpisim::TraceKind::kSend && e.tag == driver::kTagWorkReq &&
        ++requests == nth) {
      return events;
    }
  }
  ADD_FAILURE() << "rank " << rank << " sent only " << requests
                << " work requests";
  return 0;
}

}  // namespace pioblast::test_support
