// Scheduling and race-detection hooks for the simulated runtime.
//
// The mpicheck subsystem (src/mpicheck) plugs into the runtime through two
// abstract interfaces so mpisim itself stays dependency-free:
//
//   * ScheduleHook — a deterministic decision chooser. When installed
//     (RunOptions::schedule), the job runs on the event loop (event_loop.h)
//     one rank at a time; every send, receive attempt, collective entry,
//     and injected-fault event is a yield point, and wherever two or more
//     ranks are runnable the hook picks the next one. This turns the job
//     into a deterministic function of the hook's choices, which is what
//     makes systematic schedule exploration and failing-schedule replay
//     possible.
//
//   * RaceHook — a happens-before observer. The runtime reports message
//     edges (send/recv carry a token through Message::hb) and instrumented
//     shared-state accesses; the hook maintains vector clocks and flags
//     conflicting accesses no edge orders (see mpicheck/race.h).
//
// Both hooks are borrowed pointers owned by the caller of mpisim::run and
// must outlive the job.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

namespace pioblast::mpisim {

/// One scheduling-relevant operation a rank is parked at. The event loop
/// hands these to the ScheduleHook at each decision point; the explorer's
/// DPOR-lite mode uses them to decide which interleavings are provably
/// equivalent.
struct YieldPoint {
  enum class Kind : std::uint8_t {
    kBegin = 0,   ///< rank function about to start
    kSend,        ///< about to inject a message (peer = destination rank)
    kRecv,        ///< about to attempt a receive (peer = source or kAnySource)
    kCollective,  ///< entering a collective (peer = root)
    kFault,       ///< about to die at an injected crash point
  };
  int rank = -1;
  Kind kind = Kind::kBegin;
  int peer = -1;
  int tag = 0;
};

const char* to_string(YieldPoint::Kind kind);

/// True when the two pending operations commute: executing them in either
/// order reaches the same state, so an explorer needs only one of the two
/// interleavings. Conservative: collectives, faults, and not-yet-started
/// ranks are dependent with everything; two point-to-point ops commute only
/// when they touch different mailboxes (a send touches its destination's
/// mailbox, a receive its own).
bool independent(const YieldPoint& a, const YieldPoint& b);

/// Deterministic decision chooser for a checked run. The event loop calls
/// choose() at every point where two or more ranks are runnable;
/// single-choice points are forced and never reported.
class ScheduleHook {
 public:
  virtual ~ScheduleHook() = default;

  /// Picks the next rank out of `enabled` (ascending, at least two
  /// entries; `ops` is parallel). Returning a non-member falls back to the
  /// lowest.
  virtual int choose(const std::vector<int>& enabled,
                     const std::vector<YieldPoint>& ops) = 0;
};

/// Happens-before observer interface (see mpicheck/race.h for the
/// implementation). on_send returns a token the runtime stores in
/// Message::hb; the receiving side hands it back through on_recv, which is
/// how message edges advance the receiver's vector clock.
class RaceHook {
 public:
  virtual ~RaceHook() = default;

  virtual void start(int nranks) = 0;
  virtual std::uint64_t on_send(int src) = 0;
  virtual void on_recv(int dst, std::uint64_t hb) = 0;
  /// An instrumented access to shared state. `obj` identifies the state,
  /// `what` labels the access site for reports, `locks` is the set of
  /// lock identities protecting the access (two unordered accesses that
  /// share a lock are exempt — the lockset half of the detector).
  virtual void on_access(int rank, const void* obj, std::string_view what,
                         bool write, std::span<const void* const> locks) = 0;
};

// ---- thread-local annotation context --------------------------------------
//
// Library code that has no Process& at hand (RunMetrics, Mailbox) reports
// accesses through a thread-local {RaceHook*, rank} context the runtime
// installs around each rank body. Outside a checked run every annotation
// is a no-op, so instrumentation costs one thread-local load.

/// Installs/clears the calling thread's race context (runtime only).
void set_thread_check_context(RaceHook* race, int rank);
void clear_thread_check_context();

/// Reports an access to `obj` on behalf of the calling rank thread.
/// `locks` names the locks that protect it (for code that annotates just
/// outside its critical section).
void annotate_access(const void* obj, std::string_view what, bool write,
                     std::initializer_list<const void*> locks = {});

}  // namespace pioblast::mpisim
