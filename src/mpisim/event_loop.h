// Event-driven rank execution backend.
//
// The EventLoop runs every rank of a job as a stackful fiber (fiber.h) on
// one scheduler thread. Its suspension points are Process::yield_point
// (yield) and the mailbox's blocking pop (block); a push, poison, seal or
// peer death wakes the mailbox's owner. A blocked rank costs one parked
// fiber (a few KB of touched stack) instead of a kernel thread, which is
// what lets one process host a 4096-rank world. The loop creates a
// world's fibers when run() starts and destroys them when it returns, so
// the thread's next world runs on the same stacks (fiber.h).
//
// Two modes:
//
//   * Fast (no schedule hook): yield() returns immediately — a rank runs
//     until it actually blocks or finishes (run-to-block) — and the ready
//     queue is a FIFO deque. One fiber switch per block instead of one per
//     operation. Everything is single-threaded, so there is no locking.
//
//   * Checked (schedule != nullptr): every yield point suspends, and at
//     each point where two or more ranks are runnable the loop asks the
//     ScheduleHook which one runs next. All ranks start runnable at
//     kBegin, wakes never preempt the running rank, and single-choice
//     points are forced and not reported, so a run is a deterministic
//     function of the hook's choices and a recorded schedule replays
//     byte-for-byte. Every checked run (RunOptions::schedule) runs here.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mpisim/hooks.h"

namespace pioblast::mpisim {

class Fiber;

class EventLoop {
 public:
  struct Options {
    /// Decision chooser of a checked run (borrowed; e.g. a CoopScheduler).
    /// Null selects the fast run-to-block mode.
    ScheduleHook* schedule = nullptr;
    /// Called when the loop finds no runnable rank while some are still
    /// blocked (a wedged job the protocol verifier did not claim first,
    /// e.g. with verification off). It must wake every blocked receive
    /// with the given report — the runtime wires it to poison all
    /// mailboxes.
    std::function<void(const std::string&)> on_stuck;
  };

  /// Every rank starts runnable at its kBegin point.
  EventLoop(int nranks, Options opts);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs `body(rank)` for every rank to completion on the calling
  /// thread. The body must not let exceptions escape (it runs on a fiber
  /// whose entry frame ends unwinding: an escaping exception terminates).
  void run(const std::function<void(int)>& body);

  // ---- called from inside rank fibers -------------------------------------
  //
  // Through World::loop() and the mailboxes' binding; wake also from the
  // stuck handler, on the scheduler thread.

  /// Yield point: records the pending op; in checked mode, suspends until
  /// the loop picks this rank again.
  void yield(const YieldPoint& op);
  /// The rank found no matching message: suspends until wake(rank) made
  /// it runnable and the loop resumed it. The caller re-checks its
  /// predicate and may block again.
  void block(int rank);
  /// Makes a blocked rank runnable (new message, poison, peer death).
  void wake(int rank);

 private:
  enum class State : std::uint8_t { kRunnable, kRunning, kBlocked, kDone };

  /// Picks the next rank in checked mode: lowest runnable, or the
  /// schedule hook's choose() pick at multi-choice points. -1 when no
  /// rank is runnable.
  int choose_checked();

  /// Resumes one rank's fiber and folds its exit state back in.
  void resume_rank(int rank);

  /// No runnable rank, some still blocked: reports the wedge and fires
  /// the stuck handler (which pokes mailboxes and calls back into wake).
  void handle_stuck();

  int nranks_;
  Options opts_;
  bool stuck_fired_ = false;
  int done_ = 0;
  std::vector<State> states_;
  std::vector<YieldPoint> ops_;  ///< pending op per rank (checked mode)
  std::deque<int> ready_;        ///< FIFO ready queue (fast mode)
  std::vector<std::unique_ptr<Fiber>> fibers_;
};

}  // namespace pioblast::mpisim
