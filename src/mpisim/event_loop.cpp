#include "mpisim/event_loop.h"

#include <string>
#include <utility>

#include "mpisim/fiber.h"
#include "util/error.h"

namespace pioblast::mpisim {

EventLoop::EventLoop(int nranks, Options opts)
    : nranks_(nranks), opts_(std::move(opts)) {
  PIOBLAST_CHECK(nranks >= 1);
  states_.assign(static_cast<std::size_t>(nranks_), State::kRunnable);
  ops_.resize(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    ops_[static_cast<std::size_t>(r)] =
        YieldPoint{r, YieldPoint::Kind::kBegin, -1, 0};
    ready_.push_back(r);
  }
}

EventLoop::~EventLoop() = default;

void EventLoop::run(const std::function<void(int)>& body) {
  PIOBLAST_CHECK_MSG(Fiber::current() == nullptr,
                     "EventLoop::run from inside a fiber");
  fibers_.clear();
  fibers_.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    fibers_.push_back(std::make_unique<Fiber>([&body, r] { body(r); }));
  }
  const bool checked = opts_.schedule != nullptr;
  while (done_ < nranks_) {
    int next = -1;
    if (checked) {
      next = choose_checked();
    } else {
      while (!ready_.empty()) {
        const int r = ready_.front();
        ready_.pop_front();
        if (states_[static_cast<std::size_t>(r)] == State::kRunnable) {
          next = r;
          break;
        }
      }
    }
    if (next == -1) {
      handle_stuck();
      continue;
    }
    resume_rank(next);
  }
  fibers_.clear();
}

int EventLoop::choose_checked() {
  std::vector<int> enabled;
  for (int r = 0; r < nranks_; ++r)
    if (states_[static_cast<std::size_t>(r)] == State::kRunnable)
      enabled.push_back(r);
  if (enabled.empty()) return -1;
  int chosen = enabled[0];
  if (enabled.size() >= 2) {
    std::vector<YieldPoint> ops;
    ops.reserve(enabled.size());
    for (const int r : enabled) ops.push_back(ops_[static_cast<std::size_t>(r)]);
    const int want = opts_.schedule->choose(enabled, ops);
    for (const int r : enabled) {
      if (r == want) {
        chosen = want;
        break;
      }
    }
  }
  return chosen;
}

void EventLoop::resume_rank(int rank) {
  auto& fiber = fibers_[static_cast<std::size_t>(rank)];
  states_[static_cast<std::size_t>(rank)] = State::kRunning;
  fiber->resume();
  if (fiber->finished()) {
    states_[static_cast<std::size_t>(rank)] = State::kDone;
    ++done_;
  }
  // Otherwise yield()/block() already set kRunnable/kBlocked before
  // suspending.
}

void EventLoop::handle_stuck() {
  if (done_ == nranks_) return;
  PIOBLAST_CHECK_MSG(!stuck_fired_,
                     "mpisim: event loop still has blocked ranks after the "
                     "stuck handler poisoned every mailbox");
  stuck_fired_ = true;
  std::string report =
      "mpisim: scheduler stuck — no runnable rank; blocked:";
  for (int r = 0; r < nranks_; ++r) {
    if (states_[static_cast<std::size_t>(r)] != State::kBlocked) continue;
    const YieldPoint& op = ops_[static_cast<std::size_t>(r)];
    report += " rank " + std::to_string(r) + " at " + to_string(op.kind);
    if (op.kind == YieldPoint::Kind::kRecv) {
      report += "(src=" + std::to_string(op.peer) +
                ", tag=" + std::to_string(op.tag) + ")";
    }
    report += ";";
  }
  report += " (deadlock not claimed by the protocol verifier)";
  // The handler poisons mailboxes, which calls back into wake() and
  // refills the ready set; the run loop then resumes the poisoned ranks
  // so they unwind.
  PIOBLAST_CHECK_MSG(opts_.on_stuck != nullptr,
                     "mpisim: event loop stuck with no handler installed");
  opts_.on_stuck(report);
}

void EventLoop::yield(const YieldPoint& op) {
  const int rank = op.rank;
  ops_[static_cast<std::size_t>(rank)] = op;
  if (opts_.schedule == nullptr) return;  // run-to-block: no switch
  states_[static_cast<std::size_t>(rank)] = State::kRunnable;
  fibers_[static_cast<std::size_t>(rank)]->suspend();
}

void EventLoop::block(int rank) {
  // The rank stayed running from its failed match-check to here, so no
  // wake can have been missed: anything that could unblock it either
  // already sits in the mailbox (the caller's loop re-checks) or will be
  // pushed by a later-resumed rank, whose push calls wake().
  states_[static_cast<std::size_t>(rank)] = State::kBlocked;
  fibers_[static_cast<std::size_t>(rank)]->suspend();
}

void EventLoop::wake(int rank) {
  if (rank < 0 || rank >= nranks_) return;  // mailbox not bound to a rank
  if (states_[static_cast<std::size_t>(rank)] != State::kBlocked) return;
  states_[static_cast<std::size_t>(rank)] = State::kRunnable;
  if (opts_.schedule == nullptr) ready_.push_back(rank);
  // Never preempts: the waking rank (or the stuck handler) keeps running;
  // the loop picks the woken rank at a later decision point.
}

}  // namespace pioblast::mpisim
