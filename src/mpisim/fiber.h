// Stackful fibers for the event-driven rank backend (x86-64 SysV only).
//
// A Fiber is a coroutine with its own mmap'd stack: the scheduler thread
// resume()s it, and code running inside it suspend()s back to the
// scheduler at blocking points. Exactly one fiber runs at a time on the
// scheduler thread — there is no preemption and no parallelism, which is
// what makes the event backend deterministic.
//
// A switch is a call into a few lines of assembly (fiber.cpp) that saves
// what the SysV ABI has a callee preserve — rbx, rbp, r12-r15, MXCSR and
// the x87 control word — and swaps stacks; signal masks are not switched
// (no code in src/ sets one). So a fiber's floating-point control state
// stays with it across suspends. Stacks come from a per-thread free list:
// a destroyed fiber returns its mapping, guard page and committed pages
// included, to its thread's next fiber, so a thread holds at most as many
// stacks as it ever had fibers alive at once.
//
// Sanitizer support: stack switches confuse AddressSanitizer's fake-stack
// bookkeeping and ThreadSanitizer's shadow-stack tracking unless each
// switch is announced through their fiber APIs. fiber.cpp carries the
// __sanitizer_{start,finish}_switch_fiber and __tsan_*_fiber annotations
// behind feature guards, and unpoisons a stack before it is reused, so
// the event backend stays clean under the CI sanitizer matrix.
#pragma once

#include <cstddef>
#include <functional>

namespace pioblast::mpisim {

class Fiber {
 public:
  /// Runs `entry` on a stack of its own on first resume(). The fiber's
  /// entry frame ends unwinding and the entry is called from a noexcept
  /// frame, so an exception that escapes it terminates the program;
  /// callers catch what their entry throws.
  explicit Fiber(std::function<void()> entry);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches the calling (scheduler) thread into the fiber; returns when
  /// the fiber suspends or its entry returns. Must not be called on a
  /// finished fiber.
  void resume();

  /// Switches from inside the fiber back to its scheduler. Must be called
  /// from within this fiber's entry.
  void suspend();

  /// True once the entry function has returned.
  bool finished() const { return finished_; }

  /// The fiber currently running on this thread, or null when the caller
  /// is the scheduler itself. Lets library code assert it is (not) on a
  /// fiber stack.
  static Fiber* current();

 private:
  /// First frame on the fiber's stack: runs the entry, then switches out
  /// for good.
  [[noreturn]] static void start(Fiber* self) noexcept;

  std::function<void()> entry_;
  char* map_ = nullptr;        ///< stack mapping, guard page at its low end
  void* sp_ = nullptr;         ///< the fiber's stack pointer while suspended
  void* caller_sp_ = nullptr;  ///< the scheduler's while the fiber runs
  bool finished_ = false;
  // Sanitizer switch state, used only by ASan and TSan builds: the
  // scheduler stack's bounds and the fiber's fake stack (ASan), and both
  // sides' fiber handles (TSan).
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
  void* fake_stack_ = nullptr;
  void* tsan_fiber_ = nullptr;
  void* tsan_sched_ = nullptr;
};

}  // namespace pioblast::mpisim
