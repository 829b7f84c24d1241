#include "mpisim/fiber.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <utility>

#include "util/error.h"

// Sanitizer fiber hooks. ASan tracks a fake stack per stack; TSan tracks a
// shadow stack per execution context. Both must be told about every stack
// switch, or they report false positives (ASan) or lose the happens-before
// graph (TSan).
#if defined(__SANITIZE_ADDRESS__)
#define PIOBLAST_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PIOBLAST_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define PIOBLAST_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PIOBLAST_TSAN_FIBERS 1
#endif
#endif

#if defined(PIOBLAST_ASAN_FIBERS) && __has_include(<sanitizer/common_interface_defs.h>)
#include <sanitizer/common_interface_defs.h>
#else
#undef PIOBLAST_ASAN_FIBERS
#endif
#if defined(PIOBLAST_TSAN_FIBERS) && __has_include(<sanitizer/tsan_interface.h>)
#include <sanitizer/tsan_interface.h>
#else
#undef PIOBLAST_TSAN_FIBERS
#endif

namespace pioblast::mpisim {

namespace {
thread_local Fiber* t_current_fiber = nullptr;
}  // namespace

struct Fiber::Impl {
  ucontext_t self{};  ///< the fiber's context while it is suspended
  ucontext_t link{};  ///< the scheduler's context while the fiber runs
  std::function<void()> entry;
  void* map_base = nullptr;  ///< mmap base (guard page + stack)
  std::size_t map_bytes = 0;
  void* stack_lo = nullptr;  ///< usable stack bottom (above the guard page)
  std::size_t stack_bytes = 0;
  bool started = false;
#ifdef PIOBLAST_ASAN_FIBERS
  /// The scheduler stack's bounds, learned from finish_switch_fiber when
  /// the fiber is entered; needed to announce the switch back.
  const void* sched_stack_bottom = nullptr;
  std::size_t sched_stack_size = 0;
  /// Fake-stack save slot for the fiber while it is suspended.
  void* fiber_fake_stack = nullptr;
#endif
#ifdef PIOBLAST_TSAN_FIBERS
  void* tsan_fiber = nullptr;
  void* tsan_sched = nullptr;
#endif
};

Fiber::Fiber(std::size_t stack_bytes, std::function<void()> entry)
    : impl_(new Impl) {
  PIOBLAST_CHECK(stack_bytes >= 16 * 1024);
  impl_->entry = std::move(entry);
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t usable = (stack_bytes + page - 1) / page * page;
  impl_->map_bytes = usable + page;  // one guard page below the stack
  // MAP_NORESERVE + lazy commit: a 4096-rank world reserves address space
  // only; the pages a rank actually touches are what it costs.
  void* base = mmap(nullptr, impl_->map_bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  PIOBLAST_CHECK_MSG(base != MAP_FAILED,
                     "fiber: mmap of " << impl_->map_bytes
                                       << "-byte stack failed");
  impl_->map_base = base;
  // Guard page: a rank that overruns its fiber stack faults loudly instead
  // of silently corrupting a neighbouring stack.
  (void)mprotect(base, page, PROT_NONE);
  impl_->stack_lo = static_cast<char*>(base) + page;
  impl_->stack_bytes = usable;
#ifdef PIOBLAST_TSAN_FIBERS
  impl_->tsan_fiber = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef PIOBLAST_TSAN_FIBERS
  if (impl_->tsan_fiber != nullptr) __tsan_destroy_fiber(impl_->tsan_fiber);
#endif
  if (impl_->map_base != nullptr) munmap(impl_->map_base, impl_->map_bytes);
}

Fiber* Fiber::current() { return t_current_fiber; }

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) |
      static_cast<std::uintptr_t>(lo));
#ifdef PIOBLAST_ASAN_FIBERS
  // Complete the inbound switch: no fake stack to restore (first entry),
  // and learn the scheduler stack's bounds for the switch back.
  __sanitizer_finish_switch_fiber(nullptr, &self->impl_->sched_stack_bottom,
                                  &self->impl_->sched_stack_size);
#endif
  self->run();
  self->finished_ = true;
  // Final switch out; the fiber never runs again. suspend() releases the
  // ASan fake stack (finished_ is set) and must not return.
  self->suspend();
  std::abort();  // unreachable: a finished fiber is never resumed
}

void Fiber::run() { impl_->entry(); }

void Fiber::resume() {
  PIOBLAST_CHECK_MSG(!finished_, "fiber: resume of a finished fiber");
  PIOBLAST_CHECK_MSG(t_current_fiber == nullptr,
                     "fiber: nested resume (fibers do not stack)");
  if (!impl_->started) {
    impl_->started = true;
    PIOBLAST_CHECK(getcontext(&impl_->self) == 0);
    impl_->self.uc_stack.ss_sp = impl_->stack_lo;
    impl_->self.uc_stack.ss_size = impl_->stack_bytes;
    // No uc_link: the trampoline suspends explicitly after the entry
    // returns, so the sanitizer annotations cover the final switch too.
    impl_->self.uc_link = nullptr;
    const auto ptr = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&impl_->self, reinterpret_cast<void (*)()>(&Fiber::trampoline),
                2, static_cast<unsigned>(ptr >> 32),
                static_cast<unsigned>(ptr & 0xffffffffu));
  }
  t_current_fiber = this;
#ifdef PIOBLAST_TSAN_FIBERS
  impl_->tsan_sched = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(impl_->tsan_fiber, 0);
#endif
#ifdef PIOBLAST_ASAN_FIBERS
  // `sched_fake` lives in this frame; swapcontext returns right here when
  // the fiber suspends, so the slot is still alive to restore from.
  void* sched_fake = nullptr;
  __sanitizer_start_switch_fiber(&sched_fake, impl_->stack_lo,
                                 impl_->stack_bytes);
#endif
  PIOBLAST_CHECK(swapcontext(&impl_->link, &impl_->self) == 0);
#ifdef PIOBLAST_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(sched_fake, nullptr, nullptr);
#endif
  t_current_fiber = nullptr;
}

void Fiber::suspend() {
  PIOBLAST_CHECK_MSG(t_current_fiber == this,
                     "fiber: suspend from outside the fiber");
#ifdef PIOBLAST_TSAN_FIBERS
  __tsan_switch_to_fiber(impl_->tsan_sched, 0);
#endif
#ifdef PIOBLAST_ASAN_FIBERS
  // A finished fiber passes null so ASan frees its fake stack.
  __sanitizer_start_switch_fiber(
      finished_ ? nullptr : &impl_->fiber_fake_stack,
      impl_->sched_stack_bottom, impl_->sched_stack_size);
#endif
  PIOBLAST_CHECK(swapcontext(&impl_->self, &impl_->link) == 0);
#ifdef PIOBLAST_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(impl_->fiber_fake_stack,
                                  &impl_->sched_stack_bottom,
                                  &impl_->sched_stack_size);
#endif
}

}  // namespace pioblast::mpisim
