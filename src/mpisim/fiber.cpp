#include "mpisim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <utility>

#include "util/error.h"

#if !defined(__x86_64__)
#error "mpisim fibers switch stacks in x86-64 SysV assembly only"
#endif

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

#if defined(PIOBLAST_ASAN_FIBERS) && __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#undef PIOBLAST_ASAN_FIBERS
#endif
#if defined(PIOBLAST_TSAN_FIBERS) && __has_include(<sanitizer/tsan_interface.h>)
#include <sanitizer/tsan_interface.h>
#else
#undef PIOBLAST_TSAN_FIBERS
#endif

// pioblast_fiber_switch(from, to) pushes the callee-saved registers and a
// slot holding MXCSR (low 4 bytes) and the x87 control word, stores the
// stack pointer to *from, loads `to`, and pops the same layout: it
// returns into whatever context last saved itself at `to`. To the
// compiler it is an ordinary call, so caller-saved state is already
// spilled. It keeps no CET shadow stack (see CMakeLists.txt).
//
// pioblast_fiber_start is where a new fiber's first switch returns (the
// frame Fiber::Fiber builds): it calls r12(rbx), i.e. Fiber::start(this),
// which never returns. Its CFI marks the return address undefined, so
// unwinding and backtraces end here.
extern "C" {
__attribute__((visibility("hidden"))) void pioblast_fiber_switch(void** from,
                                                                 void* to);
__attribute__((visibility("hidden"))) void pioblast_fiber_start();
}

asm(R"(
    .pushsection .text
    .globl pioblast_fiber_switch
    .hidden pioblast_fiber_switch
    .type pioblast_fiber_switch, @function
    .p2align 4
pioblast_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size pioblast_fiber_switch, .-pioblast_fiber_switch

    .globl pioblast_fiber_start
    .hidden pioblast_fiber_start
    .type pioblast_fiber_start, @function
    .p2align 4
pioblast_fiber_start:
    .cfi_startproc
    .cfi_undefined rip
    movq %rbx, %rdi
    callq *%r12
    ud2
    .cfi_endproc
    .size pioblast_fiber_start, .-pioblast_fiber_start
    .popsection
)");

namespace pioblast::mpisim {

namespace {

thread_local Fiber* t_current_fiber = nullptr;

/// Usable bytes of every fiber stack. Stacks are lazily committed
/// (MAP_NORESERVE), so a 4096-rank world reserves address space only; the
/// pages a rank touches are what it costs.
constexpr std::size_t kStackBytes = 256 * 1024;

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// One stack's mapping: a PROT_NONE guard page, then kStackBytes.
std::size_t map_bytes() { return page_bytes() + kStackBytes; }

/// Throws for a system call that failed with `err` (an errno value).
[[noreturn]] void fail(const std::string& what, int err) {
  throw util::RuntimeError("fiber: " + what + " failed: " +
                           std::generic_category().message(err));
}

/// The calling thread's stacks that no fiber holds, linked through their
/// top 8 bytes (a page every fiber has touched), so returning one never
/// allocates. The thread's exit unmaps them.
class StackList {
 public:
  StackList() = default;
  StackList(const StackList&) = delete;
  StackList& operator=(const StackList&) = delete;
  ~StackList() {
    while (head_ != nullptr) munmap(std::exchange(head_, next(head_)),
                                    map_bytes());
  }

  /// The most recently returned stack, or a fresh mapping.
  char* take() {
    if (head_ != nullptr) return std::exchange(head_, next(head_));
    void* base = mmap(nullptr, map_bytes(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
      const int err = errno;
      fail("mmap of a " + std::to_string(map_bytes()) + "-byte stack", err);
    }
    // Guard page: a rank that overruns its stack faults instead of
    // silently corrupting the mapping below.
    if (mprotect(base, page_bytes(), PROT_NONE) != 0) {
      const int err = errno;
      munmap(base, map_bytes());
      fail("mprotect of a stack's guard page", err);
    }
    return static_cast<char*>(base);
  }

  void give(char* map) {
#ifdef PIOBLAST_ASAN_FIBERS
    // The last fiber's frames that never returned (its final switch out,
    // or every frame of a fiber destroyed while suspended) are still
    // poisoned; the next fiber must start on a clean stack.
    __asan_unpoison_memory_region(map + page_bytes(), kStackBytes);
#endif
    std::memcpy(map + map_bytes() - sizeof head_, &head_, sizeof head_);
    head_ = map;
  }

 private:
  static char* next(char* map) {
    char* link = nullptr;
    std::memcpy(&link, map + map_bytes() - sizeof link, sizeof link);
    return link;
  }

  char* head_ = nullptr;
};

thread_local StackList t_stacks;

/// The calling thread's MXCSR and x87 control word, stored the way
/// pioblast_fiber_switch stores them.
std::uintptr_t fp_control() {
  std::uintptr_t slot = 0;
  asm volatile("stmxcsr (%0)\n\tfnstcw 4(%0)" : : "r"(&slot) : "memory");
  return slot;
}

}  // namespace

Fiber::Fiber(std::function<void()> entry)
    : entry_(std::move(entry)), map_(t_stacks.take()) {
  // The frame pioblast_fiber_switch pops on the first resume, lowest
  // address first: the FP control slot, r15, r14, r13, r12 = start,
  // rbx = this, rbp = 0 (ends frame-pointer walks), and the return address
  // pioblast_fiber_start. The stack top is 16-byte aligned, so start()
  // is entered as an ordinary call expects.
  auto* frame = reinterpret_cast<std::uintptr_t*>(map_ + map_bytes()) - 8;
  frame[0] = fp_control();
  frame[1] = frame[2] = frame[3] = 0;
  frame[4] = reinterpret_cast<std::uintptr_t>(&Fiber::start);
  frame[5] = reinterpret_cast<std::uintptr_t>(this);
  frame[6] = 0;
  frame[7] = reinterpret_cast<std::uintptr_t>(&pioblast_fiber_start);
  sp_ = frame;
#ifdef PIOBLAST_TSAN_FIBERS
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef PIOBLAST_TSAN_FIBERS
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  t_stacks.give(map_);
}

Fiber* Fiber::current() { return t_current_fiber; }

void Fiber::start(Fiber* self) noexcept {
#ifdef PIOBLAST_ASAN_FIBERS
  // Complete the inbound switch: no fake stack to restore (first entry),
  // and learn the scheduler stack's bounds for the switch back.
  __sanitizer_finish_switch_fiber(nullptr, &self->sched_stack_bottom_,
                                  &self->sched_stack_size_);
#endif
  self->entry_();
  self->finished_ = true;
  // Final switch out; the fiber never runs again. suspend() releases the
  // ASan fake stack (finished_ is set) and does not return.
  self->suspend();
  std::abort();  // unreachable: a finished fiber is never resumed
}

void Fiber::resume() {
  PIOBLAST_CHECK_MSG(!finished_, "fiber: resume of a finished fiber");
  PIOBLAST_CHECK_MSG(t_current_fiber == nullptr,
                     "fiber: nested resume (fibers do not stack)");
  t_current_fiber = this;
#ifdef PIOBLAST_TSAN_FIBERS
  tsan_sched_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef PIOBLAST_ASAN_FIBERS
  // `sched_fake` lives in this frame; the switch returns right here when
  // the fiber suspends, so the slot is still alive to restore from.
  void* sched_fake = nullptr;
  __sanitizer_start_switch_fiber(&sched_fake, map_ + page_bytes(),
                                 kStackBytes);
#endif
  pioblast_fiber_switch(&caller_sp_, sp_);
#ifdef PIOBLAST_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(sched_fake, nullptr, nullptr);
#endif
  t_current_fiber = nullptr;
}

void Fiber::suspend() {
  PIOBLAST_CHECK_MSG(t_current_fiber == this,
                     "fiber: suspend from outside the fiber");
#ifdef PIOBLAST_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_sched_, 0);
#endif
#ifdef PIOBLAST_ASAN_FIBERS
  // A finished fiber passes null so ASan frees its fake stack.
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &fake_stack_,
                                 sched_stack_bottom_, sched_stack_size_);
#endif
  pioblast_fiber_switch(&sp_, caller_sp_);
#ifdef PIOBLAST_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack_, &sched_stack_bottom_,
                                  &sched_stack_size_);
#endif
}

}  // namespace pioblast::mpisim
