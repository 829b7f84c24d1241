// Fiber switch and stack-list tests (ctest label: events).
//
// The switch saves and restores the callee-saved registers, MXCSR and the
// x87 control word, so floating-point control state belongs to a fiber;
// exceptions unwind inside a fiber's own frames; and a thread's stacks
// outlive its fibers, so its next world runs on the stacks of the last.
// Stack overflow must still die on the guard page, on a fresh stack and
// on a reused one.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cfenv>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mpisim/fiber.h"
#include "mpisim/runtime.h"

namespace pioblast {
namespace {

using mpisim::Fiber;

/// MXCSR without its sticky exception flags (bits 0-5), which any
/// inexact division sets.
std::uint32_t mxcsr() {
  std::uint32_t v = 0;
  asm volatile("stmxcsr %0" : "=m"(v));
  return v & ~0x3Fu;
}

std::uint16_t x87_control() {
  std::uint16_t v = 0;
  asm volatile("fnstcw %0" : "=m"(v));
  return v;
}

void set_x87_control(std::uint16_t v) { asm volatile("fldcw %0" : : "m"(v)); }

/// 1/3, rounded by the current SSE rounding mode.
double third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(Fiber, FloatingPointControlStaysWithItsFiber) {
  const std::uint32_t sched_mxcsr = mxcsr();
  const std::uint16_t sched_x87 = x87_control();
  const double nearest = third();
  std::uint32_t fiber_mxcsr = 0;
  std::uint16_t fiber_x87 = 0;
  double upward = 0;
  int resumed_checks = 0;
  Fiber changer([&] {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    // x87 precision control 53-bit (bits 8-9 = 10b).
    set_x87_control(
        static_cast<std::uint16_t>((x87_control() & ~0x0300) | 0x0200));
    fiber_mxcsr = mxcsr();
    fiber_x87 = x87_control();
    upward = third();
    for (int i = 0; i < 3; ++i) {
      Fiber::current()->suspend();
      EXPECT_EQ(mxcsr(), fiber_mxcsr);
      EXPECT_EQ(x87_control(), fiber_x87);
      EXPECT_EQ(third(), upward);
      ++resumed_checks;
    }
  });
  changer.resume();
  ASSERT_NE(fiber_mxcsr, sched_mxcsr);
  ASSERT_NE(fiber_x87, sched_x87);
  ASSERT_NE(upward, nearest);

  // Created and run after the changer set its modes: sees the
  // scheduler's.
  Fiber bystander([&] {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(mxcsr(), sched_mxcsr);
      EXPECT_EQ(x87_control(), sched_x87);
      EXPECT_EQ(third(), nearest);
      Fiber::current()->suspend();
    }
  });
  while (!changer.finished() || !bystander.finished()) {
    for (Fiber* f : {&bystander, &changer}) {
      if (f->finished()) continue;
      f->resume();
      EXPECT_EQ(mxcsr(), sched_mxcsr);
      EXPECT_EQ(x87_control(), sched_x87);
      EXPECT_EQ(third(), nearest);
    }
  }
  EXPECT_EQ(resumed_checks, 3);
}

[[gnu::noinline]] void throw_after_suspends(int suspends) {
  for (int i = 0; i < suspends; ++i) Fiber::current()->suspend();
  throw std::runtime_error("thrown after " + std::to_string(suspends) +
                           " suspends");
}

TEST(Fiber, ExceptionAfterSuspendsIsCaughtInside) {
  // Two fibers interleaved, each throwing from a frame below its entry
  // after suspending in it.
  std::string caught[2];
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < 2; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&caught, i] {
      try {
        throw_after_suspends(3 + i);
      } catch (const std::runtime_error& e) {
        caught[i] = e.what();
      }
    }));
  }
  int resumes = 0;
  while (!fibers[0]->finished() || !fibers[1]->finished()) {
    for (auto& f : fibers) {
      if (f->finished()) continue;
      f->resume();
      ++resumes;
    }
  }
  EXPECT_EQ(caught[0], "thrown after 3 suspends");
  EXPECT_EQ(caught[1], "thrown after 4 suspends");
  EXPECT_EQ(resumes, 4 + 5);
}

TEST(Fiber, CurrentNamesTheRunningFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen[2][2] = {};
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < 2; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&seen, i] {
      seen[i][0] = Fiber::current();
      Fiber::current()->suspend();
      seen[i][1] = Fiber::current();
    }));
  }
  for (int round = 0; round < 2; ++round) {
    for (auto& f : fibers) {
      f->resume();
      EXPECT_EQ(Fiber::current(), nullptr);
    }
  }
  for (int i = 0; i < 2; ++i) {
    const Fiber* fiber = fibers[static_cast<std::size_t>(i)].get();
    EXPECT_TRUE(fiber->finished());
    for (const Fiber* f : seen[i]) EXPECT_EQ(f, fiber);
  }
}

/// True when the page holding `addr` is mapped (mincore fails with ENOMEM
/// on an unmapped one).
bool mapped(std::uintptr_t addr) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  unsigned char resident = 0;
  return mincore(reinterpret_cast<void*>(addr & ~(page - 1)), page,
                 &resident) == 0;
}

/// The address of a local in each rank's body, in a world of `n` ranks.
std::vector<std::uintptr_t> rank_stack_marks(int n) {
  std::vector<std::uintptr_t> marks(static_cast<std::size_t>(n));
  mpisim::run(n, sim::ClusterConfig::ornl_altix(),
              [&marks](mpisim::Process& p) {
                volatile int local = p.rank();
                marks[static_cast<std::size_t>(p.rank())] =
                    reinterpret_cast<std::uintptr_t>(&local);
              });
  return marks;
}

TEST(Fiber, SecondWorldRunsOnTheFirstWorldsStacks) {
  const int nranks = 64;
  const auto first = rank_stack_marks(nranks);
  const std::set<std::uintptr_t> first_set(first.begin(), first.end());
  ASSERT_EQ(first_set.size(), static_cast<std::size_t>(nranks));
  // The world is gone but its stacks are not.
  for (const std::uintptr_t mark : first) EXPECT_TRUE(mapped(mark));
  const auto second = rank_stack_marks(nranks);
  EXPECT_EQ(std::set<std::uintptr_t>(second.begin(), second.end()),
            first_set);
}

/// Recurses in frames smaller than a page, so the stack's end is met at
/// its guard page and never skipped; `limit` is never reached.
[[gnu::noinline]] std::size_t dig(std::size_t depth, std::size_t limit) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  const std::size_t below = depth < limit ? dig(depth + 1, limit) : 0;
  return below + static_cast<unsigned char>(frame[0]);
}

/// On a new thread, whose stack list starts empty, runs a fiber that
/// recurses past its stack: on a fresh stack, or with `reused`, on the
/// stack a finished fiber returned — still mapped after that fiber is
/// gone (or exit 3) and the same address for the same local (or exit 4).
void overflow_fiber_stack(bool reused) {
  // A sanitizer's SIGSEGV handler would report and exit 1 instead.
  std::signal(SIGSEGV, SIG_DFL);
  std::thread([reused] {
    std::uintptr_t marks[2] = {};
    for (int i = reused ? 0 : 1; i < 2; ++i) {
      if (i == 1 && reused && !mapped(marks[0])) std::_Exit(3);
      Fiber fiber([&marks, reused, i] {
        volatile int local = i;
        marks[i] = reinterpret_cast<std::uintptr_t>(&local);
        if (i == 0) return;
        if (reused && marks[0] != marks[1]) std::_Exit(4);
        (void)dig(0, SIZE_MAX);
      });
      fiber.resume();
    }
  }).join();
  std::_Exit(0);
}

TEST(FiberDeathTest, OverflowDiesOnTheGuardPageOfAFreshStack) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(overflow_fiber_stack(false), ::testing::KilledBySignal(SIGSEGV),
              "");
}

TEST(FiberDeathTest, OverflowDiesOnTheGuardPageOfAReusedStack) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(overflow_fiber_stack(true), ::testing::KilledBySignal(SIGSEGV),
              "");
}

}  // namespace
}  // namespace pioblast
