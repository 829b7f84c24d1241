// Rank execution models for the simulated runtime.
//
// The runtime can execute a job's ranks two ways:
//
//   * kEvents (the default) — one OS thread total. Every rank runs on a
//     stackful fiber (see fiber.h); a blocked rank parks on the event
//     loop's ready queue instead of holding a kernel thread, and the loop
//     resumes whichever rank became runnable in a fixed order. A job's
//     virtual time and output are therefore a function of its inputs
//     alone, and a 4096-rank world runs in one process.
//
//   * kThreads — one OS thread per rank. Blocked receives park the host
//     thread on a condition variable, and wildcard receives match in host
//     arrival order, so virtual time can differ from run to run. It is
//     reached only by naming it; see the callers listed at the enumerator.
//
// Process's yield points and the mailboxes' blocking pops are the complete
// set of suspension points, so the same code paths drive both backends.
// The switch travels through RunOptions::exec_model. It selects the
// backend of unchecked runs only: a checked run (RunOptions::schedule,
// mpicheck's --check and --schedule) always runs on kEvents, one fiber at
// a time.
#pragma once

#include <cstddef>

namespace pioblast::mpisim {

enum class ExecModel {
  /// One scheduler thread; ranks are stackful fibers (default).
  kEvents,
  /// One OS thread per rank. Its remaining callers name it: pbbench's
  /// pio-nr-4-threads workload and --determinism-audit, the
  /// cross-backend equivalence tests (test_events, test_verifier,
  /// test_protospec), test_mpisim_stress's cross-thread mailbox cases and
  /// micro_mpicheck's plain-threads baseline. It goes once pbbench moves
  /// off it (ROADMAP item 1).
  kThreads,
};

/// Stack size for rank fibers under the event backend. Stacks are lazily
/// committed (mmap), so a 4096-rank world reserves virtual address space
/// only; the touched pages are what it actually costs.
inline constexpr std::size_t kDefaultFiberStackBytes = 256 * 1024;

}  // namespace pioblast::mpisim
