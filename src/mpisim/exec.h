// Rank execution models for the simulated runtime.
//
// The runtime can execute a job's ranks two ways:
//
//   * kThreads — one OS thread per rank (the historical model). Blocked
//     receives park the host thread on a condition variable. Simple and
//     sanitizer-friendly, but a 4096-rank world needs 4096 kernel threads,
//     which hits OS thread limits and makes large-world simulation
//     impractical.
//
//   * kEvents — one OS thread total. Every rank runs on a stackful fiber
//     (see fiber.h); a blocked rank parks on the event loop's ready queue
//     instead of holding a kernel thread, and the loop resumes whichever
//     rank became runnable. Process's yield points and the mailboxes'
//     blocking pops are the complete set of suspension points, so the same
//     code paths drive both backends and they produce identical driver
//     output.
//
// The switch travels through RunOptions::exec_model; drivers and the CLI
// expose it as --exec-model. It selects the backend of unchecked runs
// only: a checked run (RunOptions::schedule, mpicheck's --check and
// --schedule) always runs on kEvents, one fiber at a time.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace pioblast::mpisim {

enum class ExecModel {
  kThreads,  ///< one OS thread per rank (default)
  kEvents,   ///< one scheduler thread; ranks are stackful fibers
};

/// "threads" | "events".
const char* to_string(ExecModel model);

/// Parses "threads" / "events" (case-sensitive). Throws util::RuntimeError
/// on anything else.
ExecModel parse_exec_model(std::string_view text);

/// True when this build can run the event backend (requires <ucontext.h>;
/// all POSIX targets we build on have it). parse_exec_model still accepts
/// "events" on unsupported builds; the runtime fails with a clear error,
/// as it does for every checked run there.
bool events_supported();

/// Default stack size for rank fibers under the event backend. Stacks are
/// lazily committed (mmap), so a 4096-rank world reserves virtual address
/// space only; the touched pages are what it actually costs.
inline constexpr std::size_t kDefaultFiberStackBytes = 256 * 1024;

}  // namespace pioblast::mpisim
