// Job launcher: runs a rank function on N simulated processes sharing one
// World.
//
// This is the simulated analogue of `mpirun -np N`: each rank executes the
// same function with its own Process context; the runtime collects final
// clocks and phase buckets into a RunReport. If any rank throws, the job is
// poisoned (all blocked receives unwind) and the first exception is
// rethrown to the caller.
//
// Ranks execute as stackful fibers multiplexed on the calling thread (see
// exec.h and event_loop.h), which makes a run deterministic and
// multi-thousand-rank worlds practical. RunOptions::exec_model can name
// the thread-per-rank backend instead; both produce identical driver
// output. A checked run (RunOptions::schedule set) always runs on the
// event backend.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "mpisim/exec.h"
#include "mpisim/fault.h"
#include "mpisim/process.h"
#include "mpisim/verify.h"
#include "sim/cluster.h"
#include "util/phase_timer.h"

namespace pioblast::mpisim {

/// Runtime configuration beyond the job function itself.
struct RunOptions {
  /// Optional event tracer (not owned; must outlive the run).
  Tracer* tracer = nullptr;
  /// Protocol-verifier configuration; enabled by default, so every run —
  /// and therefore every test — doubles as a protocol audit (deadlock,
  /// collective order, tag registry, typed payloads, message leaks).
  VerifyOptions verify{};
  /// Fault injections (crashes, stragglers, message drops); empty and
  /// inert by default. See fault.h.
  FaultPlan faults{};
  /// Decision chooser of a checked run (not owned; must outlive the run),
  /// e.g. mpicheck's CoopScheduler. When set, the job runs on the event
  /// loop whatever `exec_model` says: exactly one rank runs at a time,
  /// every send/recv/collective/fault is a yield point, and the hook picks
  /// the next rank wherever two or more are runnable — the foundation of
  /// mpicheck's schedule exploration.
  ScheduleHook* schedule = nullptr;
  /// Happens-before race detector (not owned; must outlive the run).
  RaceHook* race = nullptr;
  /// Rank execution backend of an unchecked run. kEvents multiplexes
  /// every rank as a stackful fiber on the calling thread; kThreads spawns
  /// one OS thread per rank and is reached only by naming it (exec.h).
  /// Ignored when `schedule` is set: checked runs use kEvents.
  ExecModel exec_model = ExecModel::kEvents;
};

/// Per-rank results collected after the rank function returns.
struct RankReport {
  int rank = 0;
  sim::Time final_clock = 0.0;
  util::PhaseTimer phases;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
  /// The rank was killed by an injected crash fault; its clock and phases
  /// reflect the moment of death.
  bool crashed = false;
};

/// Whole-job results.
struct RunReport {
  std::vector<RankReport> ranks;

  /// Job completion time: the latest rank clock (all drivers end with a
  /// barrier, so in practice every rank finishes at the makespan).
  sim::Time makespan() const;

  /// Sum of a phase bucket over all ranks.
  sim::Time phase_total(const std::string& phase) const;

  /// Phase bucket of one rank.
  sim::Time phase_of(int rank, const std::string& phase) const;
};

/// Runs `rank_fn` on `nranks` simulated processes over `cluster`.
/// Blocks until every rank finishes; rethrows the first rank exception.
/// When `opts.tracer` is non-null, every rank records phase/message
/// events into it (see trace.h). When `opts.verify.enabled` (the
/// default), a ProtocolVerifier watches the whole job and a VerifyError
/// is thrown on deadlock, misordered collectives, tag misuse, typed
/// payload confusion, or messages left undrained at job end.
RunReport run(int nranks, const sim::ClusterConfig& cluster,
              const std::function<void(Process&)>& rank_fn,
              const RunOptions& opts);

/// Convenience overload with default verification.
RunReport run(int nranks, const sim::ClusterConfig& cluster,
              const std::function<void(Process&)>& rank_fn,
              Tracer* tracer = nullptr);

}  // namespace pioblast::mpisim
