// RunConfig: the run settings both drivers share, declared once.
//
// mpiblast::MpiBlastOptions and pio::PioBlastOptions inherit it, and
// MasterWorkerApp turns it into the simulated job's mpisim::RunOptions.
// The scheduler stays in each driver's struct: its default differs.
#pragma once

#include "blast/job.h"
#include "mpisim/exec.h"
#include "mpisim/fault.h"
#include "mpisim/hooks.h"
#include "mpisim/trace.h"
#include "pario/env.h"

namespace pioblast::driver {

struct RunConfig {
  blast::JobConfig job;
  /// Optional event tracer (not owned; must outlive the run). A tracer
  /// records one run: give every run its own.
  mpisim::Tracer* tracer = nullptr;
  /// Protocol verifier (mpisim/verifier.h): deadlock, collective order,
  /// tag registry, typed payloads and message leaks. The CLI's --verify.
  bool verify = true;
  /// Protospec runtime conformance (protospec/conform.h): replays the
  /// run's trace against the driver's protocol spec and throws
  /// mpisim::VerifyError on the first divergent event. Records into
  /// `tracer` (which must then be empty) or an internal tracer. The CLI's
  /// --conformance.
  bool conformance = false;
  /// MPI-IO-style access hints (pario/env.h): they tune pioBLAST's
  /// two-phase collectives and fragment-range reads; mpiBLAST's whole-file
  /// volume reads see only the list-I/O path. The CLI's --pario-hints.
  pario::Hints hints{};
  /// Fault injections (mpisim/fault.h); inert by default. An active plan
  /// switches the run into its fault-tolerant paths: liveness tracking,
  /// reassignment of a lost worker's tasks, independent I/O for the
  /// survivors. The CLI's --fault.
  mpisim::FaultPlan faults;
  /// mpicheck hooks (mpisim/hooks.h; either may be null, neither owned):
  /// a deterministic cooperative scheduler and a happens-before race
  /// detector. Set by the CLI's --check/--schedule modes and by tests.
  mpisim::ScheduleHook* schedule = nullptr;
  mpisim::RaceHook* race = nullptr;
  /// Rank execution backend (mpisim/exec.h): fibers on one event loop
  /// (default) or, named only by the callers exec.h lists, one thread per
  /// rank. A run with `schedule` set runs on the event loop whatever this
  /// says.
  mpisim::ExecModel exec = mpisim::ExecModel::kEvents;
};

}  // namespace pioblast::driver
