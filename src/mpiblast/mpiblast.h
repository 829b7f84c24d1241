// The mpiBLAST baseline driver (modeled on mpiBLAST 1.2.1).
//
// Reproduces the data-handling structure the paper measures and improves:
//
//   * the database is statically pre-partitioned into physical fragments
//     by mpiformatdb (done before the run; see seqdb/partition.h);
//   * a master assigns un-searched fragments to workers (greedily on
//     request by default; see MpiBlastOptions::scheduler); workers *copy*
//     their fragments from shared storage to node-local disks (or, on
//     clusters without local disks, to shared job scratch) before
//     searching;
//   * fragment I/O during the search is charged inside the search phase
//     (NCBI BLAST inputs the database through memory-mapped files, so
//     mpiBLAST's search time "embeds a certain amount of I/O");
//   * result merging is serialized at the master: workers submit their
//     full local result alignments, the master sorts globally, then — for
//     every alignment selected for output — makes a synchronous
//     per-alignment fetch round trip to the owning worker for the sequence
//     data, formats the text itself, and writes the single output file
//     serially (paper Figure 2, right).
//
// Implemented on the shared driver framework (src/driver): the master's
// assignment loop is driver::serve_work over a pluggable driver::Scheduler,
// the per-query search loop is driver::SearchStage, and the fetch protocol
// runs over typed driver::Channels.
#pragma once

#include <string>
#include <vector>

#include "blast/driver.h"
#include "blast/job.h"
#include "driver/scheduler.h"
#include "mpisim/exec.h"
#include "mpisim/fault.h"
#include "mpisim/hooks.h"
#include "mpisim/trace.h"
#include "pario/env.h"
#include "seqdb/partition.h"
#include "sim/cluster.h"

namespace pioblast::mpiblast {

/// Inputs the baseline needs beyond the job itself: the physical fragments
/// produced by mpiformatdb and the global index (for database statistics).
struct MpiBlastOptions {
  blast::JobConfig job;
  /// Optional event tracer (not owned; must outlive the run).
  mpisim::Tracer* tracer = nullptr;
  /// Protocol verifier (mpisim/verifier.h): audits the run for deadlock,
  /// collective order, tag registry conformance, typed payloads, and
  /// message leaks. On by default; `--verify off` in the CLI disables it.
  bool verify = true;
  /// Protospec runtime conformance (protospec/conform.h): replay the run's
  /// trace against the declarative mpiblast protocol spec and throw
  /// mpisim::VerifyError on the first divergent event. Uses `tracer` when
  /// set, otherwise records an internal trace. The CLI's --conformance.
  bool conformance = false;
  std::vector<std::string> fragment_bases;  ///< mpiformatdb outputs, in order
  std::vector<seqdb::SeqRange> fragment_ranges;
  seqdb::DbIndex global_index;
  /// MPI-IO-style access hints (pario/env.h). The baseline's volume reads
  /// are whole-file and contiguous, so only the list-I/O path is
  /// exercised (merging is a no-op on single whole-file requests); the
  /// hints exist so the CLI's --pario-hints flag tunes both drivers.
  pario::Hints hints{};
  /// Fragment-assignment policy. The historical default is the greedy
  /// first-come-first-served master loop; static policies pre-plan the
  /// same request/reply protocol deterministically.
  driver::SchedulerKind scheduler = driver::SchedulerKind::kGreedyDynamic;
  /// Fault injections (crashes, stragglers, drops); inert by default. An
  /// active plan switches the run into its fault-tolerant paths: the
  /// master tracks worker liveness and reassigns a lost worker's
  /// fragments. See mpisim/fault.h and the CLI's --fault flag.
  mpisim::FaultPlan faults;
  /// mpicheck hooks (mpisim/hooks.h; either may be null, neither owned):
  /// a deterministic cooperative scheduler and a happens-before race
  /// detector. Set by the CLI's --check/--schedule modes and by tests.
  mpisim::ScheduleHook* schedule = nullptr;
  mpisim::RaceHook* race = nullptr;
  /// Rank execution backend (mpisim/exec.h): threads (default) or the
  /// single-threaded fiber event loop. The CLI's --exec-model flag.
  mpisim::ExecModel exec = mpisim::ExecModel::kThreads;
};

/// Runs mpiBLAST with `nprocs` simulated processes (1 master + workers).
/// The output file is written to job.output_path on storage.shared().
blast::DriverResult run_mpiblast(const sim::ClusterConfig& cluster, int nprocs,
                                 pario::ClusterStorage& storage,
                                 const MpiBlastOptions& opts);

}  // namespace pioblast::mpiblast
