// pioBLAST: the paper's contribution.
//
// Same search kernel and identical output as the mpiBLAST baseline, with
// the three data-handling optimizations of Section 3:
//
//   1. Direct global database access + dynamic partitioning (§3.1): the
//      master derives per-worker (start, end) byte ranges of the shared
//      formatted volumes from the global index; workers read their ranges
//      in parallel with individual MPI-IO reads into memory buffers. No
//      physical fragments, no copy stage; the search kernel runs on the
//      in-memory buffers (no I/O embedded in the search phase).
//   2. Result caching + lean merging (§3.2): workers format and cache
//      their candidate alignment text locally and submit only fixed-size
//      metadata records (id, score, output size) for global screening.
//   3. Parallel output (§3.3): the master computes per-alignment offsets
//      in the single shared output file, distributes them, and every rank
//      writes its cached buffers through an MPI-IO file view with one
//      two-phase collective write (paper Figure 2, left).
//
// Optional extensions from Section 5 (off by default, measured by the
// ablation bench):
//   * early score broadcast — per query, workers agree on a global score
//     threshold (the max over workers of each worker's hitlist-th best
//     local score, a valid lower bound on the global cut) and prune
//     submissions below it, shrinking merge volume without changing output;
//   * collective input — read the database ranges with collective reads
//     instead of individual ones;
//   * fragment refinement — more virtual fragments than workers, assigned
//     by a pluggable static scheduler (finer granularity for load
//     balancing studies).
//
// Implemented on the shared driver framework (src/driver): range
// assignment goes through a pluggable driver::Scheduler (static policies
// pre-plan and pre-send; the greedy policy serves ranges at run time over
// driver::serve_work), the per-query search loop is driver::SearchStage,
// and structured messages run over typed driver::Channels.
#pragma once

#include "blast/driver.h"
#include "blast/job.h"
#include "driver/scheduler.h"
#include "mpisim/exec.h"
#include "mpisim/fault.h"
#include "mpisim/hooks.h"
#include "mpisim/trace.h"
#include "pario/collective.h"
#include "pario/env.h"
#include "sim/cluster.h"

namespace pioblast::pio {

struct PioBlastOptions {
  blast::JobConfig job;
  /// Optional event tracer (not owned; must outlive the run).
  mpisim::Tracer* tracer = nullptr;
  /// Protocol verifier (mpisim/verifier.h): audits the run for deadlock,
  /// collective order, tag registry conformance, typed payloads, and
  /// message leaks. On by default; `--verify off` in the CLI disables it.
  bool verify = true;
  /// Protospec runtime conformance (protospec/conform.h): replay the run's
  /// trace against the declarative pioblast protocol spec and throw
  /// mpisim::VerifyError on the first divergent event. Uses `tracer` when
  /// set, otherwise records an internal trace. The CLI's --conformance.
  bool conformance = false;
  bool early_score_broadcast = false;  ///< §5 local-pruning extension
  bool collective_input = false;       ///< read input ranges collectively
  /// Range-assignment policy. Static policies (round-robin, the
  /// heterogeneity-aware speed-weighted apportionment) are planned and
  /// distributed up front — the only mode compatible with collective
  /// input, whose round structure must be known before the run. The
  /// greedy policy hands out file ranges at run time as workers finish —
  /// "the file ranges can be decided at run time and differentiated
  /// between different workers" (§5).
  driver::SchedulerKind scheduler = driver::SchedulerKind::kStaticRoundRobin;
  /// Legacy alias for `scheduler = kGreedyDynamic` (§5 dynamic load
  /// balancing). Use with job.nfragments > nworkers for finer task
  /// granularity. Incompatible with collective_input (assignment order is
  /// data-dependent).
  bool dynamic_scheduling = false;
  /// §5 memory adaptivity: merge and flush queries in batches of this size
  /// (one collective write per batch), bounding the cached-output memory.
  /// 0 = a single flush at the end (the default, maximum aggregation).
  std::uint32_t query_batch = 0;
  /// MPI-IO-style access hints (pario/env.h): cb_nodes / cb_buffer_size
  /// tune the two-phase collectives (output, and input when
  /// collective_input is on); the ds_* / list knobs shape the independent
  /// fragment-range reads. The CLI's --pario-hints flag.
  pario::Hints hints{};
  /// Fault injections (crashes, stragglers, drops); inert by default. An
  /// active plan switches the run into its fault-tolerant paths: with the
  /// greedy scheduler a lost worker's ranges are reassigned; collective
  /// I/O falls back to independent transfers for the survivors. See
  /// mpisim/fault.h and the CLI's --fault flag.
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

/// Runs pioBLAST with `nprocs` simulated processes (1 master + workers)
/// against the formatted database job.db_base on storage.shared().
blast::DriverResult run_pioblast(const sim::ClusterConfig& cluster, int nprocs,
                                 pario::ClusterStorage& storage,
                                 const PioBlastOptions& opts);

}  // namespace pioblast::pio
