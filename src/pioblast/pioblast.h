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
#include "driver/run_config.h"
#include "driver/scheduler.h"
#include "pario/collective.h"
#include "sim/cluster.h"

namespace pioblast::pio {

struct PioBlastOptions : driver::RunConfig {
  bool early_score_broadcast = false;  ///< §5 local-pruning extension
  bool collective_input = false;       ///< read input ranges collectively
  /// Range-assignment policy. Static policies (round-robin, the
  /// heterogeneity-aware speed-weighted apportionment) are planned and
  /// distributed up front — the only mode compatible with collective
  /// input, whose round structure must be known before the run. The
  /// greedy policy hands out file ranges at run time as workers finish —
  /// "the file ranges can be decided at run time and differentiated
  /// between different workers" (§5); use it with job.nfragments >
  /// nworkers for finer task granularity.
  driver::SchedulerKind scheduler = driver::SchedulerKind::kStaticRoundRobin;
  /// §5 memory adaptivity: merge and flush queries in batches of this size
  /// (one collective write per batch), bounding the cached-output memory.
  /// 0 = a single flush at the end (the default, maximum aggregation).
  std::uint32_t query_batch = 0;
};

/// Runs pioBLAST with `nprocs` simulated processes (1 master + workers)
/// against the formatted database job.db_base on storage.shared().
blast::DriverResult run_pioblast(const sim::ClusterConfig& cluster, int nprocs,
                                 pario::ClusterStorage& storage,
                                 const PioBlastOptions& opts);

}  // namespace pioblast::pio
