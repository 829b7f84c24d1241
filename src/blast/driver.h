// Driver run results and phase summaries shared by both drivers.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "mpisim/runtime.h"

namespace pioblast::blast {

/// The paper's Table-1 style phase decomposition of one run.
struct PhaseBreakdown {
  double copy_input = 0;  ///< mpiBLAST fragment copy / pioBLAST parallel input
  double search = 0;      ///< BLAST kernel time (max over workers)
  double output = 0;      ///< result merging + formatting + file output
  double other = 0;       ///< init, query broadcast, residual waits
  double total = 0;       ///< job makespan

  double search_fraction() const { return total > 0 ? search / total : 0; }
  double nonsearch() const { return total - search; }
};

/// Derives the breakdown from per-rank phase buckets: data-staging and
/// search come from the slowest worker (they execute concurrently across
/// workers), output from the master's merge/output phase (it is the serial
/// section), and "other" absorbs the remainder of the makespan.
PhaseBreakdown summarize_run(const mpisim::RunReport& report);

/// What a driver hands back to benches and tests.
struct DriverResult {
  mpisim::RunReport report;
  PhaseBreakdown phases;
  std::uint64_t output_bytes = 0;
  std::uint64_t candidates_merged = 0;    ///< records screened by the master
  std::uint64_t alignments_reported = 0;  ///< alignments in the final output
  /// Protospec conformance summary ("CONFORM spec=... result=ok") when the
  /// run was monitored (--conformance); empty otherwise. A divergent run
  /// throws mpisim::VerifyError instead of returning.
  std::string conformance;
  /// Full structured-counter snapshot (driver::RunMetrics). Superset of the
  /// three legacy fields above, which are kept for existing callers.
  std::map<std::string, std::uint64_t> metrics;
  /// Fragment searches the job's search memo (driver::SearchMemo) did not
  /// answer, so a rank ran the kernel itself. Host-side only: it is not a
  /// metric, and virtual time does not depend on it.
  std::uint64_t memo_misses = 0;
};

}  // namespace pioblast::blast
