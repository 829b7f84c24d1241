// The shared fragment-search stage: load fragments, run every query over
// each one, cache the resulting hits with enough location info to find the
// subject's sequence data again later (paper §3.2 "result caching").
//
// This is the single per-query search loop in the codebase — both drivers
// feed fragments in (mpiBLAST whole physical volumes, pioBLAST virtual
// ranges) and read per-query hit lists out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "blast/hsp.h"
#include "blast/query_set.h"
#include "driver/metrics.h"
#include "mpisim/process.h"
#include "seqdb/formatdb.h"

namespace pioblast::driver {

/// One cached local result: the HSP, where its subject lives, and (for
/// drivers with buffered output) its formatted output buffer.
struct CachedHit {
  blast::Hsp hsp;
  std::size_t frag_slot = 0;   ///< index into the stage's loaded fragments
  std::uint64_t local_id = 0;  ///< sequence ordinal within that fragment
  std::string text;  ///< formatted alignment block (paper: "output buffers")
};

class SearchStage {
 public:
  /// `metrics` may be null; when set, fragments_searched / hsps_cached are
  /// counted as the search proceeds.
  SearchStage(const blast::QuerySet& queries, RunMetrics* metrics);

  /// Registers a loaded fragment; returns its slot.
  std::size_t add_fragment(seqdb::LoadedFragment frag);

  /// Runs every query against the fragment in `slot`, charging
  /// fragment-setup and per-query search time, and caches the hits.
  void search_slot(mpisim::Process& p, std::size_t slot);

  /// Convenience: search the most recently added fragment.
  void search_latest(mpisim::Process& p) { search_slot(p, fragments_.size() - 1); }

  /// Sorts each query's hits by blast::Hsp::better so local indices are
  /// deterministic regardless of fragment arrival order.
  void sort_hits();

  std::size_t fragment_count() const { return fragments_.size(); }
  const seqdb::LoadedFragment& fragment(std::size_t slot) const {
    return fragments_[slot];
  }

  std::vector<CachedHit>& hits(std::uint32_t q) {
    return per_query_[static_cast<std::size_t>(q)];
  }
  const std::vector<CachedHit>& hits(std::uint32_t q) const {
    return per_query_[static_cast<std::size_t>(q)];
  }

 private:
  const blast::QuerySet& queries_;
  RunMetrics* metrics_;
  std::vector<seqdb::LoadedFragment> fragments_;
  std::vector<std::vector<CachedHit>> per_query_;
};

}  // namespace pioblast::driver
