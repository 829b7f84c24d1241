#include "driver/search_stage.h"

#include <algorithm>
#include <utility>

#include "blast/engine.h"
#include "util/error.h"

namespace pioblast::driver {

SearchStage::SearchStage(const blast::QuerySet& queries, RunMetrics* metrics)
    : queries_(queries),
      metrics_(metrics),
      per_query_(static_cast<std::size_t>(queries.size())) {}

std::size_t SearchStage::add_fragment(seqdb::LoadedFragment frag) {
  fragments_.push_back(std::move(frag));
  return fragments_.size() - 1;
}

void SearchStage::search_slot(mpisim::Process& p, std::size_t slot) {
  PIOBLAST_CHECK(slot < fragments_.size());
  const seqdb::LoadedFragment& frag = fragments_[slot];
  p.compute(p.cost().fragment_setup_seconds());
  std::uint64_t cached = 0;
  // One batched call services every query (the kernel indexes the
  // fragment once, reads the query tables the QuerySet prepared once per
  // job, and splits the fragment across the host's cores inside the call,
  // so this rank neither yields nor reorders against other ranks). Virtual
  // time is still charged per query, in query order, from the per-query
  // counters, which do not depend on the host.
  auto results = blast::search_fragment_batch(queries_.contexts(), frag);
  for (std::uint32_t q = 0; q < queries_.size(); ++q) {
    auto& result = results[q];
    p.compute(p.cost().search_seconds(result.counters));
    for (blast::Hsp& hsp : result.hsps) {
      // Result caching (§3.2): remember the subject's location so its
      // sequence data never needs to be re-fetched later.
      CachedHit hit;
      hit.frag_slot = slot;
      hit.local_id = hsp.subject_global_id - frag.first_global_seq();
      hit.hsp = std::move(hsp);
      per_query_[q].push_back(std::move(hit));
      ++cached;
    }
  }
  if (metrics_) {
    metrics_->add(kMetricFragmentsSearched, 1);
    metrics_->add(kMetricHspsCached, cached);
  }
}

void SearchStage::sort_hits() {
  for (auto& hits : per_query_) {
    std::sort(hits.begin(), hits.end(),
              [](const CachedHit& a, const CachedHit& b) {
                return blast::Hsp::better(a.hsp, b.hsp);
              });
  }
}

}  // namespace pioblast::driver
