#include "blast/query_set.h"

#include <utility>

#include "seqdb/alphabet.h"

namespace pioblast::blast {

std::shared_ptr<const QuerySet> QuerySet::build(const std::string& fasta_text,
                                                const SearchParams& params,
                                                const GlobalDbStats& stats) {
  auto set = std::shared_ptr<QuerySet>(new QuerySet());
  set->queries_ = seqdb::parse_fasta(fasta_text);
  set->matrix_ = std::make_shared<const ScoringMatrix>(make_matrix(params));
  set->stats_ = stats;
  std::vector<QueryContext> contexts;
  contexts.reserve(set->queries_.size());
  for (std::uint32_t q = 0; q < set->queries_.size(); ++q) {
    contexts.emplace_back(
        q,
        seqdb::encode_sequence(params.type, set->queries_[q].sequence),
        params, *set->matrix_, stats);
  }
  set->contexts_ = PreparedBatch(std::move(contexts));
  return set;
}

}  // namespace pioblast::blast
