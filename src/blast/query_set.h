// Prepared query sets: parsed queries plus the prepared search batch.
//
// Building a QueryContext (word index + statistics) and the fast kernel's
// merged neighborhoods (PreparedBatch) is identical on every rank and for
// every fragment, so the drivers prepare one QuerySet per job and share it
// read-only across all simulated processes, and the fast kernel shares it
// across the pool threads searching one fragment's chunks. This is a
// host-side memory/CPU optimization only: the virtual-time cost of query
// preparation is charged by the drivers exactly as before, and search
// results are unaffected (the batch is immutable during the search, so any
// number of threads may read it at once).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "blast/engine.h"
#include "seqdb/fasta.h"

namespace pioblast::blast {

class QuerySet {
 public:
  /// Parses `fasta_text`, builds one context per query against the given
  /// global database statistics, and prepares them as one batch.
  static std::shared_ptr<const QuerySet> build(const std::string& fasta_text,
                                               const SearchParams& params,
                                               const GlobalDbStats& stats);

  const std::vector<seqdb::FastaRecord>& queries() const { return queries_; }
  /// The kernel's query argument; indexable by query ordinal.
  const PreparedBatch& contexts() const { return contexts_; }
  const ScoringMatrix& matrix() const { return *matrix_; }
  const GlobalDbStats& stats() const { return stats_; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(queries_.size()); }

 private:
  QuerySet() = default;

  std::vector<seqdb::FastaRecord> queries_;
  /// Heap-held so context references stay valid however QuerySet is moved.
  std::shared_ptr<const ScoringMatrix> matrix_;
  GlobalDbStats stats_;
  PreparedBatch contexts_;
};

}  // namespace pioblast::blast
