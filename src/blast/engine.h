// The BLAST search engine: query context, prepared query batch, and
// fragment search.
//
// For each (query, database fragment) pair the engine runs the classic
// pipeline: word scan over every subject sequence probing the query's
// neighborhood table; two-hit filtering on diagonals (blastp); ungapped X-drop
// extension; gap-triggered gapped extension with traceback; containment
// culling; Karlin–Altschul E-value filtering against the *global* database
// statistics; and a final per-fragment hit-list cut (the "local cut" whose
// per-worker volume drives the paper's result-merging costs).
//
// The engine is purely deterministic: identical inputs produce identical
// HSP lists regardless of how the database was partitioned, which the
// integration tests assert.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "blast/extend.h"
#include "blast/hsp.h"
#include "blast/scoring.h"
#include "blast/seed.h"
#include "blast/stats.h"
#include "seqdb/formatdb.h"
#include "sim/cost_model.h"

namespace pioblast::blast {

/// Per-query precomputation shared across fragment searches: the
/// neighborhood table, the self-score profile, the scoring matrix, and the
/// query's length adjustment.
class QueryContext {
 public:
  QueryContext(std::uint32_t query_id, std::span<const std::uint8_t> residues,
               const SearchParams& params, const ScoringMatrix& matrix,
               const GlobalDbStats& db);

  std::uint32_t query_id() const { return query_id_; }
  std::span<const std::uint8_t> residues() const { return residues_; }
  const FlatNeighborhood& flat_index() const { return flat_; }
  const SelfScoreProfile& self_profile() const { return self_; }
  const ScoringMatrix& matrix() const { return matrix_; }
  const SearchParams& params() const { return params_; }
  const GlobalDbStats& db() const { return db_; }
  std::uint64_t length_adjust() const { return adjust_; }

  /// Minimum raw score that can reach the E-value cutoff (computed once;
  /// used to discard hopeless HSPs before E-value math).
  int cutoff_score() const { return cutoff_score_; }

 private:
  std::uint32_t query_id_;
  std::vector<std::uint8_t> residues_;
  SearchParams params_;
  const ScoringMatrix& matrix_;
  GlobalDbStats db_;
  FlatNeighborhood flat_;
  SelfScoreProfile self_;
  std::uint64_t adjust_ = 0;
  int cutoff_score_ = 0;
};

/// Result of searching one query against one fragment.
struct FragmentSearchResult {
  std::vector<Hsp> hsps;          ///< sorted by Hsp::better, capped at hitlist_size
  sim::SearchCounters counters;   ///< feeds the virtual-time cost model
};

/// Residue grain of the fast kernel's host-parallel split. A fragment of R
/// residues, R at least two grains, is searched as about R / grain chunks
/// of consecutive subjects on util::parallel_for; a smaller one in one
/// piece on the calling thread. The plan depends on the fragment alone,
/// never on the host's core count, so every host runs the same splits.
inline constexpr std::uint64_t kSplitGrainResidues = 2048;

/// Merged blastp neighborhood over a sub-batch of queries: per word, the
/// concatenation of every query's bucket in query-id-major order
/// (positions stay ascending within a query, exactly the per-query bucket
/// order). One probe of it per subject position services the whole
/// sub-batch, where a per-query scan would probe once per (query,
/// position). PreparedBatch builds it and the kernel only reads it.
struct BatchNeighborhood {
  static constexpr std::uint32_t kQposBits = 22;
  static constexpr std::uint32_t kQposMask = (1u << kQposBits) - 1;
  /// Query ids fit in the 32 - kQposBits bits above the position.
  static constexpr std::size_t kMaxQueries = std::size_t{1} << (32 - kQposBits);
  std::vector<std::uint32_t> offsets;  ///< 24^3 + 1 bucket bounds
  std::vector<std::uint32_t> entries;  ///< (query id << 22) | query position

  explicit BatchNeighborhood(std::span<const QueryContext> queries);
};

/// Query contexts prepared for search_fragment_batch, its only query
/// argument, and indexable like the vector of contexts it holds.
/// Preparation checks what a batched search needs (one sequence type and
/// word size; blastp query positions that fit BatchNeighborhood's tag) and
/// builds blastp's merged neighborhoods, one per sub-batch of
/// BatchNeighborhood::kMaxQueries queries. The drivers prepare once per
/// job (QuerySet::build), so a fragment search does only per-fragment
/// work; searches only read the batch, so any number may share it at once.
class PreparedBatch {
 public:
  PreparedBatch() = default;
  /// Throws util::ContractViolation if the contexts cannot share a batch.
  explicit PreparedBatch(std::vector<QueryContext> contexts);

  std::size_t size() const { return contexts_.size(); }
  bool empty() const { return contexts_.empty(); }
  const QueryContext& operator[](std::size_t i) const { return contexts_[i]; }
  auto begin() const { return contexts_.begin(); }
  auto end() const { return contexts_.end(); }

  /// blastp: table k serves queries k * kMaxQueries up to (k + 1) *
  /// kMaxQueries; blastn: none.
  const std::vector<BatchNeighborhood>& merged() const { return merged_; }

 private:
  std::vector<QueryContext> contexts_;
  std::vector<BatchNeighborhood> merged_;
};

/// The one value pbbench passes as search_fragment_batch's third argument.
/// Kept only so the benchmark's call compiles; a benchmark change drops it.
enum class KernelKind { kFast };

/// Searches every query of a batch against `fragment`; results are
/// index-aligned with `queries`. The kernel scans and packs the fragment
/// ONCE (FragmentIndex), not once per query, and services the whole batch
/// from the precomputed word codes and the batch's prepared tables, split
/// across the host's cores (see kSplitGrainResidues). Output is
/// bit-identical to the scalar reference oracle the kernel tests compare it
/// against (tests/support/), and concurrent calls are safe, on one batch
/// too.
std::vector<FragmentSearchResult> search_fragment_batch(
    const PreparedBatch& queries, const seqdb::LoadedFragment& fragment,
    KernelKind = KernelKind::kFast);

/// Builds the scoring matrix implied by `params`.
ScoringMatrix make_matrix(const SearchParams& params);

}  // namespace pioblast::blast
