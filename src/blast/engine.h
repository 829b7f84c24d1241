// The BLAST search engine: query context, prepared query batch, and
// fragment search.
//
// For each (query, database fragment) pair the engine runs the classic
// pipeline: word scan over every subject sequence probing the query word
// index; two-hit filtering on diagonals (blastp); ungapped X-drop
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
#include <string_view>
#include <vector>

#include "blast/extend.h"
#include "blast/hsp.h"
#include "blast/scoring.h"
#include "blast/seed.h"
#include "blast/stats.h"
#include "seqdb/formatdb.h"
#include "sim/cost_model.h"

namespace pioblast::blast {

/// Per-query precomputation shared across fragment searches: the word
/// index, the scoring matrix, and the query's length adjustment.
class QueryContext {
 public:
  QueryContext(std::uint32_t query_id, std::span<const std::uint8_t> residues,
               const SearchParams& params, const ScoringMatrix& matrix,
               const GlobalDbStats& db);

  std::uint32_t query_id() const { return query_id_; }
  std::span<const std::uint8_t> residues() const { return residues_; }
  const WordIndex& index() const { return index_; }
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
  WordIndex index_;
  FlatNeighborhood flat_;
  SelfScoreProfile self_;
  std::uint64_t adjust_ = 0;
  int cutoff_score_ = 0;
};

/// Which search-kernel implementation runs the fragment scan. Both produce
/// bit-identical HSP lists and counters; `kScalar` is the straightforward
/// reference implementation, `kFast` the batched/flat-table/SWAR rebuild
/// that the differential kernel tests check against it.
enum class KernelKind { kScalar, kFast };

/// Parses "scalar" / "fast" (aborts on anything else; used by CLI parsing).
KernelKind parse_kernel(std::string_view name);

/// Inverse of parse_kernel, for logs and test output.
const char* kernel_name(KernelKind kind);

/// Result of searching one query against one fragment.
struct FragmentSearchResult {
  std::vector<Hsp> hsps;          ///< sorted by Hsp::better, capped at hitlist_size
  sim::SearchCounters counters;   ///< feeds the virtual-time cost model
};

/// Searches `query` against every sequence of `fragment` (scalar kernel).
FragmentSearchResult search_fragment(const QueryContext& query,
                                     const seqdb::LoadedFragment& fragment);

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
/// sub-batch; the scalar path probes per (query, position). PreparedBatch
/// builds it and the fast kernel only reads it.
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

/// Searches every query of a batch against `fragment` with the chosen
/// kernel; results are index-aligned with `queries`. The fast kernel scans
/// and packs the fragment ONCE (FragmentIndex) — the per-fragment cost the
/// scalar kernel pays per query — and services the whole batch from the
/// precomputed word codes and the batch's prepared tables, split across
/// the host's cores (see kSplitGrainResidues). Output is bit-identical
/// across kernels, and concurrent calls are safe, on one batch too.
std::vector<FragmentSearchResult> search_fragment_batch(
    const PreparedBatch& queries, const seqdb::LoadedFragment& fragment,
    KernelKind kernel);

/// Builds the scoring matrix implied by `params`.
ScoringMatrix make_matrix(const SearchParams& params);

}  // namespace pioblast::blast
