// The BLAST search engine: query context + fragment search.
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

/// Fast-kernel twin of search_fragment: same HSPs, same counters, computed
/// via the flat neighborhood table and SWAR/arena extension paths.
FragmentSearchResult search_fragment_fast(const QueryContext& query,
                                          const seqdb::LoadedFragment& fragment);

/// Residue grain of the fast kernel's host-parallel split. A fragment of R
/// residues, R at least two grains, is searched as about R / grain chunks
/// of consecutive subjects on util::parallel_for; a smaller one in one
/// piece on the calling thread. The plan depends on the fragment alone,
/// never on the host's core count, so every host runs the same splits.
inline constexpr std::uint64_t kSplitGrainResidues = 2048;

/// Searches every query of a batch against `fragment` with the chosen
/// kernel; results are index-aligned with `queries`. The fast kernel scans
/// and packs the fragment ONCE (FragmentIndex) and services the whole
/// batch from the precomputed word codes — the per-fragment cost the
/// scalar kernel pays per query — split across the host's cores (see
/// kSplitGrainResidues). Output is bit-identical across kernels, and
/// concurrent calls are safe.
std::vector<FragmentSearchResult> search_fragment_batch(
    std::span<const QueryContext> queries,
    const seqdb::LoadedFragment& fragment, KernelKind kernel);

/// Builds the scoring matrix implied by `params`.
ScoringMatrix make_matrix(const SearchParams& params);

}  // namespace pioblast::blast
