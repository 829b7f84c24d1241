// The BLAST search engine: query context, prepared query batch, and
// fragment search.
//
// For each (query, database fragment) pair the engine runs the classic
// pipeline: word scan over every subject sequence, looking each word up in
// one word table built from a whole sub-batch of queries (blastp: every
// word within the neighborhood threshold of a query word; blastn: exact
// words), so one lookup serves them all; two-hit filtering on diagonals
// (blastp); ungapped X-drop extension; gap-triggered gapped extension with
// traceback; containment culling; Karlin–Altschul E-value filtering against
// the *global* database statistics; and a final per-fragment hit-list cut
// (the "local cut" whose per-worker volume drives the paper's
// result-merging costs).
//
// The engine is purely deterministic: identical inputs produce identical
// HSP lists regardless of how the database was partitioned, which the
// integration tests assert.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "blast/extend.h"
#include "blast/hsp.h"
#include "blast/scoring.h"
#include "blast/stats.h"
#include "seqdb/formatdb.h"
#include "sim/cost_model.h"

namespace pioblast::blast {

/// Per-query precomputation shared across fragment searches: the encoded
/// residues, the self-score profile, the scoring matrix, and the query's
/// length adjustment. It holds no word table: PreparedBatch indexes the
/// words of a whole sub-batch of queries at once.
class QueryContext {
 public:
  QueryContext(std::uint32_t query_id, std::span<const std::uint8_t> residues,
               const SearchParams& params, const ScoringMatrix& matrix,
               const GlobalDbStats& db);

  std::uint32_t query_id() const { return query_id_; }
  std::span<const std::uint8_t> residues() const { return residues_; }
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
/// of consecutive subjects; a smaller one is one chunk. A call's chunks,
/// over all its fragments, run on one util::parallel_for. The plan depends
/// on each fragment alone, never on the host's core count, so every host
/// runs the same splits.
inline constexpr std::uint64_t kSplitGrainResidues = 2048;

/// Entry bounds [first, last) of a subject word's bucket in a merged table.
using Bucket = std::pair<std::uint32_t, std::uint32_t>;

/// blastp word table over a sub-batch of queries: per word of the 24^3
/// space, every (query, position) whose 3-mer scores at least the
/// threshold against it, query-id-major with positions ascending within a
/// query (the order a per-query scan seeds in). One probe of it per
/// subject position services the whole sub-batch, where a per-query scan
/// would probe once per (query, position). PreparedBatch builds it from
/// the queries' residues and the kernel only reads it.
struct BatchNeighborhood {
  using Code = std::uint32_t;  ///< base-24 packed 3-mer
  static constexpr std::uint32_t kQposBits = 22;
  static constexpr std::uint32_t kQposMask = (1u << kQposBits) - 1;
  /// Query ids fit in the 32 - kQposBits bits above the position.
  static constexpr std::size_t kMaxQueries = std::size_t{1} << (32 - kQposBits);
  /// Longest blastp query: its length fits the position field.
  static constexpr std::size_t kMaxQueryResidues = kQposMask;
  std::vector<std::uint32_t> offsets;  ///< 24^3 + 1 bucket bounds
  std::vector<std::uint32_t> entries;  ///< (query id << 22) | query position

  explicit BatchNeighborhood(std::span<const QueryContext> queries);

  /// The scan's bucket lookup, one indexed load per word. It holds a raw
  /// pointer into the table, so the scan keeps it in a register.
  auto lookup() const {
    return [offs = offsets.data()](Code code) {
      return Bucket{offs[code], offs[code + 1]};
    };
  }
};

/// blastn word table over a sub-batch of at most
/// BatchNeighborhood::kMaxQueries queries: the union of the queries'
/// distinct words and, per word, every (query, position) where it occurs,
/// ordered as BatchNeighborhood's buckets. Entries keep a full
/// 32-bit query position, so no query is too long for it. A subject word
/// is looked up once for the whole sub-batch: a presence filter (NCBI
/// BLAST's presence vector) turns most absent words away from a bit array
/// small enough to stay cached, and an open-addressing table with the
/// bucket bounds in its slots finds the rest. PreparedBatch builds it and
/// the kernel only reads it.
struct DnaBatchNeighborhood {
  using Code = std::uint64_t;  ///< 2-bit packed word
  static constexpr std::uint32_t kQposBits = 32;
  static constexpr std::uint32_t kQposMask = ~std::uint32_t{0};
  /// Fibonacci hashing: the product's top bits pick the home slot.
  static constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;
  /// A word and its bucket; an empty slot holds the empty bucket {0, 0}.
  struct Slot {
    Code key = 0;
    Bucket bucket{0, 0};
  };
  std::vector<std::uint64_t> entries;  ///< (query id << 32) | query position
  /// Power-of-two capacity of at least 4x the words, linear probing.
  std::vector<Slot> slots;
  /// One bit per slot: set when some word's home slot is that slot, so a
  /// clear bit proves a word absent without reading the slots.
  std::vector<std::uint64_t> filter;
  int shift = 0;  ///< 64 - log2(capacity)

  explicit DnaBatchNeighborhood(std::span<const QueryContext> queries);

  /// The scan's bucket lookup; empty for a word no query holds, and for
  /// FragmentIndex::kInvalidWord, which no packed word equals. It holds raw
  /// pointers into the table, so the scan keeps them in registers.
  auto lookup() const {
    return [filter = filter.data(), slots = slots.data(), shift = shift,
            mask = slots.size() - 1](Code word) {
      std::size_t i = static_cast<std::size_t>(word * kHashMultiplier) >> shift;
      if ((filter[i / 64] >> (i % 64) & 1) == 0) return Bucket{0, 0};
      for (;; i = (i + 1) & mask) {
        const Slot& slot = slots[i];
        if (slot.bucket.second == 0 || slot.key == word) return slot.bucket;
      }
    };
  }
};

/// Query contexts prepared for search_fragments, its only query argument,
/// and indexable like the vector of contexts it holds. Preparation checks
/// what a batched search needs (one sequence type and word size, a word
/// size the type's packing holds; blastp query positions that fit
/// BatchNeighborhood's tag) and builds the word tables straight from the
/// queries' residues, one per sub-batch of BatchNeighborhood::kMaxQueries
/// queries.
/// The drivers prepare once per job (QuerySet::build), so a fragment
/// search does only per-fragment work; searches only read the batch, so
/// any number may share it at once.
class PreparedBatch {
 public:
  PreparedBatch() = default;
  /// Throws util::ContractViolation if the contexts cannot share a batch
  /// or their word size is not 3 (blastp) or in [4, 31] (blastn), and
  /// util::RuntimeError for a blastp query longer than
  /// BatchNeighborhood::kMaxQueryResidues.
  explicit PreparedBatch(std::vector<QueryContext> contexts);

  std::size_t size() const { return contexts_.size(); }
  bool empty() const { return contexts_.empty(); }
  const QueryContext& operator[](std::size_t i) const { return contexts_[i]; }
  auto begin() const { return contexts_.begin(); }
  auto end() const { return contexts_.end(); }

  /// Table k serves queries k * kMaxQueries up to (k + 1) * kMaxQueries:
  /// blastp's in merged(), blastn's in merged_dna(); the other is empty.
  const std::vector<BatchNeighborhood>& merged() const { return merged_; }
  const std::vector<DnaBatchNeighborhood>& merged_dna() const {
    return merged_dna_;
  }

 private:
  std::vector<QueryContext> contexts_;
  std::vector<BatchNeighborhood> merged_;
  std::vector<DnaBatchNeighborhood> merged_dna_;
};

/// The one value pbbench passes as search_fragment_batch's third argument.
/// Kept only so the benchmark's call compiles; a benchmark change drops it.
enum class KernelKind { kFast };

/// Searches every query of a batch against each of `fragments`: element f
/// holds fragments[f]'s results, index-aligned with `queries`. Every chunk
/// of every fragment (see kSplitGrainResidues) runs on one fork-join pass
/// over the host's cores, so many small fragments keep every core busy.
/// Each chunk scans and packs its subjects ONCE (FragmentIndex), not once
/// per query, and services the whole batch from the precomputed word codes
/// and the batch's prepared tables. Output is bit-identical to the scalar
/// reference oracle the kernel tests compare it against (tests/support/),
/// whatever the grouping of fragments into calls, and concurrent calls are
/// safe, on one batch too.
std::vector<std::vector<FragmentSearchResult>> search_fragments(
    const PreparedBatch& queries,
    std::span<const seqdb::LoadedFragment> fragments);

/// search_fragments on one fragment.
std::vector<FragmentSearchResult> search_fragment_batch(
    const PreparedBatch& queries, const seqdb::LoadedFragment& fragment,
    KernelKind = KernelKind::kFast);

/// Builds the scoring matrix implied by `params`.
ScoringMatrix make_matrix(const SearchParams& params);

}  // namespace pioblast::blast
