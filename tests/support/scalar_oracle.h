// The scalar reference oracle for the BLAST search kernel.
//
// This is the straightforward per-query search loop the production kernel
// (src/blast/kernel_fast.cpp) was rebuilt from: a word index per query
// (a vector of position lists per packed word for blastp, a hash map for
// blastn), one probe per (query, subject position), an epoch-stamped
// per-diagonal table, and plain scalar X-drop extensions. Production never
// runs it. It is the reference the kernel tests compare against: the
// differential suite (tests/test_kernel_diff.cpp) and micro_kernel's
// scalar column require bit-identical HSP lists and counters, and so
// identical virtual time.
//
// It shares with src/ exactly the rules both loops must apply the same way
// (blast/engine_detail.h): the explored-envelope skip, containment
// culling, HSP annotation, the gapped DP's sentinel and traceback
// encoding, and the step that joins the two directions of a gapped
// extension. Everything else is its own construction.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "blast/engine.h"
#include "blast/extend.h"
#include "blast/scoring.h"
#include "seqdb/formatdb.h"

namespace pioblast::blast::oracle {

/// Lookup result: query positions whose neighborhood contains a word.
using PositionList = std::vector<std::uint32_t>;

/// Word index over one query sequence.
class WordIndex {
 public:
  /// Builds the index; `query` holds residue codes.
  WordIndex(std::span<const std::uint8_t> query, const ScoringMatrix& matrix,
            const SearchParams& params);

  /// Probes with the word starting at `subject + pos`. Returns nullptr when
  /// the word has no query neighbors. For DNA, words containing N never
  /// match.
  const PositionList* probe(const std::uint8_t* word) const;

  /// Total (word, query position) entries.
  std::size_t total_entries() const { return total_entries_; }

 private:
  void build_protein(std::span<const std::uint8_t> query,
                     const ScoringMatrix& matrix, int threshold);
  void build_dna(std::span<const std::uint8_t> query);

  std::uint32_t pack_protein(const std::uint8_t* w) const {
    return (static_cast<std::uint32_t>(w[0]) * 24u +
            static_cast<std::uint32_t>(w[1])) *
               24u +
           static_cast<std::uint32_t>(w[2]);
  }

  bool is_dna_ = false;
  int word_size_ = 3;
  std::size_t total_entries_ = 0;
  /// blastp: dense table over 24^3 packed words.
  std::vector<PositionList> dense_;
  /// blastn: packed 2-bit word -> positions.
  std::unordered_map<std::uint64_t, PositionList> sparse_;
};

/// Extends the `word_size` seed at (qpos, spos) along its diagonal in both
/// directions, stopping when the running score drops `xdrop` below the best.
UngappedExtension extend_ungapped(std::span<const std::uint8_t> query,
                                  std::span<const std::uint8_t> subject,
                                  std::uint32_t qpos, std::uint64_t spos,
                                  int word_size, const ScoringMatrix& matrix,
                                  int xdrop);

/// Gapped X-drop extension anchored at the aligned pair (anchor_q,
/// anchor_s), which must lie inside a seeded match. Gap costs follow the
/// NCBI convention: a gap of length k costs open + k * extend.
GappedExtension extend_gapped(std::span<const std::uint8_t> query,
                              std::span<const std::uint8_t> subject,
                              std::uint32_t anchor_q, std::uint64_t anchor_s,
                              const ScoringMatrix& matrix, int gap_open,
                              int gap_extend, int xdrop);

/// Searches `query`, whose word index is `index`, against every sequence of
/// `fragment`.
FragmentSearchResult search_fragment(const QueryContext& query,
                                     const WordIndex& index,
                                     const seqdb::LoadedFragment& fragment);

/// The oracle over a prepared batch, shaped like search_fragment_batch.
/// Each query's WordIndex is built once, here, so a search (micro_kernel's
/// timed region) does only per-fragment work, as the production kernel
/// does. `queries` must outlive it.
class ScalarBatch {
 public:
  explicit ScalarBatch(const PreparedBatch& queries);

  /// Query `i` of the batch against `fragment`.
  FragmentSearchResult search(std::size_t i,
                              const seqdb::LoadedFragment& fragment) const;

  /// Every query against `fragment`, index-aligned with the batch.
  std::vector<FragmentSearchResult> search(
      const seqdb::LoadedFragment& fragment) const;

 private:
  const PreparedBatch& queries_;
  std::vector<WordIndex> indexes_;
};

}  // namespace pioblast::blast::oracle
