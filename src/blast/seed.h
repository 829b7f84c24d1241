// Seed generation: the query's neighborhood table.
//
// blastp: every overlapping 3-mer of the query contributes its
// *neighborhood* — all words whose BLOSUM62 score against the query word
// reaches threshold T — to a dense lookup table over the 24^3 word space.
// Scanning a subject sequence then probes the table once per position.
//
// blastn: exact 11-mers, 2-bit packed: the query's sorted distinct words,
// each with its position list. The 4^11 word space is too sparse for a
// dense table, so the kernel probes a merged open-addressing table over a
// whole sub-batch of queries instead (DnaBatchNeighborhood, engine.h),
// built from these lists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "blast/hsp.h"
#include "blast/scoring.h"

namespace pioblast::blast {

/// One query's offset-compacted neighborhood: one contiguous entry array
/// of query positions plus per-word bucket offsets. The kernel does not
/// probe it: PreparedBatch merges a sub-batch's tables into one
/// (BatchNeighborhood, DnaBatchNeighborhood; engine.h).
///
/// The kernel property tests compare it with the reference oracle's own
/// vector-of-vectors (blastp) / hash map (blastn) word index
/// (tests/support/), a separate construction. Bucket contents keep that
/// builder's order (query position ascending), which the kernel relies on
/// for a seed-for-seed identical search order.
class FlatNeighborhood {
 public:
  FlatNeighborhood(std::span<const std::uint8_t> query,
                   const ScoringMatrix& matrix, const SearchParams& params);

  bool is_dna() const { return is_dna_; }
  int word_size() const { return word_size_; }

  /// blastp: neighbors of the packed base-24 word `code` (may be empty).
  std::span<const std::uint32_t> neighbors(std::uint32_t code) const {
    const std::uint32_t b = offsets_[code];
    const std::uint32_t e = offsets_[code + 1];
    return {entries_.data() + b, static_cast<std::size_t>(e - b)};
  }

  // Introspection for the property tests and the merged batch tables.
  std::span<const std::uint32_t> offsets() const { return offsets_; }
  std::span<const std::uint32_t> entries() const { return entries_; }
  std::span<const std::uint64_t> keys() const { return keys_; }
  std::size_t total_entries() const { return entries_.size(); }

 private:
  void build_protein(std::span<const std::uint8_t> query,
                     const ScoringMatrix& matrix, int threshold);
  void build_dna(std::span<const std::uint8_t> query);

  bool is_dna_ = false;
  int word_size_ = 3;
  /// blastp: size 24^3 + 1; blastn: size keys_.size() + 1.
  std::vector<std::uint32_t> offsets_;
  /// Query positions, bucket-contiguous.
  std::vector<std::uint32_t> entries_;
  std::vector<std::uint64_t> keys_;     ///< blastn: sorted distinct words
};

}  // namespace pioblast::blast
