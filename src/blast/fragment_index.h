// Per-chunk database-fragment index for the fast kernel.
//
// The scalar engine re-derives the packed word at every subject position
// for every query (Q scans of the fragment per batch). The fast kernel
// inverts that: each chunk of subjects is scanned ONCE and the packed word
// codes are materialized per position, so servicing a whole query batch is
// Q probes of each precomputed code instead of Q re-packings — the Nguyen
// & Lavenier "index the database once, batch the queries" recipe adapted
// to our word-scan structure. The kernel indexes one chunk at a time and
// drops the index with the chunk, so no whole-fragment index is held.
//
// Protein codes are base-24 packed 3-mers (fit u32); nucleotide codes are
// 2-bit packed words up to 31-mers (u64), with a sentinel at positions
// whose window contains an ambiguous residue — exactly the positions the
// scalar probe() rejects.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "blast/hsp.h"
#include "seqdb/formatdb.h"

namespace pioblast::blast {

/// The one rolling 2-bit packer of blastn words, for subjects
/// (FragmentIndex) and queries (DnaBatchNeighborhood) alike: calls
/// emit(pos, word) for every window [pos, pos + w) of `s` free of
/// ambiguous residues (codes 4 and up), pos ascending, with the window's
/// residues packed first-residue-high into the low 2w bits.
template <class Emit>
inline void for_each_dna_word(std::span<const std::uint8_t> s, int w,
                              const Emit& emit) {
  const std::uint64_t mask = (1ULL << (2 * w)) - 1;
  std::uint64_t packed = 0;
  int valid = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::uint8_t code = s[i];
    if (code >= 4) {  // ambiguity: restart the window
      valid = 0;
      packed = 0;
      continue;
    }
    packed = ((packed << 2) | code) & mask;
    if (++valid >= w) emit(i + 1 - static_cast<std::size_t>(w), packed);
  }
}

class FragmentIndex {
 public:
  /// Word at this position straddles an ambiguous residue (blastn only).
  static constexpr std::uint64_t kInvalidWord = ~0ULL;

  /// Indexes subjects [lo, hi) of `fragment`.
  FragmentIndex(const seqdb::LoadedFragment& fragment,
                const SearchParams& params, std::uint64_t lo, std::uint64_t hi);

  bool is_dna() const { return is_dna_; }
  int word_size() const { return word_size_; }
  std::uint64_t num_seqs() const { return starts_.size() - 1; }

  /// Packed words of subject `local` (a fragment ordinal in [lo, hi)), one
  /// per word start position (size max(0, slen - word_size + 1)). Protein
  /// only.
  std::span<const std::uint32_t> codes32(std::uint64_t local) const {
    const std::uint64_t b = starts_[local - lo_];
    return {codes32_.data() + b,
            static_cast<std::size_t>(starts_[local - lo_ + 1] - b)};
  }

  /// Same for nucleotide fragments (kInvalidWord marks ambiguous windows).
  std::span<const std::uint64_t> codes64(std::uint64_t local) const {
    const std::uint64_t b = starts_[local - lo_];
    return {codes64_.data() + b,
            static_cast<std::size_t>(starts_[local - lo_ + 1] - b)};
  }

  /// Total positions indexed (diagnostics/tests).
  std::uint64_t positions() const {
    return is_dna_ ? codes64_.size() : codes32_.size();
  }

 private:
  bool is_dna_;
  int word_size_;
  std::uint64_t lo_;                   ///< first indexed subject
  std::vector<std::uint64_t> starts_;  ///< per-subject code offsets, size n+1
  std::vector<std::uint32_t> codes32_;
  std::vector<std::uint64_t> codes64_;
};

}  // namespace pioblast::blast
