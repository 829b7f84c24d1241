// Seed generation: the query's neighborhood table.
//
// blastp: every overlapping 3-mer of the query contributes its
// *neighborhood* — all words whose BLOSUM62 score against the query word
// reaches threshold T — to a dense lookup table over the 24^3 word space.
// Scanning a subject sequence then probes the table once per position.
//
// blastn: exact 11-mers, 2-bit packed, in an open-addressing table (the
// 4^11 word space is too sparse for a dense table at our database sizes).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "blast/hsp.h"
#include "blast/scoring.h"

namespace pioblast::blast {

/// Offset-compacted neighborhood lookup: one contiguous entry array of
/// query positions plus per-word bucket offsets, two flat arrays the scan
/// loop can probe with a single indexed load.
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

  /// blastn: neighbors of the 2-bit packed word (open-addressing probe —
  /// usually one cache line; empty span when the word is absent).
  std::span<const std::uint32_t> neighbors_packed(std::uint64_t packed) const {
    if (slots_.empty()) return {};
    std::size_t i =
        static_cast<std::size_t>(packed * 0x9E3779B97F4A7C15ull) >> slot_shift_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.bucket1 == 0) return {};
      if (s.key == packed) {
        const std::uint32_t b = offsets_[s.bucket1 - 1];
        const std::uint32_t e = offsets_[s.bucket1];
        return {entries_.data() + b, static_cast<std::size_t>(e - b)};
      }
      i = (i + 1) & slot_mask_;
    }
  }

  // Introspection for the property tests. `entries()` excludes the two
  // zero pads the constructor appends for the kernel's unconditional
  // two-entry bucket expansion.
  std::span<const std::uint32_t> offsets() const { return offsets_; }
  std::span<const std::uint32_t> entries() const {
    return {entries_.data(), entries_.size() - 2};
  }
  std::span<const std::uint64_t> keys() const { return keys_; }
  std::size_t total_entries() const { return entries_.size() - 2; }

  /// Raw entry storage including the two zero pads past the last bucket:
  /// the scan loop may read (but never use) up to two entries beyond a
  /// bucket's end before consulting its size.
  const std::uint32_t* entries_padded() const { return entries_.data(); }

  /// Largest bucket size (bounds the scan loop's expansion slack).
  std::size_t max_bucket() const { return max_bucket_; }

 private:
  void build_protein(std::span<const std::uint8_t> query,
                     const ScoringMatrix& matrix, int threshold);
  void build_dna(std::span<const std::uint8_t> query);

  bool is_dna_ = false;
  int word_size_ = 3;
  std::size_t max_bucket_ = 0;
  /// blastp: size 24^3 + 1; blastn: size keys_.size() + 1.
  std::vector<std::uint32_t> offsets_;
  /// Query positions, bucket-contiguous, plus two trailing zero pads.
  std::vector<std::uint32_t> entries_;
  std::vector<std::uint64_t> keys_;     ///< blastn: sorted distinct words

  /// blastn probe table: word -> bucket index + 1 (0 = empty slot).
  /// Power-of-two capacity >= 4x keys, linear probing, Fibonacci hashing.
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t bucket1 = 0;
  };
  std::vector<Slot> slots_;
  std::size_t slot_mask_ = 0;
  int slot_shift_ = 0;
};

}  // namespace pioblast::blast
