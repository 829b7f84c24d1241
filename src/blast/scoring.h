// Scoring matrices and Karlin–Altschul statistical parameters.
//
// Protein search uses BLOSUM62 over the 24-letter NCBIstdaa-like alphabet
// (see seqdb/alphabet.h); nucleotide search uses a match/mismatch matrix
// (+1/-3 by default, megablast-era blastn defaults). Karlin–Altschul
// (lambda, K, H) parameter sets are the published values for these scoring
// systems and drive bit scores and E-values (stats.h).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "seqdb/alphabet.h"

namespace pioblast::blast {

/// Karlin–Altschul parameters for a scoring system.
struct KarlinParams {
  double lambda = 0.0;
  double K = 0.0;
  double H = 0.0;
};

/// Square scoring matrix over residue codes. Max alphabet is protein (24).
class ScoringMatrix {
 public:
  static constexpr int kMaxAlphabet = 24;

  /// BLOSUM62 with published ungapped/gapped(11,1) Karlin parameters.
  static ScoringMatrix blosum62();

  /// Nucleotide match/mismatch matrix; N scores `mismatch` against all.
  /// Karlin parameters are published values for +1/-3 (and approximations
  /// for other reward/penalty pairs).
  static ScoringMatrix dna(int match = 1, int mismatch = -3);

  /// Arbitrary matrix over `size` residue codes, `scores` row-major
  /// (size*size entries). Used by the kernel property/differential tests
  /// to drive the seed machinery with randomized scoring systems.
  static ScoringMatrix custom(int size, std::span<const int> scores,
                              const KarlinParams& ungapped,
                              const KarlinParams& gapped);

  int size() const { return size_; }

  int score(std::uint8_t a, std::uint8_t b) const {
    return table_[static_cast<std::size_t>(a) * kMaxAlphabet + b];
  }

  /// Row pointer (`row(a)[b] == score(a, b)`); the fast kernel hoists this
  /// out of its inner loops.
  const int* row(std::uint8_t a) const {
    return table_.data() + static_cast<std::size_t>(a) * kMaxAlphabet;
  }

  /// Highest score in row `a` (used for neighborhood-word pruning).
  int row_max(std::uint8_t a) const { return row_max_[a]; }

  /// Largest |score(a, b)| over the whole table: the gapped DP picks its
  /// lane width from it.
  int score_span() const { return score_span_; }

  /// All kMaxAlphabet letters ordered by descending `score(a, ·)`, so a
  /// neighborhood loop can stop at the first letter below its threshold.
  const std::uint8_t* by_score(std::uint8_t a) const {
    return by_score_.data() + static_cast<std::size_t>(a) * kMaxAlphabet;
  }

  const KarlinParams& ungapped() const { return ungapped_; }
  const KarlinParams& gapped() const { return gapped_; }

 private:
  ScoringMatrix() { table_.fill(0); row_max_.fill(0); }

  /// Fills by_score_ and score_span_ from table_; each factory calls it
  /// last.
  void sort_rows();

  int size_ = 0;
  std::array<int, kMaxAlphabet * kMaxAlphabet> table_{};
  std::array<int, kMaxAlphabet> row_max_{};
  int score_span_ = 0;
  std::array<std::uint8_t, kMaxAlphabet * kMaxAlphabet> by_score_{};
  KarlinParams ungapped_{};
  KarlinParams gapped_{};
};

}  // namespace pioblast::blast
