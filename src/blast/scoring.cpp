#include "blast/scoring.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

namespace pioblast::blast {

namespace {

// BLOSUM62 in kProteinLetters order: ARNDCQEGHILKMFPSTWYVBZX*.
constexpr int kB62[24][24] = {
    /*A*/ { 4,-1,-2,-2, 0,-1,-1, 0,-2,-1,-1,-1,-1,-2,-1, 1, 0,-3,-2, 0,-2,-1, 0,-4},
    /*R*/ {-1, 5, 0,-2,-3, 1, 0,-2, 0,-3,-2, 2,-1,-3,-2,-1,-1,-3,-2,-3,-1, 0,-1,-4},
    /*N*/ {-2, 0, 6, 1,-3, 0, 0, 0, 1,-3,-3, 0,-2,-3,-2, 1, 0,-4,-2,-3, 3, 0,-1,-4},
    /*D*/ {-2,-2, 1, 6,-3, 0, 2,-1,-1,-3,-4,-1,-3,-3,-1, 0,-1,-4,-3,-3, 4, 1,-1,-4},
    /*C*/ { 0,-3,-3,-3, 9,-3,-4,-3,-3,-1,-1,-3,-1,-2,-3,-1,-1,-2,-2,-1,-3,-3,-2,-4},
    /*Q*/ {-1, 1, 0, 0,-3, 5, 2,-2, 0,-3,-2, 1, 0,-3,-1, 0,-1,-2,-1,-2, 0, 3,-1,-4},
    /*E*/ {-1, 0, 0, 2,-4, 2, 5,-2, 0,-3,-3, 1,-2,-3,-1, 0,-1,-3,-2,-2, 1, 4,-1,-4},
    /*G*/ { 0,-2, 0,-1,-3,-2,-2, 6,-2,-4,-4,-2,-3,-3,-2, 0,-2,-2,-3,-3,-1,-2,-1,-4},
    /*H*/ {-2, 0, 1,-1,-3, 0, 0,-2, 8,-3,-3,-1,-2,-1,-2,-1,-2,-2, 2,-3, 0, 0,-1,-4},
    /*I*/ {-1,-3,-3,-3,-1,-3,-3,-4,-3, 4, 2,-3, 1, 0,-3,-2,-1,-3,-1, 3,-3,-3,-1,-4},
    /*L*/ {-1,-2,-3,-4,-1,-2,-3,-4,-3, 2, 4,-2, 2, 0,-3,-2,-1,-2,-1, 1,-4,-3,-1,-4},
    /*K*/ {-1, 2, 0,-1,-3, 1, 1,-2,-1,-3,-2, 5,-1,-3,-1, 0,-1,-3,-2,-2, 0, 1,-1,-4},
    /*M*/ {-1,-1,-2,-3,-1, 0,-2,-3,-2, 1, 2,-1, 5, 0,-2,-1,-1,-1,-1, 1,-3,-1,-1,-4},
    /*F*/ {-2,-3,-3,-3,-2,-3,-3,-3,-1, 0, 0,-3, 0, 6,-4,-2,-2, 1, 3,-1,-3,-3,-1,-4},
    /*P*/ {-1,-2,-2,-1,-3,-1,-1,-2,-2,-3,-3,-1,-2,-4, 7,-1,-1,-4,-3,-2,-2,-1,-2,-4},
    /*S*/ { 1,-1, 1, 0,-1, 0, 0, 0,-1,-2,-2, 0,-1,-2,-1, 4, 1,-3,-2,-2, 0, 0, 0,-4},
    /*T*/ { 0,-1, 0,-1,-1,-1,-1,-2,-2,-1,-1,-1,-1,-2,-1, 1, 5,-2,-2, 0,-1,-1, 0,-4},
    /*W*/ {-3,-3,-4,-4,-2,-2,-3,-2,-2,-3,-2,-3,-1, 1,-4,-3,-2,11, 2,-3,-4,-3,-2,-4},
    /*Y*/ {-2,-2,-2,-3,-2,-1,-2,-3, 2,-1,-1,-2,-1, 3,-3,-2,-2, 2, 7,-1,-3,-2,-1,-4},
    /*V*/ { 0,-3,-3,-3,-1,-2,-2,-3,-3, 3, 1,-2, 1,-1,-2,-2, 0,-3,-1, 4,-3,-2,-1,-4},
    /*B*/ {-2,-1, 3, 4,-3, 0, 1,-1, 0,-3,-4, 0,-3,-3,-2, 0,-1,-4,-3,-3, 4, 1,-1,-4},
    /*Z*/ {-1, 0, 0, 1,-3, 3, 4,-2, 0,-3,-3, 1,-1,-3,-1, 0,-1,-3,-2,-2, 1, 4,-1,-4},
    /*X*/ { 0,-1,-1,-1,-2,-1,-1,-1,-1,-1,-1,-1,-1,-1,-2, 0, 0,-2,-1,-1,-1,-1,-1,-4},
    /***/ {-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4, 1},
};

}  // namespace

ScoringMatrix ScoringMatrix::blosum62() {
  ScoringMatrix m;
  m.size_ = 24;
  for (int a = 0; a < 24; ++a) {
    int best = kB62[a][0];
    for (int b = 0; b < 24; ++b) {
      m.table_[static_cast<std::size_t>(a) * kMaxAlphabet + b] = kB62[a][b];
      best = std::max(best, kB62[a][b]);
    }
    m.row_max_[static_cast<std::size_t>(a)] = best;
  }
  // Published Karlin–Altschul values for BLOSUM62 (NCBI blast_stat.c).
  m.ungapped_ = {0.3176, 0.134, 0.4012};
  m.gapped_ = {0.267, 0.041, 0.14};  // gap open 11, gap extend 1
  m.sort_rows();
  return m;
}

ScoringMatrix ScoringMatrix::dna(int match, int mismatch) {
  ScoringMatrix m;
  m.size_ = 5;  // ACGTN
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      const bool n = (a == 4 || b == 4);
      m.table_[static_cast<std::size_t>(a) * kMaxAlphabet + b] =
          (!n && a == b) ? match : mismatch;
    }
    m.row_max_[static_cast<std::size_t>(a)] = (a == 4) ? mismatch : match;
  }
  // Published values for +1/-3 (NCBI blast_stat.c); other reward/penalty
  // pairs reuse them as approximations — fine for relative comparisons.
  m.ungapped_ = {1.374, 0.711, 1.31};
  m.gapped_ = {1.28, 0.46, 0.85};  // gap open 5, gap extend 2
  m.sort_rows();
  return m;
}

ScoringMatrix ScoringMatrix::custom(int size, std::span<const int> scores,
                                    const KarlinParams& ungapped,
                                    const KarlinParams& gapped) {
  ScoringMatrix m;
  m.size_ = size;
  for (int a = 0; a < size; ++a) {
    int best = scores[static_cast<std::size_t>(a) * static_cast<std::size_t>(size)];
    for (int b = 0; b < size; ++b) {
      const int s = scores[static_cast<std::size_t>(a) *
                               static_cast<std::size_t>(size) +
                           static_cast<std::size_t>(b)];
      m.table_[static_cast<std::size_t>(a) * kMaxAlphabet + b] = s;
      best = std::max(best, s);
    }
    m.row_max_[static_cast<std::size_t>(a)] = best;
  }
  m.ungapped_ = ungapped;
  m.gapped_ = gapped;
  m.sort_rows();
  return m;
}

void ScoringMatrix::sort_rows() {
  score_span_ = 0;
  for (const int s : table_) score_span_ = std::max(score_span_, std::abs(s));
  for (int a = 0; a < kMaxAlphabet; ++a) {
    std::uint8_t* order = by_score_.data() + a * kMaxAlphabet;
    std::iota(order, order + kMaxAlphabet, std::uint8_t{0});
    const int* scores = row(static_cast<std::uint8_t>(a));
    std::stable_sort(order, order + kMaxAlphabet,
                     [&](std::uint8_t x, std::uint8_t y) {
                       return scores[x] > scores[y];
                     });
  }
}

}  // namespace pioblast::blast
