// Property-based tests of the kernel's extension paths against brute-force
// references, over randomized inputs (parameterized by seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "blast/extend.h"
#include "blast/scoring.h"
#include "util/rng.h"

namespace pioblast::blast {
namespace {

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

std::vector<std::uint8_t> random_protein(util::Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> seq(len);
  for (auto& c : seq) c = static_cast<std::uint8_t>(rng.below(20));
  return seq;
}

/// Mutates ~rate of the residues (keeps homology detectable).
std::vector<std::uint8_t> mutate(util::Rng& rng,
                                 const std::vector<std::uint8_t>& parent,
                                 double rate) {
  auto child = parent;
  for (auto& c : child)
    if (rng.uniform() < rate) c = static_cast<std::uint8_t>(rng.below(20));
  return child;
}

/// Reference: full (unpruned) anchored affine-gap DP for the forward
/// extension from (0,0) with no leading gaps — the exact optimum that
/// extend_gapped_fast must reach when the X-drop never prunes. Gap of length k
/// costs open + k * extend (NCBI convention).
int reference_extension_score(const std::vector<std::uint8_t>& q,
                              const std::vector<std::uint8_t>& s,
                              const ScoringMatrix& m, int open, int extend) {
  const std::size_t rows = q.size();
  const std::size_t cols = s.size();
  const int open_cost = open + extend;
  std::vector<std::vector<int>> H(rows + 1, std::vector<int>(cols + 1, kNegInf));
  std::vector<std::vector<int>> E = H, F = H;
  H[0][0] = 0;
  int best = 0;
  for (std::size_t i = 0; i <= rows; ++i) {
    for (std::size_t j = 0; j <= cols; ++j) {
      if (i == 0 && j == 0) continue;
      int e = kNegInf, f = kNegInf, h = kNegInf;
      if (j > 0) {
        if (H[i][j - 1] != kNegInf) e = H[i][j - 1] - open_cost;
        if (E[i][j - 1] != kNegInf) e = std::max(e, E[i][j - 1] - extend);
      }
      if (i > 0) {
        if (H[i - 1][j] != kNegInf) f = H[i - 1][j] - open_cost;
        if (F[i - 1][j] != kNegInf) f = std::max(f, F[i - 1][j] - extend);
      }
      if (i > 0 && j > 0 && H[i - 1][j - 1] != kNegInf)
        h = H[i - 1][j - 1] + m.score(q[i - 1], s[j - 1]);
      h = std::max({h, e, f});
      E[i][j] = e;
      F[i][j] = f;
      H[i][j] = h;
      best = std::max(best, h);
    }
  }
  return best;
}

class ExtensionProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtensionProperties, HugeXdropMatchesExactDp) {
  util::Rng rng(GetParam());
  const auto m = ScoringMatrix::blosum62();
  GappedScratch scratch;
  for (int trial = 0; trial < 8; ++trial) {
    const auto q = random_protein(rng, 12 + rng.below(30));
    const auto s = mutate(rng, q, 0.3);
    const int expect = reference_extension_score(q, s, m, 11, 1);
    const auto got =
        extend_gapped_fast(q, s, 0, 0, m, 11, 1, /*xdrop=*/1 << 20, scratch);
    EXPECT_EQ(got.score, expect) << "trial " << trial;
  }
}

TEST_P(ExtensionProperties, XdropNeverBeatsExactDp) {
  util::Rng rng(GetParam() ^ 0xABCD);
  const auto m = ScoringMatrix::blosum62();
  GappedScratch scratch;
  for (int trial = 0; trial < 8; ++trial) {
    const auto q = random_protein(rng, 10 + rng.below(40));
    const auto s = random_protein(rng, 10 + rng.below(40));
    const int exact = reference_extension_score(q, s, m, 11, 1);
    const auto pruned =
        extend_gapped_fast(q, s, 0, 0, m, 11, 1, /*xdrop=*/20, scratch);
    EXPECT_LE(pruned.score, exact);
    EXPECT_GE(pruned.score, 0);
  }
}

TEST_P(ExtensionProperties, TracebackReplaysToReportedScore) {
  util::Rng rng(GetParam() ^ 0x1234);
  const auto m = ScoringMatrix::blosum62();
  GappedScratch scratch;
  for (int trial = 0; trial < 10; ++trial) {
    const auto q = random_protein(rng, 30 + rng.below(100));
    auto s = mutate(rng, q, 0.15);
    // Occasionally delete a small block to force gaps.
    if (s.size() > 20 && rng.uniform() < 0.7) {
      const auto cut = 5 + rng.below(5);
      const auto at = rng.below(s.size() - cut);
      s.erase(s.begin() + static_cast<std::ptrdiff_t>(at),
              s.begin() + static_cast<std::ptrdiff_t>(at + cut));
    }
    const std::uint32_t anchor = static_cast<std::uint32_t>(rng.below(8));
    const auto ext =
        extend_gapped_fast(q, s, anchor, anchor, m, 11, 1, 38, scratch);

    int replay = 0;
    std::uint32_t qi = ext.qstart;
    std::uint64_t si = ext.sstart;
    bool in_gap = false;
    for (AlignOp op : ext.ops) {
      if (op == AlignOp::kMatch) {
        replay += m.score(q[qi], s[si]);
        ++qi;
        ++si;
        in_gap = false;
      } else {
        replay -= in_gap ? 1 : 12;
        in_gap = true;
        if (op == AlignOp::kInsert) ++qi;
        else ++si;
      }
    }
    EXPECT_EQ(qi, ext.qend);
    EXPECT_EQ(si, ext.send);
    EXPECT_EQ(replay, ext.score);
  }
}

TEST_P(ExtensionProperties, UngappedMatchesDiagonalBruteForce) {
  util::Rng rng(GetParam() ^ 0x77);
  const auto m = ScoringMatrix::blosum62();
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t len = 20 + rng.below(60);
    const auto q = random_protein(rng, len);
    const auto s = mutate(rng, q, 0.4);
    const std::uint32_t seed_pos = static_cast<std::uint32_t>(rng.below(len - 3));
    const auto ext = extend_ungapped_fast(q, s, seed_pos, seed_pos, 3, m,
                                          /*xdrop=*/1 << 20,
                                          SelfScoreProfile(q, m));
    // With an unbounded X-drop, the result must be the best-scoring run on
    // the diagonal containing [seed, seed+3).
    int best = kNegInf;
    for (std::size_t a = 0; a <= seed_pos; ++a) {
      int run = 0;
      int local_best = kNegInf;
      for (std::size_t b = a; b < len; ++b) {
        run += m.score(q[b], s[b]);
        if (b + 1 >= seed_pos + 3 && run > local_best) local_best = run;
      }
      best = std::max(best, local_best);
    }
    EXPECT_EQ(ext.score, best);
    EXPECT_LE(ext.qstart, seed_pos);
    EXPECT_GE(ext.qend, seed_pos + 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtensionProperties,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

}  // namespace
}  // namespace pioblast::blast
