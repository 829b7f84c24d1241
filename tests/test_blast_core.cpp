// Tests for the BLAST engine's building blocks: scoring matrices,
// Karlin–Altschul statistics, and the seed extensions the kernel runs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "blast/extend.h"
#include "blast/scoring.h"
#include "blast/stats.h"
#include "seqdb/alphabet.h"

namespace pioblast::blast {
namespace {

using seqdb::SeqType;

std::vector<std::uint8_t> prot(const std::string& s) {
  return seqdb::encode_sequence(SeqType::kProtein, s);
}

int score_of(const ScoringMatrix& m, char a, char b) {
  return m.score(seqdb::encode_residue(SeqType::kProtein, a),
                 seqdb::encode_residue(SeqType::kProtein, b));
}

// ---------- scoring ------------------------------------------------------

TEST(Blosum62, KnownEntries) {
  const auto m = ScoringMatrix::blosum62();
  EXPECT_EQ(score_of(m, 'W', 'W'), 11);
  EXPECT_EQ(score_of(m, 'A', 'A'), 4);
  EXPECT_EQ(score_of(m, 'C', 'C'), 9);
  EXPECT_EQ(score_of(m, 'A', 'W'), -3);
  EXPECT_EQ(score_of(m, 'E', 'Q'), 2);
  EXPECT_EQ(score_of(m, 'I', 'L'), 2);
}

TEST(Blosum62, IsSymmetric) {
  const auto m = ScoringMatrix::blosum62();
  for (std::uint8_t a = 0; a < 24; ++a)
    for (std::uint8_t b = 0; b < 24; ++b) EXPECT_EQ(m.score(a, b), m.score(b, a));
}

TEST(Blosum62, DiagonalIsRowMaxForStandardResidues) {
  const auto m = ScoringMatrix::blosum62();
  for (std::uint8_t a = 0; a < 20; ++a) {
    EXPECT_EQ(m.row_max(a), m.score(a, a)) << "residue " << int(a);
  }
}

TEST(Blosum62, KarlinParamsArePublishedValues) {
  const auto m = ScoringMatrix::blosum62();
  EXPECT_NEAR(m.ungapped().lambda, 0.3176, 1e-6);
  EXPECT_NEAR(m.gapped().lambda, 0.267, 1e-6);
  EXPECT_NEAR(m.gapped().K, 0.041, 1e-6);
}

TEST(DnaMatrix, MatchMismatchStructure) {
  const auto m = ScoringMatrix::dna(1, -3);
  const auto A = seqdb::encode_residue(SeqType::kNucleotide, 'A');
  const auto C = seqdb::encode_residue(SeqType::kNucleotide, 'C');
  const auto N = seqdb::encode_residue(SeqType::kNucleotide, 'N');
  EXPECT_EQ(m.score(A, A), 1);
  EXPECT_EQ(m.score(A, C), -3);
  EXPECT_EQ(m.score(N, N), -3);  // N never matches
  EXPECT_EQ(m.score(A, N), -3);
}

// ---------- stats --------------------------------------------------------

TEST(Stats, BitScoreFormula) {
  const KarlinParams kp{0.267, 0.041, 0.14};
  // bits = (lambda*S - ln K) / ln 2
  EXPECT_NEAR(bit_score(kp, 100), (0.267 * 100 - std::log(0.041)) / std::log(2.0),
              1e-9);
}

TEST(Stats, EvalueDecreasesWithScore) {
  const KarlinParams kp{0.267, 0.041, 0.14};
  const GlobalDbStats db{4'000'000, 10'000};
  const auto adjust = length_adjustment(kp, 300, db);
  double prev = 1e300;
  for (int s = 30; s <= 300; s += 30) {
    const double e = evalue(kp, s, 300, db, adjust);
    EXPECT_LT(e, prev);
    prev = e;
  }
}

TEST(Stats, EvalueScalesWithDbSize) {
  const KarlinParams kp{0.267, 0.041, 0.14};
  const GlobalDbStats small{1'000'000, 3'000};
  const GlobalDbStats big{100'000'000, 300'000};
  const auto adj_small = length_adjustment(kp, 300, small);
  const auto adj_big = length_adjustment(kp, 300, big);
  EXPECT_LT(evalue(kp, 80, 300, small, adj_small),
            evalue(kp, 80, 300, big, adj_big));
}

TEST(Stats, LengthAdjustmentReasonable) {
  const KarlinParams kp{0.267, 0.041, 0.14};
  const GlobalDbStats db{1'000'000'000, 2'000'000};  // nr-scale
  const auto l = length_adjustment(kp, 300, db);
  EXPECT_GT(l, 50u);   // substantial for gapped BLOSUM62
  EXPECT_LT(l, 299u);  // never consumes the whole query
}

TEST(Stats, LengthAdjustmentMonotoneInQueryLength) {
  const KarlinParams kp{0.267, 0.041, 0.14};
  const GlobalDbStats db{10'000'000, 30'000};
  EXPECT_LE(length_adjustment(kp, 100, db), length_adjustment(kp, 10000, db));
}

// ---------- ungapped extension ---------------------------------------------

TEST(UngappedExtension, PerfectMatchExtendsFully) {
  const auto q = prot("MKVLAWERTYHHGG");
  const auto s = prot("MKVLAWERTYHHGG");
  const auto m = ScoringMatrix::blosum62();
  const auto ext = extend_ungapped_fast(q, s, 5, 5, 3, m, 16,
                                        SelfScoreProfile(q, m));
  EXPECT_EQ(ext.qstart, 0u);
  EXPECT_EQ(ext.qend, q.size());
  EXPECT_EQ(ext.sstart, 0u);
  EXPECT_EQ(ext.send, s.size());
  int self = 0;
  for (auto c : q) self += m.score(c, c);
  EXPECT_EQ(ext.score, self);
}

TEST(UngappedExtension, StopsAtXDrop) {
  // A strong core flanked by hostile residues: extension must not cross
  // the junk once the score has dropped by more than X.
  const auto q = prot("WWWWWW" "GGGGGGGGGG" "WWWWWW");
  const auto s = prot("WWWWWW" "PPPPPPPPPP" "WWWWWW");
  const auto m = ScoringMatrix::blosum62();
  const auto ext = extend_ungapped_fast(q, s, 0, 0, 3, m, 16,
                                        SelfScoreProfile(q, m));
  // G vs P is -2: after ~8 columns the drop exceeds 16.
  EXPECT_LE(ext.qend, 6u + 9u);
  EXPECT_EQ(ext.qstart, 0u);
  EXPECT_EQ(ext.score, 6 * 11);
}

TEST(UngappedExtension, LeftAndRightSymmetric) {
  const auto q = prot("GGGGGWWWWWWGGGGG");
  const auto s = prot("PPPPPWWWWWWPPPPP");
  const auto m = ScoringMatrix::blosum62();
  const auto ext = extend_ungapped_fast(q, s, 6, 6, 3, m, 16,
                                        SelfScoreProfile(q, m));
  EXPECT_EQ(ext.qstart, 5u);
  EXPECT_EQ(ext.qend, 11u);
  EXPECT_EQ(ext.score, 6 * 11);
}

TEST(UngappedExtension, CountsCells) {
  const auto q = prot("MKVLAWERTY");
  const auto s = prot("MKVLAWERTY");
  const auto m = ScoringMatrix::blosum62();
  const auto ext = extend_ungapped_fast(q, s, 3, 3, 3, m, 16,
                                        SelfScoreProfile(q, m));
  EXPECT_GT(ext.cells, 3u);
}

// ---------- gapped extension -------------------------------------------------

GappedExtension run_gapped(const std::string& qs, const std::string& ss,
                           std::uint32_t aq, std::uint64_t as) {
  const auto q = prot(qs);
  const auto s = prot(ss);
  const auto m = ScoringMatrix::blosum62();
  GappedScratch scratch;
  return extend_gapped_fast(q, s, aq, as, m, 11, 1, 38, scratch);
}

TEST(GappedExtension, IdenticalSequencesAlignEndToEnd) {
  const std::string seq = "MKVLAWERTYHISPQNDCFGMKVLAWERTYHISPQNDCFG";
  const auto ext = run_gapped(seq, seq, 20, 20);
  EXPECT_EQ(ext.qstart, 0u);
  EXPECT_EQ(ext.qend, seq.size());
  EXPECT_EQ(ext.sstart, 0u);
  EXPECT_EQ(ext.send, seq.size());
  EXPECT_EQ(ext.ops.size(), seq.size());
  for (auto op : ext.ops) EXPECT_EQ(op, AlignOp::kMatch);
}

TEST(GappedExtension, ScoreMatchesTracebackReplay) {
  const std::string a = "MKVLAWERTYHISPQNDCFGAAAA";
  const std::string b = "MKVLAWERTYISPQNDCFGAAAA";  // H deleted
  const auto ext = run_gapped(a, b, 2, 2);
  const auto q = prot(a);
  const auto s = prot(b);
  const auto m = ScoringMatrix::blosum62();
  // Replay the ops and recompute the score with NCBI gap costs.
  int replay = 0;
  std::uint32_t qi = ext.qstart;
  std::uint64_t si = ext.sstart;
  bool in_gap = false;
  for (auto op : ext.ops) {
    if (op == AlignOp::kMatch) {
      replay += m.score(q[qi], s[si]);
      ++qi;
      ++si;
      in_gap = false;
    } else {
      replay -= in_gap ? 1 : 12;  // open 11 + extend 1, then 1 per extra
      in_gap = true;
      if (op == AlignOp::kInsert) ++qi; else ++si;
    }
  }
  EXPECT_EQ(qi, ext.qend);
  EXPECT_EQ(si, ext.send);
  EXPECT_EQ(replay, ext.score);
}

TEST(GappedExtension, BridgesASmallGap) {
  const std::string a = "WWWWWWCCCCCCWWWWWW";
  const std::string b = "WWWWWWCCKKCCCCWWWWWW";  // two inserted residues
  const auto ext = run_gapped(a, b, 3, 3);
  // The alignment should span both W-blocks, paying one 2-long gap.
  EXPECT_EQ(ext.qstart, 0u);
  EXPECT_EQ(ext.qend, a.size());
  EXPECT_EQ(ext.send, b.size());
  int deletes = 0;
  for (auto op : ext.ops)
    if (op == AlignOp::kDelete) ++deletes;
  EXPECT_EQ(deletes, 2);
}

TEST(GappedExtension, AnchorInsideHomologousCore) {
  // Anchoring mid-core must recover the full core even with noisy flanks.
  const std::string core = "WCWCWCWCWCWC";
  const std::string a = "GGGG" + core + "GGGG";
  const std::string b = "PPPP" + core + "PPPP";
  const auto ext = run_gapped(a, b, 8, 8);
  EXPECT_LE(ext.qstart, 4u);
  EXPECT_GE(ext.qend, 4u + core.size());
}

TEST(GappedExtension, EmptyLeftContext) {
  const std::string seq = "MKVLAWERTY";
  const auto ext = run_gapped(seq, seq, 0, 0);
  EXPECT_EQ(ext.qstart, 0u);
  EXPECT_EQ(ext.qend, seq.size());
}

TEST(GappedExtension, CellsCounted) {
  const std::string seq = "MKVLAWERTYHISPQNDCFG";
  const auto ext = run_gapped(seq, seq, 10, 10);
  EXPECT_GT(ext.cells, seq.size());
}

}  // namespace
}  // namespace pioblast::blast
