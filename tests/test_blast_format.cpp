// Output-formatting tests: E-value rendering, query headers, alignment
// panels and their sizes, and serialization of HSPs / candidate metadata.
#include <gtest/gtest.h>

#include "blast/engine.h"
#include "blast/format.h"
#include "blast/query_set.h"
#include "blast/serialize.h"
#include "pario/vfs.h"
#include "seqdb/alphabet.h"
#include "seqdb/formatdb.h"
#include "seqdb/generator.h"
#include "util/error.h"

namespace pioblast::blast {
namespace {

using seqdb::SeqType;

TEST(EvalueFormat, Regimes) {
  EXPECT_EQ(format_evalue(0.0), "0.0");
  EXPECT_EQ(format_evalue(1e-200), "0.0");
  EXPECT_EQ(format_evalue(3.2e-31), "3e-31");
  EXPECT_EQ(format_evalue(0.001), "0.001");
  EXPECT_EQ(format_evalue(2.54), "2.5");
  EXPECT_EQ(format_evalue(42.0), "42");
}

TEST(EvalueFormat, NoPaddedExponent) {
  EXPECT_EQ(format_evalue(1e-5), "1e-5");
  EXPECT_EQ(format_evalue(9.6e-100), "1e-99");
}

TEST(QueryHeader, ContainsStatsAndCommas) {
  seqdb::FastaRecord q{"query_1", "sampled from x", std::string(1234, 'A')};
  const GlobalDbStats db{987'654'321, 1'986'684};
  const std::string h = format_query_header(q, "synthetic nr", db, 7);
  EXPECT_NE(h.find("Query= query_1 sampled from x"), std::string::npos);
  EXPECT_NE(h.find("(1,234 letters)"), std::string::npos);
  EXPECT_NE(h.find("1,986,684 sequences"), std::string::npos);
  EXPECT_NE(h.find("987,654,321 total letters"), std::string::npos);
  EXPECT_NE(h.find("significant alignments: 7"), std::string::npos);
}

TEST(NoHits, Marker) {
  EXPECT_NE(format_no_hits().find("No hits found"), std::string::npos);
}

/// Builds a small identity HSP by hand.
Hsp identity_hsp(std::size_t len) {
  Hsp h;
  h.qstart = 0;
  h.qend = static_cast<std::uint32_t>(len);
  h.sstart = 0;
  h.send = len;
  h.score = static_cast<int>(4 * len);
  h.bits = 50.0;
  h.evalue = 1e-20;
  h.identities = static_cast<std::uint32_t>(len);
  h.positives = static_cast<std::uint32_t>(len);
  h.align_len = static_cast<std::uint32_t>(len);
  h.ops.assign(len, AlignOp::kMatch);
  return h;
}

TEST(AlignmentFormat, IdentityPanel) {
  const std::string seq = "MKVLAWERTY";
  const auto codes = seqdb::encode_sequence(SeqType::kProtein, seq);
  const auto m = ScoringMatrix::blosum62();
  const auto text = format_alignment(identity_hsp(seq.size()),
                                     SeqType::kProtein, codes, codes,
                                     "subj desc", 10, m);
  EXPECT_NE(text.find(">subj desc"), std::string::npos);
  EXPECT_NE(text.find("Length = 10"), std::string::npos);
  EXPECT_NE(text.find("Expect = 1e-20"), std::string::npos);
  EXPECT_NE(text.find("Identities = 10/10 (100%)"), std::string::npos);
  EXPECT_NE(text.find("Query: 1     " + seq + " 10"), std::string::npos);
  EXPECT_NE(text.find("Sbjct: 1     " + seq + " 10"), std::string::npos);
  // Identity midline repeats the residues for protein.
  EXPECT_NE(text.find("             " + seq), std::string::npos);
}

TEST(AlignmentFormat, GapColumnsRendered) {
  // Query MKVLAW vs subject MKAW with "VL" deleted from the subject.
  const auto q = seqdb::encode_sequence(SeqType::kProtein, "MKVLAW");
  const auto s = seqdb::encode_sequence(SeqType::kProtein, "MKAW");
  Hsp h;
  h.qstart = 0;
  h.qend = 6;
  h.sstart = 0;
  h.send = 4;
  h.score = 10;
  h.bits = 8.0;
  h.evalue = 0.5;
  h.align_len = 6;
  h.identities = 4;
  h.positives = 4;
  h.gaps = 2;
  h.ops = {AlignOp::kMatch, AlignOp::kMatch, AlignOp::kInsert, AlignOp::kInsert,
           AlignOp::kMatch, AlignOp::kMatch};
  const auto m = ScoringMatrix::blosum62();
  const auto text =
      format_alignment(h, SeqType::kProtein, q, s, "subj", 4, m);
  EXPECT_NE(text.find("Query: 1     MKVLAW 6"), std::string::npos);
  EXPECT_NE(text.find("Sbjct: 1     MK--AW 4"), std::string::npos);
  EXPECT_NE(text.find("Gaps = 2/6"), std::string::npos);
}

TEST(AlignmentFormat, WrapsAtSixtyColumns) {
  const std::string seq(150, 'M');
  const auto codes = seqdb::encode_sequence(SeqType::kProtein, seq);
  const auto m = ScoringMatrix::blosum62();
  const auto text = format_alignment(identity_hsp(150), SeqType::kProtein,
                                     codes, codes, "s", 150, m);
  // Three panels: 60 + 60 + 30.
  EXPECT_NE(text.find("Query: 1     "), std::string::npos);
  EXPECT_NE(text.find("Query: 61    "), std::string::npos);
  EXPECT_NE(text.find("Query: 121   "), std::string::npos);
  EXPECT_NE(text.find(" 150\n"), std::string::npos);
}

TEST(AlignmentFormat, DnaMidlineUsesBars) {
  const auto q = seqdb::encode_sequence(SeqType::kNucleotide, "ACGTACGT");
  const auto m = ScoringMatrix::dna();
  const auto text = format_alignment(identity_hsp(8), SeqType::kNucleotide, q,
                                     q, "nt subj", 8, m);
  EXPECT_NE(text.find("||||||||"), std::string::npos);
}

TEST(AlignmentFormat, PositiveSubstitutionGetsPlus) {
  // I vs L scores +2: midline shows '+'.
  const auto q = seqdb::encode_sequence(SeqType::kProtein, "WWWIWWW");
  const auto s = seqdb::encode_sequence(SeqType::kProtein, "WWWLWWW");
  Hsp h = identity_hsp(7);
  h.identities = 6;
  h.positives = 7;
  const auto m = ScoringMatrix::blosum62();
  const auto text = format_alignment(h, SeqType::kProtein, q, s, "s", 7, m);
  EXPECT_NE(text.find("WWW+WWW"), std::string::npos);
}

// ---------- alignment_size ----------------------------------------------------

/// alignment_size must equal the rendered block's length for every input.
void expect_size_matches(const Hsp& h, SeqType type,
                         std::span<const std::uint8_t> q,
                         std::span<const std::uint8_t> s,
                         std::string_view defline, std::uint64_t slen,
                         const ScoringMatrix& m) {
  EXPECT_EQ(alignment_size(h, type, q, s, defline, slen, m),
            format_alignment(h, type, q, s, defline, slen, m).size())
      << "qstart " << h.qstart << " sstart " << h.sstart << " columns "
      << h.ops.size() << " evalue " << h.evalue;
}

/// Every HSP of the golden reports' search (test_kernel_diff's
/// make_workload): a 100 KiB family database, 3 KiB of sampled queries,
/// hit lists of 25, the whole database as one fragment.
void expect_sizes_match_search(SeqType type, std::uint64_t seed) {
  seqdb::GeneratorConfig gen;
  gen.type = type;
  gen.target_residues = 100u << 10;
  gen.seed = seed;
  gen.family_fraction = 0.55;
  const auto db = seqdb::generate_database(gen);
  pario::VirtualFS fs;
  seqdb::format_db(fs, db, "db", type, "t");
  const auto frag = seqdb::load_volumes(fs, "db", type);
  GlobalDbStats stats;
  stats.num_seqs = db.size();
  for (const auto& r : db) stats.total_residues += r.sequence.size();
  auto params = type == SeqType::kProtein ? SearchParams::blastp_defaults()
                                          : SearchParams::blastn_defaults();
  params.hitlist_size = 25;
  const auto qset = QuerySet::build(
      seqdb::write_fasta(seqdb::sample_queries(db, 3u << 10, seed + 1)),
      params, stats);
  const auto results = search_fragments(qset->contexts(), std::span(&frag, 1));
  std::size_t hsps = 0;
  for (std::size_t qi = 0; qi < qset->size(); ++qi) {
    for (const Hsp& h : results[0][qi].hsps) {
      const auto subject = frag.sequence(h.subject_global_id);
      expect_size_matches(h, type, qset->contexts()[qi].residues(), subject,
                          frag.defline(h.subject_global_id), subject.size(),
                          qset->matrix());
      ++hsps;
    }
  }
  EXPECT_GT(hsps, 20u);
}

TEST(AlignmentSize, EqualsRenderedLengthOnBlastpSearch) {
  expect_sizes_match_search(SeqType::kProtein, 777);
}

TEST(AlignmentSize, EqualsRenderedLengthOnBlastnSearch) {
  expect_sizes_match_search(SeqType::kNucleotide, 778);
}

TEST(AlignmentSize, PanelWidthsAroundSixtyColumns) {
  const auto m = ScoringMatrix::blosum62();
  for (std::size_t len : {0, 1, 59, 60, 61, 119, 120, 121}) {
    const auto codes =
        seqdb::encode_sequence(SeqType::kProtein, std::string(len, 'W'));
    expect_size_matches(identity_hsp(len), SeqType::kProtein, codes, codes,
                        "s", len, m);
  }
}

TEST(AlignmentSize, PanelsEndingInGaps) {
  // 59 matches, then a query residue against a subject gap closes panel 1;
  // the alignment also ends on a subject residue against a query gap.
  const auto m = ScoringMatrix::blosum62();
  const auto q = seqdb::encode_sequence(SeqType::kProtein,
                                        std::string(59, 'A') + "CDE");
  const auto s = seqdb::encode_sequence(SeqType::kProtein,
                                        std::string(59, 'A') + "DEK");
  Hsp h = identity_hsp(63);
  h.ops.assign(59, AlignOp::kMatch);
  h.ops.insert(h.ops.end(), {AlignOp::kInsert, AlignOp::kMatch,
                             AlignOp::kMatch, AlignOp::kDelete});
  h.qend = 62;
  h.send = 62;
  const std::string text =
      format_alignment(h, SeqType::kProtein, q, s, "gapped", 62, m);
  EXPECT_NE(text.find("Sbjct: 1     " + std::string(59, 'A') + "- 59\n"),
            std::string::npos)
      << text;
  expect_size_matches(h, SeqType::kProtein, q, s, "gapped", 62, m);
}

TEST(AlignmentSize, CoordinateFieldsWiden) {
  // "%-5u" pads to five digits: the query column crosses 9,999 -> 10,000
  // and the subject column 99,999 -> 100,000 inside or between panels.
  const auto m = ScoringMatrix::dna();
  const auto q = seqdb::encode_sequence(SeqType::kNucleotide,
                                        std::string(10'200, 'A'));
  const auto s = seqdb::encode_sequence(SeqType::kNucleotide,
                                        std::string(100'200, 'A'));
  for (std::uint32_t back = 0; back <= 130; back += 13) {
    Hsp h = identity_hsp(150);
    h.qstart = 10'000 - back;
    h.qend = h.qstart + 150;
    h.sstart = 100'000 - back;
    h.send = h.sstart + 150;
    expect_size_matches(h, SeqType::kNucleotide, q, s, "long subject",
                        s.size(), m);
  }
}

TEST(AlignmentSize, EveryEvalueRegime) {
  const auto m = ScoringMatrix::blosum62();
  const auto codes = seqdb::encode_sequence(SeqType::kProtein, "MKVLAW");
  for (double e : {0.0, 1e-200, 3.2e-31, 9.6e-100, 1e-5, 0.001, 0.05, 2.54,
                   9.99, 42.0, 123456.0}) {
    Hsp h = identity_hsp(6);
    h.evalue = e;
    h.bits = e * 3.0 + 0.05;
    expect_size_matches(h, SeqType::kProtein, codes, codes, "s", 1'234'567,
                        m);
  }
}

TEST(AlignmentSize, RejectsACorruptResidueCodeLikeTheRenderer) {
  // A code outside the alphabet, as a corrupt .psq byte would read, in a
  // matched column, a subject-only column and a query-only column.
  const auto m = ScoringMatrix::blosum62();
  auto q = seqdb::encode_sequence(SeqType::kProtein, "MKVLAW");
  auto s = seqdb::encode_sequence(SeqType::kProtein, "MKVLAW");
  Hsp h = identity_hsp(6);
  h.ops = {AlignOp::kMatch, AlignOp::kDelete, AlignOp::kInsert,
           AlignOp::kMatch, AlignOp::kMatch,  AlignOp::kMatch};
  const auto message_of = [&](auto&& call) {
    try {
      call();
    } catch (const util::ContractViolation& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const auto& [where, index] :
       {std::pair{&s, 0}, std::pair{&s, 1}, std::pair{&q, 1}}) {
    SCOPED_TRACE(index);
    const std::uint8_t saved = (*where)[index];
    (*where)[index] = 200;
    const std::string rendered = message_of([&] {
      format_alignment(h, SeqType::kProtein, q, s, "s", 6, m);
    });
    EXPECT_NE(rendered.find("residue code out of range: 200"),
              std::string::npos)
        << rendered;
    EXPECT_EQ(message_of([&] {
                alignment_size(h, SeqType::kProtein, q, s, "s", 6, m);
              }),
              rendered);
    (*where)[index] = saved;
  }
}

// ---------- tabular format ----------------------------------------------------

TEST(TabularFormat, DeflineIdTakesFirstToken) {
  EXPECT_EQ(defline_id("abc|123 some description"), "abc|123");
  EXPECT_EQ(defline_id("bare"), "bare");
  EXPECT_EQ(defline_id("tabbed\tdesc"), "tabbed");
}

TEST(TabularFormat, LineFieldsMatchHsp) {
  Hsp h = identity_hsp(10);
  h.evalue = 2e-9;
  h.bits = 42.35;
  const std::string line =
      format_tabular_line(h, "query_7", "subj|9 a homolog");
  // qid sid pident len mism gapopen qs qe ss se evalue bits
  EXPECT_EQ(line,
            "query_7\tsubj|9\t100.00\t10\t0\t0\t1\t10\t1\t10\t2e-9\t42.4\n");
}

TEST(TabularFormat, GapOpeningsCountRuns) {
  Hsp h = identity_hsp(8);
  h.ops = {AlignOp::kMatch,  AlignOp::kInsert, AlignOp::kInsert,
           AlignOp::kMatch,  AlignOp::kDelete, AlignOp::kMatch,
           AlignOp::kInsert, AlignOp::kMatch};
  h.align_len = 8;
  h.gaps = 4;
  h.identities = 4;
  const std::string line = format_tabular_line(h, "q", "s");
  // Fields: ... length=8, mismatches=0, gap openings=3 (maximal indel runs).
  EXPECT_NE(line.find("\t8\t0\t3\t"), std::string::npos) << line;
}

TEST(TabularFormat, QueryHeaderHasFieldsComment) {
  seqdb::FastaRecord q{"q1", "", "MKV"};
  const std::string h = format_tabular_query_header(q, "mydb", 3);
  EXPECT_NE(h.find("# Query: q1"), std::string::npos);
  EXPECT_NE(h.find("# Database: mydb"), std::string::npos);
  EXPECT_NE(h.find("# Fields:"), std::string::npos);
  EXPECT_NE(h.find("# 3 hits found"), std::string::npos);
}

// ---------- serialization ----------------------------------------------------

TEST(Serialize, HspRoundTrip) {
  Hsp h = identity_hsp(12);
  h.query_id = 3;
  h.subject_global_id = 42;
  h.evalue = 1.5e-7;
  h.ops = {AlignOp::kMatch, AlignOp::kInsert, AlignOp::kDelete, AlignOp::kMatch};
  mpisim::Encoder enc;
  enc.put_obj(h);
  mpisim::Decoder dec(enc.bytes());
  const Hsp back = dec.get_obj<Hsp>();
  EXPECT_EQ(back.query_id, h.query_id);
  EXPECT_EQ(back.subject_global_id, h.subject_global_id);
  EXPECT_EQ(back.score, h.score);
  EXPECT_DOUBLE_EQ(back.evalue, h.evalue);
  EXPECT_EQ(back.ops, h.ops);
  EXPECT_TRUE(dec.exhausted());
}

TEST(Serialize, CandidateRoundTripAndSize) {
  CandidateMeta c;
  c.query_id = 1;
  c.local_index = 9;
  c.subject_global_id = 77;
  c.score = 1234;
  c.owner = 5;
  c.evalue = 2e-9;
  c.output_size = 1536;
  c.qstart = 10;
  c.sstart32 = 20;
  mpisim::Encoder enc;
  enc.put_obj(c);
  // The lean record must stay small and fixed-size — this is the paper's
  // message-volume reduction.
  EXPECT_EQ(enc.size(), 48u);
  mpisim::Decoder dec(enc.bytes());
  const CandidateMeta back = dec.get_obj<CandidateMeta>();
  EXPECT_EQ(back.local_index, c.local_index);
  EXPECT_EQ(back.output_size, c.output_size);
  EXPECT_EQ(back.owner, c.owner);
  EXPECT_DOUBLE_EQ(back.evalue, c.evalue);
}

TEST(Serialize, CandidateIsMuchSmallerThanHsp) {
  Hsp h = identity_hsp(400);  // realistic alignment length
  mpisim::Encoder full;
  full.put_obj(h);
  CandidateMeta c;
  mpisim::Encoder lean;
  lean.put_obj(c);
  EXPECT_GT(full.size(), 5 * lean.size());
}

TEST(Serialize, CandidateOrderMatchesHspOrder) {
  auto meta_of = [](const Hsp& h) {
    CandidateMeta c;
    c.score = h.score;
    c.evalue = h.evalue;
    c.subject_global_id = h.subject_global_id;
    c.qstart = h.qstart;
    c.sstart32 = static_cast<std::uint32_t>(h.sstart);
    return c;
  };
  Hsp a = identity_hsp(10);
  Hsp b = identity_hsp(10);
  b.score = a.score - 1;
  EXPECT_EQ(Hsp::better(a, b), CandidateMeta::better(meta_of(a), meta_of(b)));
  b.score = a.score;
  b.subject_global_id = a.subject_global_id + 1;
  EXPECT_EQ(Hsp::better(a, b), CandidateMeta::better(meta_of(a), meta_of(b)));
}

}  // namespace
}  // namespace pioblast::blast
