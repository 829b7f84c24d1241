// Engine-level tests: query contexts, fragment search, self-hits, homolog
// detection, hit-list caps, E-value filtering, DNA mode, and the keystone
// property — search results are invariant to database partitioning.
#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "blast/engine.h"
#include "pario/vfs.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "util/error.h"

namespace pioblast::blast {
namespace {

using seqdb::SeqType;

/// Formats a database in-memory and returns one whole-database fragment.
seqdb::LoadedFragment whole_db(const std::vector<seqdb::FastaRecord>& records,
                               SeqType type = SeqType::kProtein) {
  pario::VirtualFS fs;
  seqdb::format_db(fs, records, "db", type, "t");
  return seqdb::load_volumes(fs, "db", type, 0);
}

GlobalDbStats stats_of(const std::vector<seqdb::FastaRecord>& records) {
  GlobalDbStats s;
  s.num_seqs = records.size();
  for (const auto& r : records) s.total_residues += r.sequence.size();
  return s;
}

/// Searches one query with the kernel, on a one-query prepared batch.
FragmentSearchResult search_one(const QueryContext& ctx,
                                const seqdb::LoadedFragment& frag) {
  return search_fragment_batch(PreparedBatch({ctx}), frag)[0];
}

std::vector<seqdb::FastaRecord> family_db(std::uint64_t residues,
                                          std::uint64_t seed,
                                          SeqType type = SeqType::kProtein) {
  seqdb::GeneratorConfig cfg;
  cfg.type = type;
  cfg.target_residues = residues;
  cfg.seed = seed;
  cfg.family_fraction = 0.5;
  return seqdb::generate_database(cfg);
}

TEST(QueryContext, CutoffScoreReflectsEvalue) {
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  const GlobalDbStats db{4'000'000, 12'000};
  const auto q = seqdb::encode_sequence(SeqType::kProtein,
                                        std::string(300, 'A'));
  QueryContext strict_ctx(0, q, params, m, db);
  auto loose = params;
  loose.evalue_cutoff = 1e6;
  QueryContext loose_ctx(0, q, loose, m, db);
  EXPECT_GT(strict_ctx.cutoff_score(), loose_ctx.cutoff_score());
}

TEST(QueryContext, RejectsNonPositiveOrNonFiniteEvalue) {
  const auto m = ScoringMatrix::blosum62();
  const GlobalDbStats db{4'000'000, 12'000};
  const auto q = seqdb::encode_sequence(SeqType::kProtein,
                                        std::string(300, 'A'));
  for (const double e : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    auto params = SearchParams::blastp_defaults();
    params.evalue_cutoff = e;
    EXPECT_THROW(QueryContext(0, q, params, m, db), util::ContractViolation)
        << e;
  }
}

TEST(QueryContext, TinyEvalueClampsCutoffScore) {
  // K m' n' / 1e-310 overflows to +inf; the cutoff clamps to int range.
  const auto m = ScoringMatrix::blosum62();
  const GlobalDbStats db{4'000'000, 12'000};
  const auto q = seqdb::encode_sequence(SeqType::kProtein,
                                        std::string(300, 'A'));
  auto params = SearchParams::blastp_defaults();
  params.evalue_cutoff = 1e-310;
  EXPECT_EQ(QueryContext(0, q, params, m, db).cutoff_score(),
            std::numeric_limits<int>::max());
}

TEST(Engine, QueryFindsItselfWithMaximalScore) {
  const auto db = family_db(60'000, 11);
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();

  // Query = database sequence #5, so a full-length self-hit must exist.
  const auto query =
      seqdb::encode_sequence(SeqType::kProtein, db[5].sequence);
  QueryContext ctx(0, query, params, m, gstats);
  const auto result = search_one(ctx, frag);
  ASSERT_FALSE(result.hsps.empty());
  const Hsp& top = result.hsps.front();
  EXPECT_EQ(top.subject_global_id, 5u);
  EXPECT_EQ(top.qstart, 0u);
  EXPECT_EQ(top.qend, query.size());
  EXPECT_EQ(top.identities, top.align_len);
  EXPECT_EQ(top.gaps, 0u);
  // Self E-value of a few-hundred-residue identity is essentially zero.
  EXPECT_LT(top.evalue, 1e-50);
}

TEST(Engine, HomologsAreFound) {
  // Build a tiny database with one explicit homolog pair.
  std::vector<seqdb::FastaRecord> db = family_db(40'000, 13);
  // Count how many queries sampled from large families hit >1 subject.
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  int multi_hit_queries = 0;
  for (std::size_t i = 0; i < db.size(); i += 7) {
    const auto query =
        seqdb::encode_sequence(SeqType::kProtein, db[i].sequence);
    QueryContext ctx(0, query, params, m, gstats);
    if (search_one(ctx, frag).hsps.size() > 1) ++multi_hit_queries;
  }
  EXPECT_GT(multi_hit_queries, 3);
}

TEST(Engine, CountersArePopulated) {
  const auto db = family_db(30'000, 17);
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  const auto query = seqdb::encode_sequence(SeqType::kProtein, db[0].sequence);
  QueryContext ctx(0, query, SearchParams::blastp_defaults(), m, gstats);
  const auto result = search_one(ctx, frag);
  EXPECT_EQ(result.counters.db_residues_scanned, gstats.total_residues);
  EXPECT_GT(result.counters.seed_hits, 0u);
  EXPECT_GT(result.counters.two_hit_triggers, 0u);
  EXPECT_GT(result.counters.ungapped_cells, 0u);
  EXPECT_GT(result.counters.gapped_cells, 0u);
  EXPECT_EQ(result.counters.hsps_found, result.hsps.size());
}

TEST(Engine, HitlistCapIsEnforced) {
  const auto db = family_db(80'000, 19);
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  auto params = SearchParams::blastp_defaults();
  params.hitlist_size = 2;
  // A query from a big family would exceed 2 hits without the cap.
  int capped_seen = 0;
  for (std::size_t i = 0; i < db.size(); i += 5) {
    const auto query =
        seqdb::encode_sequence(SeqType::kProtein, db[i].sequence);
    QueryContext ctx(0, query, params, m, gstats);
    const auto result = search_one(ctx, frag);
    EXPECT_LE(result.hsps.size(), 2u);
    if (result.hsps.size() == 2) ++capped_seen;
  }
  EXPECT_GT(capped_seen, 0);
}

TEST(Engine, ResultsSortedByRank) {
  const auto db = family_db(50'000, 23);
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  const auto query = seqdb::encode_sequence(SeqType::kProtein, db[3].sequence);
  QueryContext ctx(0, query, SearchParams::blastp_defaults(), m, gstats);
  const auto result = search_one(ctx, frag);
  for (std::size_t i = 1; i < result.hsps.size(); ++i) {
    EXPECT_FALSE(Hsp::better(result.hsps[i], result.hsps[i - 1]));
  }
}

TEST(Engine, EvalueCutoffFilters) {
  const auto db = family_db(50'000, 29);
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  auto params = SearchParams::blastp_defaults();
  params.evalue_cutoff = 1e-30;  // keep only near-identical alignments
  const auto query = seqdb::encode_sequence(SeqType::kProtein, db[8].sequence);
  QueryContext ctx(0, query, params, m, gstats);
  for (const Hsp& h : search_one(ctx, frag).hsps) {
    EXPECT_LE(h.evalue, 1e-30);
  }
}

TEST(Engine, DnaSelfHit) {
  const auto db = family_db(40'000, 31, SeqType::kNucleotide);
  const auto frag = whole_db(db, SeqType::kNucleotide);
  const auto gstats = stats_of(db);
  auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  const auto query =
      seqdb::encode_sequence(SeqType::kNucleotide, db[2].sequence);
  QueryContext ctx(0, query, params, m, gstats);
  const auto result = search_one(ctx, frag);
  ASSERT_FALSE(result.hsps.empty());
  EXPECT_EQ(result.hsps.front().subject_global_id, 2u);
  EXPECT_EQ(result.hsps.front().identities, result.hsps.front().align_len);
}

/// The keystone invariant (paper §3.1): searching F fragments and merging
/// must produce exactly the same global hit set as searching the whole
/// database, for any F — E-values use global statistics and the merge
/// order is a strict total order.
class PartitionInvariance : public ::testing::TestWithParam<int> {};

TEST_P(PartitionInvariance, MergedFragmentsEqualWholeDatabase) {
  const int nfragments = GetParam();
  const auto db = family_db(60'000, 37);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  auto params = SearchParams::blastp_defaults();
  params.hitlist_size = 20;

  pario::VirtualFS fs;
  const auto fmt = seqdb::format_db(fs, db, "db", SeqType::kProtein, "t");
  const seqdb::VolumeNames names = seqdb::volume_names("db", SeqType::kProtein);

  for (std::size_t qi = 0; qi < db.size(); qi += 17) {
    const auto query =
        seqdb::encode_sequence(SeqType::kProtein, db[qi].sequence);
    QueryContext ctx(0, query, params, m, gstats);

    // Whole-database reference.
    const auto whole = search_one(ctx, whole_db(db));

    // Fragmented search + merge.
    std::vector<Hsp> merged;
    for (const auto& fr : seqdb::virtual_partition(fmt.index, nfragments)) {
      auto slice = [&](const pario::Region& r, const std::string& file) {
        return fs.pread(file, r.offset, r.length);
      };
      seqdb::DbIndex hdr;
      hdr.type = SeqType::kProtein;
      const auto frag = seqdb::fragment_from_slices(
          hdr, fr, slice(fr.pin_seq_off, names.index),
          slice(fr.pin_hdr_off, names.index), slice(fr.psq, names.sequence),
          slice(fr.phr, names.header));
      auto part = search_one(ctx, frag);
      merged.insert(merged.end(), part.hsps.begin(), part.hsps.end());
    }
    std::sort(merged.begin(), merged.end(), Hsp::better);
    if (merged.size() > static_cast<std::size_t>(params.hitlist_size))
      merged.resize(static_cast<std::size_t>(params.hitlist_size));

    ASSERT_EQ(merged.size(), whole.hsps.size()) << "query " << qi;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].subject_global_id, whole.hsps[i].subject_global_id);
      EXPECT_EQ(merged[i].score, whole.hsps[i].score);
      EXPECT_EQ(merged[i].qstart, whole.hsps[i].qstart);
      EXPECT_EQ(merged[i].qend, whole.hsps[i].qend);
      EXPECT_EQ(merged[i].sstart, whole.hsps[i].sstart);
      EXPECT_DOUBLE_EQ(merged[i].evalue, whole.hsps[i].evalue);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FragmentCounts, PartitionInvariance,
                         ::testing::Values(2, 3, 5, 8, 13));

TEST(Engine, DeterministicAcrossRepeatedSearches) {
  const auto db = family_db(40'000, 41);
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  const auto query = seqdb::encode_sequence(SeqType::kProtein, db[1].sequence);
  QueryContext ctx(0, query, SearchParams::blastp_defaults(), m, gstats);
  const auto a = search_one(ctx, frag);
  const auto b = search_one(ctx, frag);
  ASSERT_EQ(a.hsps.size(), b.hsps.size());
  for (std::size_t i = 0; i < a.hsps.size(); ++i) {
    EXPECT_EQ(a.hsps[i].score, b.hsps[i].score);
    EXPECT_EQ(a.hsps[i].subject_global_id, b.hsps[i].subject_global_id);
  }
  EXPECT_EQ(a.counters.seed_hits, b.counters.seed_hits);
  EXPECT_EQ(a.counters.gapped_cells, b.counters.gapped_cells);
}

}  // namespace
}  // namespace pioblast::blast
