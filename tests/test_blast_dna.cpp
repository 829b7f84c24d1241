// Deeper nucleotide-mode (blastn-style) engine coverage: exact-word
// seeding, N handling, single-hit triggering, scoring, and partition
// invariance for DNA databases.
#include <gtest/gtest.h>

#include "blast/engine.h"
#include "pario/vfs.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "util/rng.h"

namespace pioblast::blast {
namespace {

using seqdb::SeqType;

std::vector<std::uint8_t> nt(const std::string& s) {
  return seqdb::encode_sequence(SeqType::kNucleotide, s);
}

seqdb::LoadedFragment frag_of(const std::vector<seqdb::FastaRecord>& records) {
  pario::VirtualFS fs;
  seqdb::format_db(fs, records, "nt", SeqType::kNucleotide, "t");
  return seqdb::load_volumes(fs, "nt", SeqType::kNucleotide, 0);
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

/// A deterministic pseudo-random DNA string (no fixed repeats).
std::string random_dna(std::uint64_t seed, std::size_t len) {
  util::Rng rng(seed);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) s.push_back("ACGT"[rng.below(4)]);
  return s;
}

TEST(BlastnEngine, FindsEmbeddedExactMatch) {
  // A 60-base query planted inside a longer subject.
  const std::string core = random_dna(1, 60);
  const std::string subject =
      random_dna(2, 100) + core + random_dna(3, 100);
  std::vector<seqdb::FastaRecord> db{{"s0", "", subject},
                                     {"s1", "", random_dna(4, 300)}};
  const auto frag = frag_of(db);
  const auto gstats = stats_of(db);
  auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  QueryContext ctx(0, nt(core), params, m, gstats);
  const auto result = search_one(ctx, frag);
  ASSERT_FALSE(result.hsps.empty());
  const Hsp& top = result.hsps.front();
  EXPECT_EQ(top.subject_global_id, 0u);
  EXPECT_EQ(top.qstart, 0u);
  EXPECT_EQ(top.qend, 60u);
  EXPECT_EQ(top.sstart, 100u);
  EXPECT_EQ(top.send, 160u);
  EXPECT_EQ(top.identities, 60u);
  EXPECT_EQ(top.score, 60);  // +1 per match
}

TEST(BlastnEngine, NoSeedsBelowWordSize) {
  // A 10-base exact match cannot seed an 11-mer word scan.
  const std::string core = random_dna(5, 10);
  std::vector<seqdb::FastaRecord> db{
      {"s0", "", random_dna(6, 150) + core + random_dna(7, 150)}};
  const auto frag = frag_of(db);
  const auto gstats = stats_of(db);
  auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  QueryContext ctx(0, nt(core), params, m, gstats);
  EXPECT_TRUE(search_one(ctx, frag).hsps.empty());
}

TEST(BlastnEngine, NsBlockSeedingButNotExtension) {
  // The query matches the subject except one N in the middle of the
  // subject's copy; seeds exist on both sides and extension crosses the N
  // as a mismatch.
  std::string core = random_dna(8, 60);
  std::string subject_core = core;
  subject_core[30] = 'N';
  std::vector<seqdb::FastaRecord> db{
      {"s0", "", random_dna(9, 80) + subject_core + random_dna(10, 80)}};
  const auto frag = frag_of(db);
  const auto gstats = stats_of(db);
  auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  QueryContext ctx(0, nt(core), params, m, gstats);
  const auto result = search_one(ctx, frag);
  ASSERT_FALSE(result.hsps.empty());
  const Hsp& top = result.hsps.front();
  EXPECT_GE(top.identities, 59u);
  EXPECT_EQ(top.align_len - top.identities - top.gaps, 1u);  // one mismatch
}

TEST(BlastnEngine, MismatchPenaltyAppliedInScore) {
  std::string core = random_dna(11, 50);
  std::string mutated = core;
  mutated[25] = mutated[25] == 'A' ? 'C' : 'A';
  std::vector<seqdb::FastaRecord> db{
      {"s0", "", random_dna(12, 60) + mutated + random_dna(13, 60)}};
  const auto frag = frag_of(db);
  const auto gstats = stats_of(db);
  auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  QueryContext ctx(0, nt(core), params, m, gstats);
  const auto result = search_one(ctx, frag);
  ASSERT_FALSE(result.hsps.empty());
  // 49 matches (+1 each) and 1 mismatch (-3): full-length alignment scores
  // 46; a truncated 25-base one-sided alignment scores 25 or 24.
  EXPECT_EQ(result.hsps.front().score, 49 - 3);
}

TEST(BlastnEngine, GapBridgedByGappedExtension) {
  std::string core = random_dna(14, 80);
  std::string subject_core = core;
  subject_core.erase(40, 3);  // 3-base deletion
  std::vector<seqdb::FastaRecord> db{
      {"s0", "", random_dna(15, 50) + subject_core + random_dna(16, 50)}};
  const auto frag = frag_of(db);
  const auto gstats = stats_of(db);
  auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  QueryContext ctx(0, nt(core), params, m, gstats);
  const auto result = search_one(ctx, frag);
  ASSERT_FALSE(result.hsps.empty());
  const Hsp& top = result.hsps.front();
  EXPECT_EQ(top.gaps, 3u);
  EXPECT_EQ(top.qend - top.qstart, 80u);  // full query covered
}

class DnaPartitionInvariance : public ::testing::TestWithParam<int> {};

TEST_P(DnaPartitionInvariance, MergedEqualsWhole) {
  seqdb::GeneratorConfig cfg;
  cfg.type = SeqType::kNucleotide;
  cfg.target_residues = 150'000;
  cfg.seed = 17;
  cfg.family_fraction = 0.5;
  const auto db = seqdb::generate_database(cfg);
  const auto gstats = stats_of(db);
  auto params = SearchParams::blastn_defaults();
  params.hitlist_size = 15;
  const auto m = make_matrix(params);

  pario::VirtualFS fs;
  const auto fmt = seqdb::format_db(fs, db, "nt", SeqType::kNucleotide, "t");
  const auto names = seqdb::volume_names("nt", SeqType::kNucleotide);
  const auto query = nt(db[4].sequence);
  QueryContext ctx(0, query, params, m, gstats);
  const auto whole = search_one(ctx, frag_of(db));

  std::vector<Hsp> merged;
  for (const auto& fr : seqdb::virtual_partition(fmt.index, GetParam())) {
    seqdb::DbIndex hdr;
    hdr.type = SeqType::kNucleotide;
    const auto frag = seqdb::fragment_from_slices(
        hdr, fr,
        fs.pread(names.index, fr.pin_seq_off.offset, fr.pin_seq_off.length),
        fs.pread(names.index, fr.pin_hdr_off.offset, fr.pin_hdr_off.length),
        fs.pread(names.sequence, fr.psq.offset, fr.psq.length),
        fs.pread(names.header, fr.phr.offset, fr.phr.length));
    auto part = search_one(ctx, frag);
    merged.insert(merged.end(), part.hsps.begin(), part.hsps.end());
  }
  std::sort(merged.begin(), merged.end(), Hsp::better);
  if (merged.size() > static_cast<std::size_t>(params.hitlist_size))
    merged.resize(static_cast<std::size_t>(params.hitlist_size));

  ASSERT_EQ(merged.size(), whole.hsps.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].subject_global_id, whole.hsps[i].subject_global_id);
    EXPECT_EQ(merged[i].score, whole.hsps[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(FragmentCounts, DnaPartitionInvariance,
                         ::testing::Values(2, 5, 9));

}  // namespace
}  // namespace pioblast::blast
