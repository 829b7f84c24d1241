// Tests for the sequence-database toolkit: alphabets, FASTA, formatdb
// volume layout, index serialization, partitioning (physical and virtual),
// the synthetic generator, and query sampling.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "pario/vfs.h"
#include "seqdb/alphabet.h"
#include "seqdb/fasta.h"
#include "seqdb/formatdb.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "util/error.h"

namespace pioblast::seqdb {
namespace {

// ---------- alphabet ---------------------------------------------------

TEST(Alphabet, ProteinRoundTrip) {
  for (char c : kProteinLetters) {
    const auto code = encode_residue(SeqType::kProtein, c);
    EXPECT_EQ(decode_residue(SeqType::kProtein, code), c);
  }
}

TEST(Alphabet, DnaRoundTrip) {
  for (char c : kDnaLetters) {
    const auto code = encode_residue(SeqType::kNucleotide, c);
    EXPECT_EQ(decode_residue(SeqType::kNucleotide, code), c);
  }
}

TEST(Alphabet, LowercaseEncodesLikeUppercase) {
  EXPECT_EQ(encode_residue(SeqType::kProtein, 'a'),
            encode_residue(SeqType::kProtein, 'A'));
  EXPECT_EQ(encode_residue(SeqType::kNucleotide, 'g'),
            encode_residue(SeqType::kNucleotide, 'G'));
}

TEST(Alphabet, UnknownMapsToWildcard) {
  EXPECT_EQ(decode_residue(SeqType::kProtein,
                           encode_residue(SeqType::kProtein, 'J')),
            'X');
  EXPECT_EQ(decode_residue(SeqType::kNucleotide,
                           encode_residue(SeqType::kNucleotide, 'R')),
            'N');
}

TEST(Alphabet, EveryByteEncodesToItsLetterOrTheWildcard) {
  // All 256 byte values, through both entry points: an upper- or
  // lower-case letter of the alphabet (and '*' for protein) to its code,
  // anything else to the wildcard.
  std::string bytes;
  for (int b = 0; b < 256; ++b) bytes.push_back(static_cast<char>(b));
  for (const SeqType type : {SeqType::kProtein, SeqType::kNucleotide}) {
    const std::string_view letters =
        type == SeqType::kProtein ? kProteinLetters : kDnaLetters;
    const std::uint8_t wildcard = type == SeqType::kProtein ? 22 : 4;
    const auto codes = encode_sequence(type, bytes);
    ASSERT_EQ(codes.size(), 256u);
    for (int b = 0; b < 256; ++b) {
      const char c = static_cast<char>(b);
      const char upper = b >= 'a' && b <= 'z' ? static_cast<char>(b - 'a' + 'A') : c;
      const std::size_t at = letters.find(upper);
      const std::uint8_t want =
          at == std::string_view::npos ? wildcard : static_cast<std::uint8_t>(at);
      EXPECT_EQ(encode_residue(type, c), want) << "byte " << b;
      EXPECT_EQ(codes[static_cast<std::size_t>(b)], want) << "byte " << b;
    }
  }
  EXPECT_EQ(kProteinLetters[22], 'X');
  EXPECT_EQ(kDnaLetters[4], 'N');
}

TEST(Alphabet, SequenceRoundTrip) {
  const std::string seq = "MKVLAW";
  const auto codes = encode_sequence(SeqType::kProtein, seq);
  EXPECT_EQ(decode_sequence(SeqType::kProtein, codes), seq);
}

TEST(Alphabet, SizesMatchLetterSets) {
  EXPECT_EQ(alphabet_size(SeqType::kProtein),
            static_cast<int>(kProteinLetters.size()));
  EXPECT_EQ(alphabet_size(SeqType::kNucleotide),
            static_cast<int>(kDnaLetters.size()));
}

TEST(Alphabet, ValidLetterChecks) {
  EXPECT_TRUE(is_valid_letter(SeqType::kProtein, 'w'));
  EXPECT_FALSE(is_valid_letter(SeqType::kProtein, '1'));
  EXPECT_TRUE(is_valid_letter(SeqType::kNucleotide, 't'));
  EXPECT_FALSE(is_valid_letter(SeqType::kNucleotide, 'Q'));
}

// ---------- FASTA -------------------------------------------------------

TEST(Fasta, ParsesMultipleRecords) {
  const auto recs = parse_fasta(">a desc one\nMKV\nLAW\n>b\nACDE\n");
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].id, "a");
  EXPECT_EQ(recs[0].description, "desc one");
  EXPECT_EQ(recs[0].sequence, "MKVLAW");
  EXPECT_EQ(recs[1].id, "b");
  EXPECT_TRUE(recs[1].description.empty());
}

TEST(Fasta, ToleratesCrlfAndBlankLines) {
  const auto recs = parse_fasta(">a\r\nMKV\r\n\r\nLAW\r\n");
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].sequence, "MKVLAW");
}

TEST(Fasta, RejectsDataBeforeDefline) {
  EXPECT_THROW(parse_fasta("MKV\n>a\nLAW\n"), util::RuntimeError);
}

TEST(Fasta, RejectsEmptyRecord) {
  EXPECT_THROW(parse_fasta(">a\n>b\nMKV\n"), util::RuntimeError);
}

TEST(Fasta, RejectsEmptyDefline) {
  EXPECT_THROW(parse_fasta(">\nMKV\n"), util::RuntimeError);
}

TEST(Fasta, WriteParseRoundTrip) {
  std::vector<FastaRecord> recs{{"id1", "a description", std::string(150, 'M')},
                                {"id2", "", "ACDEFGHIK"}};
  const auto parsed = parse_fasta(write_fasta(recs, 60));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, recs[0].id);
  EXPECT_EQ(parsed[0].description, recs[0].description);
  EXPECT_EQ(parsed[0].sequence, recs[0].sequence);
  EXPECT_EQ(parsed[1].sequence, recs[1].sequence);
}

TEST(Fasta, WrapWidthRespected) {
  std::vector<FastaRecord> recs{{"x", "", std::string(100, 'A')}};
  const std::string text = write_fasta(recs, 25);
  std::size_t longest = 0, current = 0;
  for (char c : text) {
    if (c == '\n') {
      longest = std::max(longest, current);
      current = 0;
    } else {
      ++current;
    }
  }
  EXPECT_LE(longest, 25u);
}

// ---------- formatdb ------------------------------------------------------

std::vector<FastaRecord> tiny_db() {
  return {{"s0", "first", "MKVLAWGG"},
          {"s1", "second", "ACDEFGHIKLMNPQRSTVWY"},
          {"s2", "", "WWWW"}};
}

TEST(FormatDb, WritesThreeVolumes) {
  pario::VirtualFS fs;
  const auto result =
      format_db(fs, tiny_db(), "db", SeqType::kProtein, "test db");
  EXPECT_TRUE(fs.exists("db.pin"));
  EXPECT_TRUE(fs.exists("db.psq"));
  EXPECT_TRUE(fs.exists("db.phr"));
  EXPECT_EQ(result.index.num_seqs, 3u);
  EXPECT_EQ(result.index.total_residues, 8u + 20u + 4u);
  EXPECT_EQ(result.index.max_seq_len, 20u);
}

TEST(FormatDb, NucleotideVolumesUseNinNames) {
  pario::VirtualFS fs;
  std::vector<FastaRecord> db{{"n0", "", "ACGTACGTACGTAGG"}};
  format_db(fs, db, "nt", SeqType::kNucleotide, "nt db");
  EXPECT_TRUE(fs.exists("nt.nin"));
  EXPECT_TRUE(fs.exists("nt.nsq"));
  EXPECT_TRUE(fs.exists("nt.nhr"));
}

TEST(FormatDb, IndexSerializationRoundTrip) {
  pario::VirtualFS fs;
  const auto result = format_db(fs, tiny_db(), "db", SeqType::kProtein, "title!");
  const auto idx = DbIndex::deserialize(fs.read_all("db.pin"));
  EXPECT_EQ(idx.num_seqs, result.index.num_seqs);
  EXPECT_EQ(idx.title, "title!");
  EXPECT_EQ(idx.seq_offsets, result.index.seq_offsets);
  EXPECT_EQ(idx.hdr_offsets, result.index.hdr_offsets);
}

TEST(FormatDb, HeaderOnlyDeserialization) {
  pario::VirtualFS fs;
  format_db(fs, tiny_db(), "db", SeqType::kProtein, "hdr");
  const auto pin = fs.read_all("db.pin");
  const auto hdr = DbIndex::deserialize_header(
      std::span(pin.data(), DbIndex::kHeaderBytes));
  EXPECT_EQ(hdr.num_seqs, 3u);
  EXPECT_EQ(hdr.title, "hdr");
  EXPECT_TRUE(hdr.seq_offsets.empty());
}

TEST(FormatDb, OffsetPositionsMatchSerializedLayout) {
  pario::VirtualFS fs;
  const auto result = format_db(fs, tiny_db(), "db", SeqType::kProtein, "t");
  const auto pin = fs.read_all("db.pin");
  const auto n = result.index.num_seqs;
  for (std::uint64_t i = 0; i <= n; ++i) {
    std::uint64_t seq_off, hdr_off;
    std::memcpy(&seq_off, pin.data() + DbIndex::seq_offsets_pos(i), 8);
    std::memcpy(&hdr_off, pin.data() + DbIndex::hdr_offsets_pos(n, i), 8);
    EXPECT_EQ(seq_off, result.index.seq_offsets[i]);
    EXPECT_EQ(hdr_off, result.index.hdr_offsets[i]);
  }
}

TEST(FormatDb, CorruptIndexRejected) {
  std::vector<std::uint8_t> junk(200, 0xAB);
  EXPECT_THROW(DbIndex::deserialize(junk), util::ContractViolation);
  EXPECT_THROW(DbIndex::deserialize_header(std::span(junk.data(), 10)),
               util::ContractViolation);
}

TEST(FormatDb, EmptyDatabaseRejected) {
  pario::VirtualFS fs;
  EXPECT_THROW(format_db(fs, {}, "db", SeqType::kProtein, "t"),
               util::ContractViolation);
}

TEST(FormatDb, FromFileFlow) {
  pario::VirtualFS fs;
  const std::string fasta = write_fasta(tiny_db());
  fs.write_all("raw.fa",
               std::span(reinterpret_cast<const std::uint8_t*>(fasta.data()),
                         fasta.size()));
  const auto result =
      format_db_from_file(fs, "raw.fa", "db", SeqType::kProtein, "t");
  EXPECT_EQ(result.raw_bytes, fasta.size());
  EXPECT_EQ(result.index.num_seqs, 3u);
}

TEST(LoadedFragment, ExposesSequencesAndDeflines) {
  pario::VirtualFS fs;
  format_db(fs, tiny_db(), "db", SeqType::kProtein, "t");
  const auto frag = load_volumes(fs, "db", SeqType::kProtein, 100);
  EXPECT_EQ(frag.num_seqs(), 3u);
  EXPECT_EQ(frag.global_id(1), 101u);
  EXPECT_EQ(decode_sequence(SeqType::kProtein,
                            {frag.sequence(0).begin(), frag.sequence(0).end()}),
            "MKVLAWGG");
  EXPECT_EQ(frag.defline(0), "s0 first");
  EXPECT_EQ(frag.defline(2), "s2");
  EXPECT_EQ(frag.residues(), 32u);
}

// ---------- partitioning -----------------------------------------------------

std::vector<FastaRecord> sized_db(int n, int len_step) {
  std::vector<FastaRecord> db;
  for (int i = 0; i < n; ++i) {
    db.push_back({std::string("s") + std::to_string(i), "",
                  std::string(static_cast<std::size_t>(20 + (i % 7) * len_step),
                              'A')});
  }
  return db;
}

TEST(Partition, BalancedSplitCoversAllSequencesOnce) {
  pario::VirtualFS fs;
  const auto result =
      format_db(fs, sized_db(100, 30), "db", SeqType::kProtein, "t");
  for (int f : {1, 2, 3, 7, 31, 100}) {
    const auto ranges = balanced_split(result.index, f);
    ASSERT_EQ(ranges.size(), static_cast<std::size_t>(f));
    std::uint64_t next = 0;
    for (const auto& r : ranges) {
      EXPECT_EQ(r.first, next);
      EXPECT_GE(r.count, 1u);
      next += r.count;
    }
    EXPECT_EQ(next, result.index.num_seqs);
  }
}

TEST(Partition, BalancedSplitEvensOutResidues) {
  pario::VirtualFS fs;
  const auto result =
      format_db(fs, sized_db(500, 40), "db", SeqType::kProtein, "t");
  const int f = 10;
  const auto ranges = balanced_split(result.index, f);
  const double target =
      static_cast<double>(result.index.total_residues) / f;
  for (const auto& r : ranges) {
    const std::uint64_t residues = result.index.seq_offsets[r.first + r.count] -
                                   result.index.seq_offsets[r.first];
    EXPECT_NEAR(static_cast<double>(residues), target, target * 0.25);
  }
}

TEST(Partition, TooManyFragmentsRejected) {
  pario::VirtualFS fs;
  const auto result = format_db(fs, tiny_db(), "db", SeqType::kProtein, "t");
  EXPECT_THROW(balanced_split(result.index, 4), util::ContractViolation);
  EXPECT_THROW(balanced_split(result.index, 0), util::ContractViolation);
}

TEST(Partition, VirtualRangesMatchIndexByteLayout) {
  pario::VirtualFS fs;
  const auto result =
      format_db(fs, sized_db(64, 25), "db", SeqType::kProtein, "t");
  const auto frs = virtual_partition(result.index, 5);
  ASSERT_EQ(frs.size(), 5u);
  std::uint64_t psq_cursor = 0;
  for (const auto& fr : frs) {
    EXPECT_EQ(fr.psq.offset, psq_cursor);
    psq_cursor += fr.psq.length;
    EXPECT_EQ(fr.pin_seq_off.length, (fr.seqs.count + 1) * 8);
    EXPECT_EQ(fr.pin_hdr_off.length, (fr.seqs.count + 1) * 8);
  }
  EXPECT_EQ(psq_cursor, result.index.total_residues);
}

TEST(Partition, FragmentFromSlicesEqualsDirectLoad) {
  // Reconstructing a virtual fragment from byte slices must produce the
  // same sequences/deflines as loading a physical fragment would.
  pario::VirtualFS fs;
  const auto db = sized_db(40, 15);
  const auto result = format_db(fs, db, "db", SeqType::kProtein, "t");
  const VolumeNames names = volume_names("db", SeqType::kProtein);
  const auto pin = fs.read_all(names.index);

  for (const auto& fr : virtual_partition(result.index, 7)) {
    auto slice = [&](const pario::Region& r, const std::string& file) {
      return fs.pread(file, r.offset, r.length);
    };
    DbIndex hdr;
    hdr.type = SeqType::kProtein;
    const auto frag = fragment_from_slices(
        hdr, fr, slice(fr.pin_seq_off, names.index),
        slice(fr.pin_hdr_off, names.index), slice(fr.psq, names.sequence),
        slice(fr.phr, names.header));
    EXPECT_EQ(frag.num_seqs(), fr.seqs.count);
    for (std::uint64_t i = 0; i < frag.num_seqs(); ++i) {
      const auto& rec = db[fr.seqs.first + i];
      EXPECT_EQ(decode_sequence(SeqType::kProtein, {frag.sequence(i).begin(),
                                                    frag.sequence(i).end()}),
                rec.sequence);
      EXPECT_EQ(frag.defline(i), rec.defline());
      EXPECT_EQ(frag.global_id(i), fr.seqs.first + i);
    }
  }
}

TEST(Partition, MpiformatdbWritesFragmentVolumes) {
  pario::VirtualFS fs;
  const auto db = sized_db(50, 20);
  const auto parts = mpiformatdb(fs, db, "db", SeqType::kProtein, "t", 6);
  ASSERT_EQ(parts.fragment_bases.size(), 6u);
  std::uint64_t total_seqs = 0;
  for (std::size_t f = 0; f < parts.fragment_bases.size(); ++f) {
    const auto frag = load_volumes(fs, parts.fragment_bases[f],
                                   SeqType::kProtein, parts.ranges[f].first);
    total_seqs += frag.num_seqs();
    EXPECT_EQ(frag.num_seqs(), parts.ranges[f].count);
  }
  EXPECT_EQ(total_seqs, db.size());
  EXPECT_GT(parts.bytes_written, 0u);
}

// ---------- generator ---------------------------------------------------------

TEST(Generator, DeterministicForSameSeed) {
  GeneratorConfig cfg;
  cfg.target_residues = 50000;
  const auto a = generate_database(cfg);
  const auto b = generate_database(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].sequence, b[i].sequence);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorConfig cfg;
  cfg.target_residues = 20000;
  auto a = generate_database(cfg);
  cfg.seed ^= 0xDEADBEEF;
  auto b = generate_database(cfg);
  EXPECT_NE(a[0].sequence, b[0].sequence);
}

TEST(Generator, ReachesTargetResidues) {
  GeneratorConfig cfg;
  cfg.target_residues = 100000;
  const auto db = generate_database(cfg);
  std::uint64_t total = 0;
  for (const auto& r : db) total += r.sequence.size();
  EXPECT_GE(total, cfg.target_residues);
  EXPECT_LT(total, cfg.target_residues + cfg.max_len + 16);
}

TEST(Generator, LengthsRespectBounds) {
  GeneratorConfig cfg;
  cfg.target_residues = 100000;
  cfg.min_len = 50;
  cfg.max_len = 700;
  cfg.family_fraction = 0.0;  // homolog indels may drift outside bounds
  for (const auto& r : generate_database(cfg)) {
    EXPECT_GE(r.sequence.size(), 50u);
    EXPECT_LE(r.sequence.size(), 700u);
  }
}

TEST(Generator, ProducesValidResidues) {
  GeneratorConfig cfg;
  cfg.target_residues = 30000;
  for (const auto& r : generate_database(cfg)) {
    for (char c : r.sequence) EXPECT_TRUE(is_valid_letter(SeqType::kProtein, c));
  }
}

TEST(Generator, DnaModeProducesDna) {
  GeneratorConfig cfg;
  cfg.type = SeqType::kNucleotide;
  cfg.target_residues = 30000;
  for (const auto& r : generate_database(cfg)) {
    for (char c : r.sequence)
      EXPECT_TRUE(is_valid_letter(SeqType::kNucleotide, c));
  }
}

TEST(Generator, FamiliesCreateHomologs) {
  GeneratorConfig cfg;
  cfg.target_residues = 100000;
  cfg.family_fraction = 0.5;
  int homologs = 0;
  for (const auto& r : generate_database(cfg)) {
    if (r.description.rfind("homolog of", 0) == 0) ++homologs;
  }
  EXPECT_GT(homologs, 10);
}

TEST(Generator, UniqueIds) {
  GeneratorConfig cfg;
  cfg.target_residues = 50000;
  std::set<std::string> ids;
  for (const auto& r : generate_database(cfg)) ids.insert(r.id);
  EXPECT_EQ(ids.size(), generate_database(cfg).size());
}

// ---------- query sampling ------------------------------------------------------

TEST(QuerySampling, ReachesTargetBytes) {
  GeneratorConfig cfg;
  cfg.target_residues = 100000;
  const auto db = generate_database(cfg);
  const auto queries = sample_queries(db, 10000, 1);
  std::uint64_t bytes = 0;
  for (const auto& q : queries) bytes += q.sequence.size();
  EXPECT_GE(bytes + 64 * queries.size(), 10000u);
}

TEST(QuerySampling, DeterministicAndSeedSensitive) {
  GeneratorConfig cfg;
  cfg.target_residues = 60000;
  const auto db = generate_database(cfg);
  const auto a = sample_queries(db, 5000, 3);
  const auto b = sample_queries(db, 5000, 3);
  const auto c = sample_queries(db, 5000, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].sequence, b[i].sequence);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].sequence != c[i].sequence;
  EXPECT_TRUE(differs);
}

TEST(QuerySampling, SequencesComeFromDatabase) {
  GeneratorConfig cfg;
  cfg.target_residues = 40000;
  const auto db = generate_database(cfg);
  std::set<std::string> db_seqs;
  for (const auto& r : db) db_seqs.insert(r.sequence);
  for (const auto& q : sample_queries(db, 3000, 9)) {
    EXPECT_TRUE(db_seqs.count(q.sequence)) << q.id;
  }
}

TEST(QuerySampling, EmptyDatabaseRejected) {
  EXPECT_THROW(sample_queries({}, 100, 1), util::ContractViolation);
}

}  // namespace
}  // namespace pioblast::seqdb
