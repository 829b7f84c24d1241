// Differential harness for the search kernel (ctest label: kernel).
//
// The kernel (FragmentIndex + merged word tables + SWAR/arena extensions)
// must be bit-identical to the scalar reference oracle in
// tests/support/scalar_oracle.h: same HSP lists (every field, including
// tracebacks and E-value bits), same counters (virtual time). This suite
// checks that claim from four angles:
//
//   * corpus diffs — realistic family databases, protein and DNA;
//   * deterministic fuzz — randomized corpora and parameter sets, with a
//     reproduction dump to stderr on the first mismatch;
//   * properties — the merged blastp and blastn tables vs the oracle's
//     WordIndex under random scoring matrices, thresholds and
//     word sizes, FragmentIndex codes vs scalar packing, extension scores
//     vs traceback replay, and gapped extensions aimed at the DP's
//     three-part rows;
//   * drivers — mpiBLAST and pioBLAST reports byte-identical to each
//     other, fault-free and across a worker crash, and to committed golden
//     fixtures (tests/data/; regenerate with PIOBLAST_UPDATE_GOLDEN=1),
//     with the oracle diffed on every fragment those jobs search.
//
// The oracle's own word index is unit-tested here too, since this is the
// one suite that links it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "blast/engine.h"
#include "blast/extend.h"
#include "blast/fragment_index.h"
#include "blast/query_set.h"
#include "mpiblast/mpiblast.h"
#include "pario/vfs.h"
#include "pioblast/pioblast.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "support/scalar_oracle.h"
#include "support/trace_probe.h"
#include "util/error.h"

namespace pioblast::blast {
namespace {

using seqdb::SeqType;

// ---------- shared helpers -------------------------------------------------

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

/// Bitwise double equality: identical computations must produce identical
/// bits, which EXPECT_DOUBLE_EQ (ULP tolerance) would paper over.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_hsps_identical(const std::vector<Hsp>& a, const std::vector<Hsp>& b,
                           const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Hsp& x = a[i];
    const Hsp& y = b[i];
    EXPECT_EQ(x.query_id, y.query_id) << what << " hsp " << i;
    EXPECT_EQ(x.subject_global_id, y.subject_global_id) << what << " hsp " << i;
    EXPECT_EQ(x.qstart, y.qstart) << what << " hsp " << i;
    EXPECT_EQ(x.qend, y.qend) << what << " hsp " << i;
    EXPECT_EQ(x.sstart, y.sstart) << what << " hsp " << i;
    EXPECT_EQ(x.send, y.send) << what << " hsp " << i;
    EXPECT_EQ(x.score, y.score) << what << " hsp " << i;
    EXPECT_TRUE(same_bits(x.bits, y.bits)) << what << " hsp " << i;
    EXPECT_TRUE(same_bits(x.evalue, y.evalue)) << what << " hsp " << i;
    EXPECT_EQ(x.identities, y.identities) << what << " hsp " << i;
    EXPECT_EQ(x.positives, y.positives) << what << " hsp " << i;
    EXPECT_EQ(x.gaps, y.gaps) << what << " hsp " << i;
    EXPECT_EQ(x.align_len, y.align_len) << what << " hsp " << i;
    EXPECT_EQ(x.ops, y.ops) << what << " hsp " << i;
  }
}

void expect_results_identical(const FragmentSearchResult& scalar,
                              const FragmentSearchResult& fast,
                              const char* what) {
  expect_hsps_identical(scalar.hsps, fast.hsps, what);
  EXPECT_EQ(scalar.counters.db_residues_scanned,
            fast.counters.db_residues_scanned) << what;
  EXPECT_EQ(scalar.counters.seed_hits, fast.counters.seed_hits) << what;
  EXPECT_EQ(scalar.counters.two_hit_triggers, fast.counters.two_hit_triggers)
      << what;
  EXPECT_EQ(scalar.counters.ungapped_cells, fast.counters.ungapped_cells)
      << what;
  EXPECT_EQ(scalar.counters.gapped_cells, fast.counters.gapped_cells) << what;
  EXPECT_EQ(scalar.counters.traceback_cells, fast.counters.traceback_cells)
      << what;
  EXPECT_EQ(scalar.counters.hsps_found, fast.counters.hsps_found) << what;
}

/// One query through the scalar oracle and through the kernel on a
/// one-query prepared batch.
void expect_single_query_identical(QueryContext ctx,
                                   const seqdb::LoadedFragment& frag,
                                   const char* what) {
  std::vector<QueryContext> one;
  one.push_back(std::move(ctx));
  const PreparedBatch batch(std::move(one));
  expect_results_identical(oracle::ScalarBatch(batch).search(0, frag),
                           search_fragment_batch(batch, frag)[0], what);
}

// ---------- corpus differential tests --------------------------------------

TEST(KernelDiff, ProteinFamilyCorpus) {
  const auto db = family_db(60'000, 101);
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  for (std::size_t i = 0; i < db.size(); i += 5) {
    const auto query = seqdb::encode_sequence(SeqType::kProtein, db[i].sequence);
    expect_single_query_identical(QueryContext(0, query, params, m, gstats),
                                  frag, db[i].id.c_str());
  }
}

TEST(KernelDiff, DnaFamilyCorpus) {
  const auto db = family_db(60'000, 103, SeqType::kNucleotide);
  const auto frag = whole_db(db, SeqType::kNucleotide);
  const auto gstats = stats_of(db);
  auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  for (std::size_t i = 0; i < db.size(); i += 5) {
    const auto query =
        seqdb::encode_sequence(SeqType::kNucleotide, db[i].sequence);
    expect_single_query_identical(QueryContext(0, query, params, m, gstats),
                                  frag, db[i].id.c_str());
  }
}

TEST(KernelDiff, BatchMatchesPerQueryScalar) {
  const auto db = family_db(40'000, 107);
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();

  std::vector<QueryContext> contexts;
  for (std::size_t i = 0; i < db.size() && contexts.size() < 8; i += 3) {
    const auto q = seqdb::encode_sequence(SeqType::kProtein, db[i].sequence);
    contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()), q,
                          params, m, gstats);
  }
  // Degenerate members ride in the same batch: shorter than the word size
  // and empty. The oracle returns an empty result with zero counters for
  // them; the batch must too.
  const std::vector<std::uint8_t> tiny{1, 2};
  contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()), tiny,
                        params, m, gstats);
  contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()),
                        std::vector<std::uint8_t>{}, params, m, gstats);
  const PreparedBatch batch(std::move(contexts));

  const auto fast = search_fragment_batch(batch, frag);
  ASSERT_EQ(fast.size(), batch.size());
  const oracle::ScalarBatch scalar(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_results_identical(scalar.search(i, frag), fast[i],
                             ("batch member " + std::to_string(i)).c_str());
  }
}

TEST(KernelDiff, DegenerateProteinInputs) {
  // Subjects include lengths below, at, and just above the word size.
  std::vector<seqdb::FastaRecord> db = {
      {"s0", "", "A"},
      {"s1", "", "AR"},
      {"s2", "", "ARN"},
      {"s3", "", "ARND"},
      {"s4", "", "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"},
      {"s5", "", "MKVLAARNDCQEGHILKMFPSTWYVMKVLAARNDCQEGHILKMFPSTWYV"},
      {"s6", "", std::string(64, 'L')},
  };
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  auto params = SearchParams::blastp_defaults();
  params.evalue_cutoff = 1e9;  // let weak hits through the statistics
  params.cutoff_score_min = 1;

  const std::vector<std::string> queries = {
      "",                      // empty
      "A",                     // below word size
      "AR",                    // below word size
      "ARN",                   // exactly one word
      "XXXXXXXXXXXXXXXXXXXX",  // all wildcard
      "MKVLAARNDCQEGHILKMFPSTWYVMKVLAARNDCQEGHILKMFPSTWYV",  // = subject s5
      std::string(8, 'L'),     // one SWAR block exactly
      std::string(16, 'L'),    // two blocks
      std::string(17, 'L'),    // blocks + tail
  };
  for (const std::string& qs : queries) {
    const auto q = seqdb::encode_sequence(SeqType::kProtein, qs);
    expect_single_query_identical(QueryContext(0, q, params, m, gstats), frag,
                                  qs.empty() ? "<empty>" : qs.c_str());
  }
}

TEST(KernelDiff, DegenerateDnaInputs) {
  std::vector<seqdb::FastaRecord> db = {
      {"s0", "", "ACGT"},
      {"s1", "", "NNNNNNNNNNNNNNNNNNNNNNNN"},
      {"s2", "", "ACGTACGTACGTNACGTACGTACGTACGT"},
      {"s3", "", "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"},
  };
  const auto frag = whole_db(db, SeqType::kNucleotide);
  const auto gstats = stats_of(db);
  auto params = SearchParams::blastn_defaults();
  params.evalue_cutoff = 1e9;
  params.cutoff_score_min = 1;
  const auto m = make_matrix(params);

  const std::vector<std::string> queries = {
      "",
      "ACGT",                                       // below word size
      "NNNNNNNNNNNNNNNNNNNN",                       // all ambiguous
      "ACGTACGTACG",                                // exactly one word
      "ACGTACGTACGTNACGTACGTACGTACGT",              // interior N
      "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT",   // = subject s3
  };
  for (const std::string& qs : queries) {
    const auto q = seqdb::encode_sequence(SeqType::kNucleotide, qs);
    expect_single_query_identical(QueryContext(0, q, params, m, gstats), frag,
                                  qs.empty() ? "<empty>" : qs.c_str());
  }
}

// ---------- deterministic fuzz ---------------------------------------------

std::string random_sequence(std::mt19937& rng, SeqType type, std::size_t len,
                            double wildcard_rate) {
  const std::string_view letters = type == SeqType::kProtein
                                       ? seqdb::kProteinLetters
                                       : seqdb::kDnaLetters;
  // The last letter of each alphabet view region is the wildcard-ish end;
  // draw wildcards explicitly so degenerate residues are well represented.
  std::uniform_int_distribution<std::size_t> pick(0, letters.size() - 1);
  std::bernoulli_distribution wild(wildcard_rate);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    if (wild(rng)) {
      s.push_back(type == SeqType::kProtein ? 'X' : 'N');
    } else {
      s.push_back(letters[pick(rng)]);
    }
  }
  return s;
}

/// Dumps a failing fuzz case to stderr so it can be replayed by hand.
void dump_case(std::uint64_t iter, const SearchParams& params,
               const std::vector<seqdb::FastaRecord>& db,
               const std::string& query) {
  std::ostringstream os;
  os << "=== kernel fuzz mismatch (iteration " << iter << ") ===\n"
     << "params: word=" << params.word_size << " T=" << params.threshold
     << " A=" << params.two_hit_window << " xu=" << params.xdrop_ungapped
     << " xg=" << params.xdrop_gapped << " open=" << params.gap_open
     << " ext=" << params.gap_extend << " trig=" << params.gap_trigger
     << "\nquery: " << (query.empty() ? "<empty>" : query) << "\n";
  for (const auto& r : db) os << ">" << r.id << "\n" << r.sequence << "\n";
  std::cerr << os.str();
}

TEST(KernelDiff, FuzzProteinCorpora) {
  std::mt19937 rng(0xC0FFEEu);  // fixed seed: deterministic, replayable
  std::uniform_int_distribution<int> nseq(1, 12);
  std::uniform_int_distribution<std::size_t> slen(0, 160);
  std::uniform_int_distribution<int> thr(8, 13);
  std::uniform_int_distribution<int> window(0, 2);
  std::uniform_int_distribution<int> xdrop_u(4, 30);
  std::uniform_int_distribution<int> xdrop_g(5, 60);
  std::uniform_int_distribution<int> open(5, 12);
  std::uniform_int_distribution<int> extend(1, 3);
  std::uniform_int_distribution<int> trigger(12, 45);

  const auto m = ScoringMatrix::blosum62();
  for (std::uint64_t iter = 0; iter < 60; ++iter) {
    auto params = SearchParams::blastp_defaults();
    params.threshold = thr(rng);
    params.two_hit_window = window(rng) * 20;  // 0 (single-hit), 20, 40
    params.xdrop_ungapped = xdrop_u(rng);
    params.xdrop_gapped = xdrop_g(rng);
    params.gap_open = open(rng);
    params.gap_extend = extend(rng);
    params.gap_trigger = trigger(rng);
    params.cutoff_score_min = 5;
    params.evalue_cutoff = 1e6;

    std::vector<seqdb::FastaRecord> db;
    const int n = nseq(rng);
    for (int i = 0; i < n; ++i) {
      std::string s = random_sequence(rng, SeqType::kProtein, slen(rng), 0.05);
      if (s.empty()) s.push_back('A');  // formatted volumes hold non-empty sequences
      db.push_back({std::string("f").append(std::to_string(i)), "", std::move(s)});
    }
    // Half the queries are mutated copies of a database sequence (long
    // identical runs exercise the SWAR skip); half are fresh random.
    std::string qs;
    if (iter % 2 == 0) {
      qs = db[static_cast<std::size_t>(iter / 2) % db.size()].sequence;
      std::uniform_int_distribution<std::size_t> pos(0, qs.empty() ? 0 : qs.size() - 1);
      for (int k = 0; k < 3 && !qs.empty(); ++k)
        qs[pos(rng)] = seqdb::kProteinLetters[rng() % 20];
    } else {
      qs = random_sequence(rng, SeqType::kProtein, slen(rng), 0.05);
    }

    const auto frag = whole_db(db);
    const auto gstats = stats_of(db);
    const auto q = seqdb::encode_sequence(SeqType::kProtein, qs);
    expect_single_query_identical(QueryContext(0, q, params, m, gstats), frag,
                                  "fuzz");
    if (::testing::Test::HasNonfatalFailure() ||
        ::testing::Test::HasFatalFailure()) {
      dump_case(iter, params, db, qs);
      FAIL() << "fast kernel diverged from scalar oracle at iteration " << iter;
    }
  }
}

TEST(KernelDiff, FuzzDnaCorpora) {
  std::mt19937 rng(0xD15EA5Eu);
  std::uniform_int_distribution<int> nseq(1, 10);
  std::uniform_int_distribution<std::size_t> slen(0, 200);
  std::uniform_int_distribution<int> word(4, 12);
  std::uniform_int_distribution<int> xdrop_u(4, 30);
  std::uniform_int_distribution<int> xdrop_g(5, 50);
  std::uniform_int_distribution<int> open(3, 8);
  std::uniform_int_distribution<int> extend(1, 3);
  std::uniform_int_distribution<int> trigger(8, 25);

  for (std::uint64_t iter = 0; iter < 40; ++iter) {
    auto params = SearchParams::blastn_defaults();
    params.word_size = word(rng);
    params.xdrop_ungapped = xdrop_u(rng);
    params.xdrop_gapped = xdrop_g(rng);
    params.gap_open = open(rng);
    params.gap_extend = extend(rng);
    params.gap_trigger = trigger(rng);
    params.cutoff_score_min = 5;
    params.evalue_cutoff = 1e6;
    const auto m = make_matrix(params);

    std::vector<seqdb::FastaRecord> db;
    const int n = nseq(rng);
    for (int i = 0; i < n; ++i) {
      std::string s = random_sequence(rng, SeqType::kNucleotide, slen(rng), 0.08);
      if (s.empty()) s.push_back('A');
      db.push_back({std::string("f").append(std::to_string(i)), "", std::move(s)});
    }
    std::string qs;
    if (iter % 2 == 0) {
      qs = db[static_cast<std::size_t>(iter / 2) % db.size()].sequence;
    } else {
      qs = random_sequence(rng, SeqType::kNucleotide, slen(rng), 0.08);
    }

    const auto frag = whole_db(db, SeqType::kNucleotide);
    const auto gstats = stats_of(db);
    const auto q = seqdb::encode_sequence(SeqType::kNucleotide, qs);
    expect_single_query_identical(QueryContext(0, q, params, m, gstats), frag,
                                  "dna fuzz");
    if (::testing::Test::HasNonfatalFailure() ||
        ::testing::Test::HasFatalFailure()) {
      dump_case(iter, params, db, qs);
      FAIL() << "fast kernel diverged from scalar oracle at iteration " << iter;
    }
  }
}

// ---------- host-parallel split ----------------------------------------------
//
// search_fragment_batch splits a fragment of two or more grains
// (kSplitGrainResidues) into chunks on the fork-join pool. The plan depends
// on the fragment only, so these cases run the same splits on every host.

std::uint64_t residues_of(const seqdb::LoadedFragment& frag) {
  std::uint64_t n = 0;
  for (std::uint64_t local = 0; local < frag.num_seqs(); ++local)
    n += frag.sequence(local).size();
  return n;
}

/// A batch of every `stride`-th database sequence (at most `count`).
PreparedBatch contexts_from(const std::vector<seqdb::FastaRecord>& db,
                            SeqType type, const SearchParams& params,
                            const ScoringMatrix& m, const GlobalDbStats& gstats,
                            std::size_t count) {
  std::vector<QueryContext> contexts;
  const std::size_t stride = std::max<std::size_t>(1, db.size() / count);
  for (std::size_t i = 0; i < db.size() && contexts.size() < count; i += stride) {
    contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()),
                          seqdb::encode_sequence(type, db[i].sequence), params,
                          m, gstats);
  }
  return PreparedBatch(std::move(contexts));
}

/// The batch kernel against per-query oracle searches.
void expect_batch_matches_scalar(const PreparedBatch& batch,
                                 const seqdb::LoadedFragment& frag,
                                 const std::string& what) {
  const auto fast = search_fragment_batch(batch, frag);
  ASSERT_EQ(fast.size(), batch.size());
  const oracle::ScalarBatch scalar(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::string label = what + " query " + std::to_string(i);
    expect_results_identical(scalar.search(i, frag), fast[i], label.c_str());
  }
}

TEST(KernelSplit, ProteinFragmentOfManyGrains) {
  const auto db = family_db(20 * kSplitGrainResidues, 131);
  const auto frag = whole_db(db);
  ASSERT_GE(residues_of(frag), 16 * kSplitGrainResidues);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  expect_batch_matches_scalar(
      contexts_from(db, SeqType::kProtein, params, m, stats_of(db), 6), frag,
      "protein");
}

TEST(KernelSplit, DnaFragmentOfManyGrains) {
  const auto db = family_db(20 * kSplitGrainResidues, 137, SeqType::kNucleotide);
  const auto frag = whole_db(db, SeqType::kNucleotide);
  ASSERT_GE(residues_of(frag), 16 * kSplitGrainResidues);
  const auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  expect_batch_matches_scalar(
      contexts_from(db, SeqType::kNucleotide, params, m, stats_of(db), 4), frag,
      "dna");
}

TEST(KernelSplit, SubjectLargerThanAGrain) {
  // One subject of three grains (family members glued together, so it
  // still hits) between ordinary ones: the chunk it lands in closes with
  // it and holds more than one share.
  auto db = family_db(6 * kSplitGrainResidues, 139);
  seqdb::FastaRecord big{"big", "", ""};
  for (std::size_t i = 0; big.sequence.size() < 3 * kSplitGrainResidues; ++i)
    big.sequence += db[i % db.size()].sequence;
  db.insert(db.begin() + static_cast<std::ptrdiff_t>(db.size() / 2), big);
  const auto frag = whole_db(db);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  expect_batch_matches_scalar(
      contexts_from(db, SeqType::kProtein, params, m, stats_of(db), 6), frag,
      "big subject");
}

TEST(KernelSplit, ConcurrentCallersMatchSerialResults) {
  // Three threads, as the threads backend's rank threads do, each searching
  // its own fragment through the shared pool at the same time.
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  const std::size_t ncallers = 3;
  std::vector<seqdb::LoadedFragment> frags;
  std::vector<PreparedBatch> contexts;
  std::vector<std::vector<FragmentSearchResult>> serial;
  for (std::size_t c = 0; c < ncallers; ++c) {
    const auto db = family_db(8 * kSplitGrainResidues, 149 + c);
    frags.push_back(whole_db(db));
    contexts.push_back(
        contexts_from(db, SeqType::kProtein, params, m, stats_of(db), 4));
    serial.push_back(search_fragment_batch(contexts[c], frags[c]));
  }
  std::vector<std::vector<FragmentSearchResult>> concurrent(ncallers);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < ncallers; ++c) {
    threads.emplace_back([&, c] {
      concurrent[c] = search_fragment_batch(contexts[c], frags[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < ncallers; ++c) {
    ASSERT_EQ(concurrent[c].size(), serial[c].size());
    for (std::size_t i = 0; i < serial[c].size(); ++i)
      expect_results_identical(serial[c][i], concurrent[c][i], "concurrent");
  }
}

// ---------- prepared batches -------------------------------------------------
//
// A QuerySet prepares its batch once per job and every fragment search only
// reads it. pioBLAST at thousands of ranks makes thousands of calls on one
// set, each on a fragment below the split threshold, and the threads
// backend makes them from several rank threads at once.

/// `db` cut into residue-balanced fragments of about `residues` each (at
/// most one per sequence).
std::vector<seqdb::LoadedFragment> cut_into_fragments(
    const std::vector<seqdb::FastaRecord>& db, std::uint64_t residues,
    SeqType type = SeqType::kProtein) {
  pario::VirtualFS fs;
  const auto parts = seqdb::mpiformatdb(
      fs, db, "cut", type, "t",
      static_cast<int>(std::min<std::uint64_t>(
          db.size(), stats_of(db).total_residues / residues)));
  std::vector<seqdb::LoadedFragment> frags;
  for (std::size_t i = 0; i < parts.fragment_bases.size(); ++i) {
    frags.push_back(seqdb::load_volumes(fs, parts.fragment_bases[i], type,
                                        parts.ranges[i].first));
  }
  return frags;
}

TEST(KernelPrepared, OneSetAcrossSubGrainFragmentsAndThreads) {
  const auto db = family_db(40'000, 157);
  const auto frags = cut_into_fragments(db, 512);
  ASSERT_GE(frags.size(), 60u);
  for (const auto& frag : frags)
    ASSERT_LT(residues_of(frag), 2 * kSplitGrainResidues);  // unsplit calls
  std::string fasta;
  for (std::size_t i = 0; i < db.size(); i += db.size() / 4)
    fasta += ">q" + std::to_string(i) + "\n" + db[i].sequence + "\n";
  const auto set =
      QuerySet::build(fasta, SearchParams::blastp_defaults(), stats_of(db));
  const PreparedBatch& batch = set->contexts();
  const oracle::ScalarBatch scalar(batch);

  std::vector<std::vector<FragmentSearchResult>> serial;
  std::size_t hsps = 0;
  for (std::size_t f = 0; f < frags.size(); ++f) {
    serial.push_back(search_fragment_batch(batch, frags[f]));
    ASSERT_EQ(serial[f].size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string label =
          "fragment " + std::to_string(f) + " query " + std::to_string(i);
      expect_results_identical(scalar.search(i, frags[f]), serial[f][i],
                               label.c_str());
      hsps += serial[f][i].hsps.size();
    }
  }
  EXPECT_GT(hsps, 0u);

  // Three threads share the set, each over every third fragment.
  const std::size_t nthreads = 3;
  std::vector<std::vector<FragmentSearchResult>> concurrent(frags.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t f = t; f < frags.size(); f += nthreads)
        concurrent[f] = search_fragment_batch(batch, frags[f]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t f = 0; f < frags.size(); ++f) {
    ASSERT_EQ(concurrent[f].size(), serial[f].size());
    for (std::size_t i = 0; i < serial[f].size(); ++i)
      expect_results_identical(serial[f][i], concurrent[f][i], "concurrent");
  }
}

TEST(KernelPrepared, MixedTypesOrWordSizesRejected) {
  const GlobalDbStats gstats{100'000, 100};
  const auto protein = SearchParams::blastp_defaults();
  const auto dna = SearchParams::blastn_defaults();
  auto dna_short = dna;
  dna_short.word_size = 8;
  const auto pm = make_matrix(protein);
  const auto dm = make_matrix(dna);
  const auto pq = seqdb::encode_sequence(SeqType::kProtein, "MKVLAARNDCQEGHILK");
  const auto dq =
      seqdb::encode_sequence(SeqType::kNucleotide, "ACGTACGTACGTACGTACGT");
  auto expect_rejected = [](std::vector<QueryContext> contexts,
                            const char* what) {
    try {
      const PreparedBatch batch(std::move(contexts));
      ADD_FAILURE() << what << ": batch accepted";
    } catch (const util::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "batched queries must share word size and type"),
                std::string::npos)
          << what << ": " << e.what();
    }
  };

  std::vector<QueryContext> types;
  types.emplace_back(0, pq, protein, pm, gstats);
  types.emplace_back(1, dq, dna, dm, gstats);
  expect_rejected(std::move(types), "blastp + blastn");

  std::vector<QueryContext> words;
  words.emplace_back(0, dq, dna, dm, gstats);
  words.emplace_back(1, dq, dna_short, dm, gstats);
  expect_rejected(std::move(words), "word sizes 11 + 8");
}

TEST(KernelPrepared, BadWordSizeRejected) {
  // A context takes any word size; the batch rejects one its packing
  // cannot hold: blastp packs base-24 3-mers, blastn 2 bits a base into a
  // 64-bit word beside FragmentIndex::kInvalidWord.
  const GlobalDbStats gstats{100'000, 100};
  const auto pq = seqdb::encode_sequence(SeqType::kProtein, "MKVLAARNDCQEGHILK");
  const auto dq =
      seqdb::encode_sequence(SeqType::kNucleotide, "ACGTACGTACGTACGTACGT");
  for (const auto& [type, word_size, what] :
       {std::tuple{SeqType::kProtein, 2, "blastp word size must be 3"},
        std::tuple{SeqType::kProtein, 4, "blastp word size must be 3"},
        std::tuple{SeqType::kNucleotide, 3, "blastn word size must be in [4,31]"},
        std::tuple{SeqType::kNucleotide, 32,
                   "blastn word size must be in [4,31]"}}) {
    auto params = type == SeqType::kProtein ? SearchParams::blastp_defaults()
                                            : SearchParams::blastn_defaults();
    params.word_size = word_size;
    const auto m = make_matrix(params);
    std::vector<QueryContext> contexts;
    contexts.emplace_back(0, type == SeqType::kProtein ? pq : dq, params, m,
                          gstats);
    try {
      const PreparedBatch batch(std::move(contexts));
      ADD_FAILURE() << "word size " << word_size << " accepted";
    } catch (const util::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  }
}

TEST(KernelPrepared, OverlongBlastpQueryIsAnInputError) {
  // A blastp query too long for BatchNeighborhood's position tag comes from
  // the user, so it is a util::RuntimeError; one residue less is accepted.
  // Wildcards have no neighbors, which keeps the tables empty.
  const auto params = SearchParams::blastp_defaults();
  const auto m = make_matrix(params);
  const GlobalDbStats gstats{100'000, 100};
  for (const std::size_t len : {BatchNeighborhood::kMaxQueryResidues,
                                BatchNeighborhood::kMaxQueryResidues + 1}) {
    std::vector<QueryContext> contexts;
    contexts.emplace_back(
        0, seqdb::encode_sequence(SeqType::kProtein, std::string(len, 'X')),
        params, m, gstats);
    if (len <= BatchNeighborhood::kMaxQueryResidues) {
      EXPECT_NO_THROW(PreparedBatch{std::move(contexts)});
    } else {
      EXPECT_THROW(PreparedBatch{std::move(contexts)}, util::RuntimeError);
    }
  }
}

// ---------- one flat plan over many fragments --------------------------------
//
// search_fragments runs every chunk of every fragment it is given on one
// fork-join pass: a sub-grain fragment is one chunk, a larger one several,
// and the task that finishes a fragment's last chunk merges it. Its results
// must not depend on which fragments share a call.

/// Fragments of both plan shapes cut from `db`: up to `small` of about 512
/// residues (one chunk each), then the database's two halves (several
/// chunks each).
std::vector<seqdb::LoadedFragment> mixed_fragments(
    const std::vector<seqdb::FastaRecord>& db, SeqType type,
    std::size_t small) {
  std::vector<seqdb::LoadedFragment> frags = cut_into_fragments(db, 512, type);
  frags.erase(frags.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(small, frags.size())),
              frags.end());
  for (auto& half :
       cut_into_fragments(db, stats_of(db).total_residues / 2, type)) {
    EXPECT_GE(residues_of(half), 2 * kSplitGrainResidues);
    frags.push_back(std::move(half));
  }
  return frags;
}

/// search_fragments over `frags` in one call, against one
/// search_fragment_batch call per fragment and against the oracle, on every
/// (query, fragment) pair.
void expect_flat_plan_matches(const PreparedBatch& batch,
                              const std::vector<seqdb::LoadedFragment>& frags,
                              const std::string& what) {
  const auto flat = search_fragments(batch, frags);
  ASSERT_EQ(flat.size(), frags.size());
  const oracle::ScalarBatch scalar(batch);
  std::size_t hsps = 0;
  for (std::size_t f = 0; f < frags.size(); ++f) {
    const auto one = search_fragment_batch(batch, frags[f]);
    ASSERT_EQ(flat[f].size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string label = what + " fragment " + std::to_string(f) +
                                " query " + std::to_string(i);
      expect_results_identical(one[i], flat[f][i], label.c_str());
      expect_results_identical(scalar.search(i, frags[f]), flat[f][i],
                               label.c_str());
      hsps += flat[f][i].hsps.size();
    }
  }
  EXPECT_GT(hsps, 0u) << what;
}

/// A protein family database with one subject of three grains (family
/// members glued together, so it still hits) in the middle.
std::vector<seqdb::FastaRecord> db_with_big_subject(std::uint64_t seed) {
  auto db = family_db(8 * kSplitGrainResidues, seed);
  seqdb::FastaRecord big{"big", "", ""};
  for (std::size_t i = 0; big.sequence.size() < 3 * kSplitGrainResidues; ++i)
    big.sequence += db[i % db.size()].sequence;
  db.insert(db.begin() + static_cast<std::ptrdiff_t>(db.size() / 2), big);
  return db;
}

TEST(KernelFlatPlan, MixedProteinFragmentsMatchPerFragmentAndOracle) {
  const auto db = db_with_big_subject(163);
  const auto frags = mixed_fragments(db, SeqType::kProtein, 12);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  expect_flat_plan_matches(
      contexts_from(db, SeqType::kProtein, params, m, stats_of(db), 6), frags,
      "protein");
}

TEST(KernelFlatPlan, MixedDnaFragmentsMatchPerFragmentAndOracle) {
  const auto db = family_db(8 * kSplitGrainResidues, 167, SeqType::kNucleotide);
  const auto frags = mixed_fragments(db, SeqType::kNucleotide, 12);
  const auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  expect_flat_plan_matches(
      contexts_from(db, SeqType::kNucleotide, params, m, stats_of(db), 4),
      frags, "dna");
}

/// 1100 slices of 40 residues from `db`'s records, one batch: more
/// queries than the query-id tag holds (1024), so the kernel runs them in
/// two sub-batches, each with its own merged table, in every chunk of
/// every fragment. `m` must outlive the batch.
PreparedBatch short_slices(const std::vector<seqdb::FastaRecord>& db,
                           SeqType type, const SearchParams& params,
                           const ScoringMatrix& m) {
  const GlobalDbStats gstats = stats_of(db);
  std::vector<QueryContext> contexts;
  for (std::size_t i = 0; contexts.size() < 1100; ++i) {
    const std::string& s = db[i % db.size()].sequence;
    const std::size_t off = (i * 7) % (s.size() > 40 ? s.size() - 40 : 1);
    contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()),
                          seqdb::encode_sequence(type, s.substr(off, 40)),
                          params, m, gstats);
  }
  return PreparedBatch(std::move(contexts));
}

TEST(KernelDiff, ThousandsOfShortQueriesMatchScalar) {
  const auto db = family_db(5 * kSplitGrainResidues, 151);
  const auto m = ScoringMatrix::blosum62();
  const PreparedBatch batch =
      short_slices(db, SeqType::kProtein, SearchParams::blastp_defaults(), m);
  ASSERT_EQ(batch.merged().size(), 2u);
  expect_flat_plan_matches(batch, mixed_fragments(db, SeqType::kProtein, 4),
                           "1100 queries");
}

// ---------- batched blastn scan ---------------------------------------------
//
// blastn looks each subject word up once per sub-batch in a merged table
// (DnaBatchNeighborhood), like blastp; each query's seeds, counters and
// HSPs must stay exactly its own scan's.

TEST(KernelDiff, DnaQueriesSharingWordsMatchScalar) {
  const auto db = family_db(30'000, 181, SeqType::kNucleotide);
  const auto frag = whole_db(db, SeqType::kNucleotide);
  const auto gstats = stats_of(db);
  const auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  const std::string& rec =
      std::max_element(db.begin(), db.end(), [](const auto& a, const auto& b) {
        return a.sequence.size() < b.sequence.size();
      })->sequence;
  ASSERT_GE(rec.size(), 400u);
  // Overlapping slices of one record, an exact duplicate, and members that
  // never seed: shorter than the word size, empty, all N.
  const std::vector<std::string> texts = {
      rec.substr(0, 300), rec.substr(150, 250), rec.substr(100, 300),
      rec.substr(0, 300), "ACGTACGT", "", std::string(80, 'N'),
      db[db.size() / 2].sequence};
  std::vector<QueryContext> contexts;
  for (const std::string& qs : texts) {
    contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()),
                          seqdb::encode_sequence(SeqType::kNucleotide, qs),
                          params, m, gstats);
  }
  const PreparedBatch batch(std::move(contexts));

  // The slices' shared words land in one bucket under several query ids.
  const DnaBatchNeighborhood& table = batch.merged_dna().at(0);
  std::uint64_t shared = 0;
  for (std::size_t e = 0; e + 1 < table.entries.size(); ++e)
    shared += (table.entries[e] >> 32) != (table.entries[e + 1] >> 32);
  EXPECT_GT(shared, 0u);
  const auto [first, last] = table.lookup()(FragmentIndex::kInvalidWord);
  EXPECT_EQ(first, last);

  expect_batch_matches_scalar(batch, frag, "shared words");
  const auto fast = search_fragment_batch(batch, frag);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_GT(fast[i].hsps.size(), 0u) << i;
  for (const std::size_t i : {4, 5}) {  // shorter than the word size
    const sim::SearchCounters& c = fast[i].counters;
    EXPECT_EQ(c.db_residues_scanned + c.seed_hits + c.two_hit_triggers +
                  c.ungapped_cells + c.gapped_cells + c.traceback_cells +
                  c.hsps_found,
              0u)
        << i;
  }
  const sim::SearchCounters& all_n = fast[6].counters;
  EXPECT_EQ(all_n.seed_hits + all_n.ungapped_cells + all_n.gapped_cells +
                all_n.hsps_found,
            0u);
}

TEST(KernelDiff, ThousandsOfShortDnaQueriesMatchScalar) {
  // As the blastp case: two merged blastn tables.
  const auto db = family_db(5 * kSplitGrainResidues, 191, SeqType::kNucleotide);
  const auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  const PreparedBatch batch = short_slices(db, SeqType::kNucleotide, params, m);
  ASSERT_EQ(batch.merged_dna().size(), 2u);
  expect_flat_plan_matches(batch, mixed_fragments(db, SeqType::kNucleotide, 4),
                           "1100 dna queries");
}

TEST(KernelDiff, DnaQueryPositionsPastTwentyTwoBits) {
  // Seeds past query position 2^22, the width of blastp's position tag:
  // an all-N query but for a database stretch copied past that position.
  std::vector<seqdb::FastaRecord> db = family_db(12'000, 193, SeqType::kNucleotide);
  const auto frag = whole_db(db, SeqType::kNucleotide);
  const auto params = SearchParams::blastn_defaults();
  const auto m = make_matrix(params);
  constexpr std::size_t kAt = (std::size_t{1} << 22) + 20;
  std::string qs((std::size_t{1} << 22) + 300, 'N');
  const std::string& rec = db[1].sequence;
  const std::size_t len = std::min<std::size_t>(rec.size(), 250);
  qs.replace(kAt, len, rec, 0, len);
  std::vector<QueryContext> one;
  one.emplace_back(0, seqdb::encode_sequence(SeqType::kNucleotide, qs), params,
                   m, stats_of(db));
  const PreparedBatch batch(std::move(one));
  expect_batch_matches_scalar(batch, frag, "long query");
  const auto fast = search_fragment_batch(batch, frag);
  ASSERT_GT(fast[0].hsps.size(), 0u);
  for (const Hsp& h : fast[0].hsps) EXPECT_GE(h.qstart, kAt);
}

TEST(KernelFlatPlan, ConcurrentCallersMatchSerialResults) {
  // Three threads, each planning the whole list through the shared pool at
  // the same time, as three jobs filling their memos at once would.
  const auto db = db_with_big_subject(173);
  const auto frags = mixed_fragments(db, SeqType::kProtein, 12);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  const PreparedBatch batch =
      contexts_from(db, SeqType::kProtein, params, m, stats_of(db), 4);
  const auto serial = search_fragments(batch, frags);
  std::vector<std::vector<std::vector<FragmentSearchResult>>> concurrent(3);
  std::vector<std::thread> threads;
  for (auto& out : concurrent)
    threads.emplace_back([&] { out = search_fragments(batch, frags); });
  for (std::thread& t : threads) t.join();
  for (const auto& out : concurrent) {
    ASSERT_EQ(out.size(), serial.size());
    for (std::size_t f = 0; f < serial.size(); ++f) {
      ASSERT_EQ(out[f].size(), serial[f].size());
      for (std::size_t i = 0; i < serial[f].size(); ++i)
        expect_results_identical(serial[f][i], out[f][i], "concurrent");
    }
  }
}

// ---------- merged word tables / FragmentIndex properties -------------------
//
// PreparedBatch builds each sub-batch's word table straight from the
// queries' residues. Every word's bucket must be the oracle's per-query
// position lists concatenated in query order, each entry tagged with its
// query's id. (The FlatNeighborhoodProperty names predate the merged
// tables: they once tested a per-query table.)

/// 1 to 5 random queries of up to `max_len` residues; later ones repeat a
/// slice of an earlier one, so buckets hold several query ids.
std::vector<std::string> related_queries(std::mt19937& rng, SeqType type,
                                         std::size_t max_len) {
  std::vector<std::string> texts;
  const std::size_t nq = 1 + rng() % 5;
  for (std::size_t i = 0; i < nq; ++i) {
    std::string qs = random_sequence(
        rng, type, static_cast<std::size_t>(rng() % (max_len + 1)), 0.05);
    if (i > 0) qs += texts[rng() % i].substr(0, 40);
    texts.push_back(std::move(qs));
  }
  return texts;
}

TEST(FlatNeighborhoodProperty, MatchesWordIndexUnderRandomMatrices) {
  std::mt19937 rng(0xF1A7u);
  std::uniform_int_distribution<int> cell(-5, 7);
  std::uniform_int_distribution<int> thr(-2, 18);
  const GlobalDbStats gstats{100'000, 100};

  const KarlinParams kp{0.27, 0.04, 0.25};
  for (int round = 0; round < 20; ++round) {
    std::vector<int> scores(24 * 24);
    for (int& v : scores) v = cell(rng);
    const auto m = ScoringMatrix::custom(24, scores, kp, kp);

    auto params = SearchParams::blastp_defaults();
    params.threshold = thr(rng);
    std::vector<QueryContext> contexts;
    std::vector<oracle::WordIndex> words;
    std::vector<bool> indexed;  // queries of at least one word
    std::size_t total = 0;
    for (const std::string& qs : related_queries(rng, SeqType::kProtein, 80)) {
      const auto q = seqdb::encode_sequence(SeqType::kProtein, qs);
      contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()), q,
                            params, m, gstats);
      words.emplace_back(q, m, params);
      indexed.push_back(q.size() >= 3);
      total += words.back().total_entries();
    }
    const PreparedBatch batch(std::move(contexts));
    ASSERT_EQ(batch.merged().size(), 1u);
    ASSERT_TRUE(batch.merged_dna().empty());
    const BatchNeighborhood& table = batch.merged()[0];
    EXPECT_EQ(table.entries.size(), total);
    const auto lookup = table.lookup();

    // Every packed word's bucket must equal the oracle's position lists —
    // same contents, same order: query-id-major, positions ascending.
    for (std::uint32_t code = 0; code < 24u * 24u * 24u; ++code) {
      const std::uint8_t word[3] = {
          static_cast<std::uint8_t>(code / (24 * 24)),
          static_cast<std::uint8_t>((code / 24) % 24),
          static_cast<std::uint8_t>(code % 24)};
      std::vector<std::uint32_t> expected;
      for (std::size_t qi = 0; qi < words.size(); ++qi) {
        const oracle::PositionList* list =
            indexed[qi] ? words[qi].probe(word) : nullptr;
        if (list == nullptr) continue;
        for (const std::uint32_t qpos : *list)
          expected.push_back(static_cast<std::uint32_t>(qi)
                                 << BatchNeighborhood::kQposBits |
                             qpos);
      }
      const auto [first, last] = lookup(code);
      ASSERT_LE(first, last);
      const std::vector<std::uint32_t> got(table.entries.begin() + first,
                                           table.entries.begin() + last);
      ASSERT_EQ(got, expected) << "round " << round << " code " << code;
    }
  }
}

TEST(FlatNeighborhoodProperty, OffsetsMonotoneAndCovering) {
  std::mt19937 rng(0x0FF5E75u);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  const GlobalDbStats gstats{100'000, 100};
  for (int round = 0; round < 10; ++round) {
    std::vector<QueryContext> contexts;
    for (const std::string& qs : related_queries(rng, SeqType::kProtein, 140)) {
      contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()),
                            seqdb::encode_sequence(SeqType::kProtein, qs),
                            params, m, gstats);
    }
    const PreparedBatch batch(std::move(contexts));
    const BatchNeighborhood& table = batch.merged().at(0);
    const std::vector<std::uint32_t>& offsets = table.offsets;
    ASSERT_EQ(offsets.size(), 24u * 24u * 24u + 1);
    EXPECT_EQ(offsets.front(), 0u);
    for (std::size_t i = 1; i < offsets.size(); ++i) {
      ASSERT_LE(offsets[i - 1], offsets[i]) << "offset " << i;
      // Query-id-major with positions ascending: tags strictly increase
      // within a bucket.
      for (std::uint32_t k = offsets[i - 1] + 1; k < offsets[i]; ++k)
        EXPECT_LT(table.entries[k - 1], table.entries[k]) << "entry " << k;
    }
    EXPECT_EQ(offsets.back(), table.entries.size());
    // Every entry names a query of the batch and one of its word starts.
    for (const std::uint32_t tag : table.entries) {
      const std::uint32_t qi = tag >> BatchNeighborhood::kQposBits;
      ASSERT_LT(qi, batch.size());
      EXPECT_LE((tag & BatchNeighborhood::kQposMask) + 3,
                batch[qi].residues().size());
    }
  }
}

TEST(FlatNeighborhoodProperty, DnaMatchesWordIndex) {
  // The merged blastn table of a sub-batch against the oracle's per-query
  // word indexes: every word's bucket is the queries' position lists
  // concatenated in query order, each entry tagged with its query's id.
  std::mt19937 rng(0xD7A5u);
  const GlobalDbStats gstats{100'000, 100};
  for (int round = 0; round < 15; ++round) {
    auto params = SearchParams::blastn_defaults();
    params.word_size = 4 + static_cast<int>(rng() % 9);
    const auto m = make_matrix(params);
    // Later queries repeat slices of earlier ones, so buckets hold several
    // query ids.
    std::vector<std::string> texts;
    const std::size_t nq = 1 + rng() % 5;
    for (std::size_t i = 0; i < nq; ++i) {
      std::string qs = random_sequence(
          rng, SeqType::kNucleotide, static_cast<std::size_t>(rng() % 200), 0.1);
      if (i > 0) qs += texts[rng() % i].substr(0, 60);
      texts.push_back(std::move(qs));
    }
    std::vector<QueryContext> contexts;
    std::vector<oracle::WordIndex> words;
    std::size_t total = 0;
    for (const std::string& qs : texts) {
      const auto q = seqdb::encode_sequence(SeqType::kNucleotide, qs);
      contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()), q,
                            params, m, gstats);
      words.emplace_back(q, m, params);
      total += words.back().total_entries();
    }
    const PreparedBatch batch(std::move(contexts));
    ASSERT_EQ(batch.merged_dna().size(), 1u);
    ASSERT_TRUE(batch.merged().empty());
    const DnaBatchNeighborhood& table = batch.merged_dna()[0];
    EXPECT_EQ(table.entries.size(), total);
    const auto lookup = table.lookup();

    // Look up every word of every query, and of a random subject.
    const std::size_t w = static_cast<std::size_t>(params.word_size);
    std::vector<std::vector<std::uint8_t>> probes;
    for (const QueryContext& qc : batch)
      probes.emplace_back(qc.residues().begin(), qc.residues().end());
    probes.push_back(seqdb::encode_sequence(
        SeqType::kNucleotide, random_sequence(rng, SeqType::kNucleotide, 300, 0.1)));
    for (const std::vector<std::uint8_t>& seq : probes) {
      for (std::size_t pos = 0; pos + w <= seq.size(); ++pos) {
        std::vector<std::uint64_t> expected;
        for (std::size_t qi = 0; qi < words.size(); ++qi) {
          const oracle::PositionList* list = words[qi].probe(seq.data() + pos);
          if (list == nullptr) continue;
          for (const std::uint32_t qpos : *list)
            expected.push_back(static_cast<std::uint64_t>(qi) << 32 | qpos);
        }
        bool valid = true;
        std::uint64_t packed = 0;
        for (std::size_t k = 0; k < w; ++k) {
          if (seq[pos + k] >= 4) { valid = false; break; }
          packed = (packed << 2) | seq[pos + k];
        }
        const auto [first, last] =
            lookup(valid ? packed : FragmentIndex::kInvalidWord);
        ASSERT_LE(first, last);
        const std::vector<std::uint64_t> got(table.entries.begin() + first,
                                             table.entries.begin() + last);
        EXPECT_EQ(got, expected) << "round " << round << " pos " << pos;
      }
    }
  }
}

TEST(FragmentIndexProperty, CodesMatchScalarPacking) {
  const auto db = family_db(20'000, 113);
  const auto frag = whole_db(db);
  const auto params = SearchParams::blastp_defaults();
  const FragmentIndex index(frag, params, 0, frag.num_seqs());
  ASSERT_EQ(index.num_seqs(), frag.num_seqs());
  for (std::uint64_t local = 0; local < frag.num_seqs(); ++local) {
    const auto s = frag.sequence(local);
    const auto codes = index.codes32(local);
    const std::size_t nwords = s.size() >= 3 ? s.size() - 2 : 0;
    ASSERT_EQ(codes.size(), nwords);
    for (std::size_t pos = 0; pos < nwords; ++pos) {
      const std::uint32_t expected =
          (static_cast<std::uint32_t>(s[pos]) * 24u + s[pos + 1]) * 24u +
          s[pos + 2];
      ASSERT_EQ(codes[pos], expected) << "seq " << local << " pos " << pos;
    }
  }
}

TEST(FragmentIndexProperty, DnaCodesFlagAmbiguousWindows) {
  std::vector<seqdb::FastaRecord> db = {
      {"s0", "", "ACGTACGTNACGTACGTACGT"},
      {"s1", "", "NNNNNN"},
      {"s2", "", "ACGTACGTACGTACGTACGT"},
  };
  const auto frag = whole_db(db, SeqType::kNucleotide);
  auto params = SearchParams::blastn_defaults();
  params.word_size = 5;
  const FragmentIndex index(frag, params, 0, frag.num_seqs());
  const std::size_t w = 5;
  for (std::uint64_t local = 0; local < frag.num_seqs(); ++local) {
    const auto s = frag.sequence(local);
    const auto codes = index.codes64(local);
    ASSERT_EQ(codes.size(), s.size() >= w ? s.size() - w + 1 : 0);
    for (std::size_t pos = 0; pos < codes.size(); ++pos) {
      bool ambiguous = false;
      std::uint64_t packed = 0;
      for (std::size_t k = 0; k < w; ++k) {
        if (s[pos + k] >= 4) { ambiguous = true; break; }
        packed = (packed << 2) | s[pos + k];
      }
      if (ambiguous) {
        EXPECT_EQ(codes[pos], FragmentIndex::kInvalidWord)
            << "seq " << local << " pos " << pos;
      } else {
        EXPECT_EQ(codes[pos], packed) << "seq " << local << " pos " << pos;
      }
    }
  }
}

// ---------- extension edge cases -------------------------------------------

/// Replays a gapped traceback and recomputes the raw score independently
/// (affine costs: each maximal gap run costs open + k*extend). A mismatch
/// means the DP and its traceback disagree — the strongest single invariant
/// over the extension code.
int replay_gapped_score(const GappedExtension& g,
                        std::span<const std::uint8_t> q,
                        std::span<const std::uint8_t> s,
                        const ScoringMatrix& m, int gap_open, int gap_extend) {
  int score = 0;
  std::uint32_t qi = g.qstart;
  std::uint64_t si = g.sstart;
  AlignOp prev = AlignOp::kMatch;
  for (const AlignOp op : g.ops) {
    switch (op) {
      case AlignOp::kMatch:
        score += m.score(q[qi++], s[si++]);
        break;
      case AlignOp::kInsert:
        if (prev != AlignOp::kInsert) score -= gap_open;
        score -= gap_extend;
        ++qi;
        break;
      case AlignOp::kDelete:
        if (prev != AlignOp::kDelete) score -= gap_open;
        score -= gap_extend;
        ++si;
        break;
    }
    prev = op;
  }
  EXPECT_EQ(qi, g.qend);
  EXPECT_EQ(si, g.send);
  return score;
}

void expect_gapped_identical(const GappedExtension& a, const GappedExtension& b) {
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.qstart, b.qstart);
  EXPECT_EQ(a.qend, b.qend);
  EXPECT_EQ(a.sstart, b.sstart);
  EXPECT_EQ(a.send, b.send);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.ops, b.ops);
}

TEST(ExtendEdge, UngappedSeedAtSequenceBoundaries) {
  const auto m = ScoringMatrix::blosum62();
  const auto q = seqdb::encode_sequence(SeqType::kProtein,
                                        "MKVLAARNDCQEGHILKMFPSTWYV");
  const auto s = seqdb::encode_sequence(SeqType::kProtein,
                                        "MKVLAARNDCQEGHILKMFPSTWYV");
  const SelfScoreProfile self(q, m);
  // Seed at the very start, middle, and last possible position; the
  // extension must terminate cleanly at both sequence ends.
  for (const std::uint32_t pos : {0u, 10u, 22u}) {
    const auto a = oracle::extend_ungapped(q, s, pos, pos, 3, m, 16);
    const auto b = extend_ungapped_fast(q, s, pos, pos, 3, m, 16, self);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.qstart, b.qstart);
    EXPECT_EQ(a.qend, b.qend);
    EXPECT_EQ(a.sstart, b.sstart);
    EXPECT_EQ(a.send, b.send);
    EXPECT_EQ(a.cells, b.cells);
    // Full-identity pair: the extension must span both sequences.
    EXPECT_EQ(a.qstart, 0u);
    EXPECT_EQ(a.qend, q.size());
    EXPECT_LE(a.qend, q.size());
    EXPECT_LE(a.send, s.size());
  }
}

TEST(ExtendEdge, UngappedXdropStopsInsideMismatchRun) {
  const auto m = ScoringMatrix::blosum62();
  // Identical prefix, then a long mismatch tail: the X-drop must stop the
  // rightward pass inside the tail, not at the sequence end.
  const auto q = seqdb::encode_sequence(
      SeqType::kProtein, "MKVLAARNDC" + std::string(30, 'W'));
  const auto s = seqdb::encode_sequence(
      SeqType::kProtein, "MKVLAARNDC" + std::string(30, 'P'));
  const SelfScoreProfile self(q, m);
  const auto a = oracle::extend_ungapped(q, s, 0, 0, 3, m, 16);
  const auto b = extend_ungapped_fast(q, s, 0, 0, 3, m, 16, self);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.qend, b.qend);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.qend, 10u);  // best prefix is exactly the identical run
  EXPECT_LT(a.cells, q.size() + 3);  // pruned well before the end
}

TEST(ExtendEdge, GappedBandExceedsShorterSequence) {
  const auto m = ScoringMatrix::blosum62();
  // Long query against a 4-residue subject with an effectively unbounded
  // X-drop: the DP band is clamped by the subject length every row and the
  // walk must terminate without touching out-of-band cells.
  const auto q = seqdb::encode_sequence(SeqType::kProtein, std::string(60, 'L'));
  const auto s = seqdb::encode_sequence(SeqType::kProtein, "LLLL");
  GappedScratch scratch;
  const auto a = oracle::extend_gapped(q, s, 0, 0, m, 11, 1, 1'000'000);
  const auto b = extend_gapped_fast(q, s, 0, 0, m, 11, 1, 1'000'000, scratch);
  expect_gapped_identical(a, b);
  EXPECT_LE(a.send, s.size());
  EXPECT_EQ(replay_gapped_score(a, q, s, m, 11, 1), a.score);
}

TEST(ExtendEdge, GappedAnchorAtCorners) {
  const auto m = ScoringMatrix::blosum62();
  const auto q = seqdb::encode_sequence(SeqType::kProtein,
                                        "MKVLAARNDCQEGHILKMFPSTWYV");
  const auto s = seqdb::encode_sequence(SeqType::kProtein,
                                        "MKVLAARNDCQEGHILKMFPSTWYV");
  GappedScratch scratch;
  for (const std::uint32_t anchor :
       {0u, static_cast<std::uint32_t>(q.size() - 1)}) {
    const auto a = oracle::extend_gapped(q, s, anchor, anchor, m, 11, 1, 38);
    const auto b = extend_gapped_fast(q, s, anchor, anchor, m, 11, 1, 38,
                                      scratch);
    expect_gapped_identical(a, b);
    EXPECT_EQ(replay_gapped_score(a, q, s, m, 11, 1), a.score);
    EXPECT_EQ(a.qstart, 0u);
    EXPECT_EQ(a.qend, q.size());
  }
}

TEST(ExtendEdge, GappedScoreMatchesTracebackReplay) {
  // Randomized gapped extensions: the reported score must equal an
  // independent replay of the traceback under affine gap costs, and the
  // fast path must agree bit for bit. Catches latent DP/traceback
  // disagreements at window boundaries.
  std::mt19937 rng(0xE27E7Du);
  const auto m = ScoringMatrix::blosum62();
  GappedScratch scratch;
  for (int round = 0; round < 200; ++round) {
    const std::size_t qn = 2 + rng() % 60;
    const std::size_t sn = 2 + rng() % 60;
    const auto qs = random_sequence(rng, SeqType::kProtein, qn, 0.05);
    std::string ss;
    if (round % 2 == 0) {
      // Mutated copy: long near-identical stretches with indels.
      ss = qs;
      if (ss.size() > 4) {
        ss.erase(ss.begin() + static_cast<std::ptrdiff_t>(rng() % ss.size()));
        ss[rng() % ss.size()] = 'A';
      }
    } else {
      ss = random_sequence(rng, SeqType::kProtein, sn, 0.05);
    }
    const auto q = seqdb::encode_sequence(SeqType::kProtein, qs);
    const auto s = seqdb::encode_sequence(SeqType::kProtein, ss);
    const std::uint32_t anchor_q = rng() % q.size();
    const std::uint64_t anchor_s = rng() % s.size();
    const int open = 5 + static_cast<int>(rng() % 8);
    const int extend = 1 + static_cast<int>(rng() % 3);
    const int xdrop = 5 + static_cast<int>(rng() % 60);

    const auto a =
        oracle::extend_gapped(q, s, anchor_q, anchor_s, m, open, extend, xdrop);
    const auto b = extend_gapped_fast(q, s, anchor_q, anchor_s, m, open,
                                      extend, xdrop, scratch);
    expect_gapped_identical(a, b);
    EXPECT_EQ(replay_gapped_score(a, q, s, m, open, extend), a.score)
        << "round " << round << " q=" << qs << " s=" << ss
        << " anchor=(" << anchor_q << "," << anchor_s << ") open=" << open
        << " ext=" << extend << " xdrop=" << xdrop;
  }
}

// ---------- gapped DP rows --------------------------------------------------
//
// extend_gapped_fast runs each DP row as a vector loop over the previous
// row's window, its E chain and X-drop floor as prefix scans, and a
// per-cell tail past it (DESIGN "Kernel fast path", item 3). These cases
// aim at what that construction could get wrong — rows that run past the
// previous window, E runs that keep a row alive there, ties between the
// diagonal, E and F, the X-drop extremes, both scoring systems, and
// scratch reuse — each diffed against the oracle on score, coordinates,
// ops and cells, and checked by replaying its traceback.

/// A residue drawn from `type`'s unambiguous letters (no X, *, B, Z or N).
char random_letter(std::mt19937& rng, SeqType type) {
  const std::string_view letters = type == SeqType::kProtein
                                        ? seqdb::kProteinLetters.substr(0, 20)
                                        : seqdb::kDnaLetters.substr(0, 4);
  return letters[rng() % letters.size()];
}

/// Residues of `type`, each repeating the one before with probability
/// `run`. An indel inside a run can sit at any of the run's positions, so
/// co-optimal tracebacks meet diagonal/E and diagonal/F ties on the path.
std::string runny_sequence(std::mt19937& rng, SeqType type, std::size_t len,
                           double run) {
  std::bernoulli_distribution repeat(run);
  std::string s;
  for (std::size_t i = 0; i < len; ++i)
    s += i > 0 && repeat(rng) ? s.back() : random_letter(rng, type);
  return s;
}

/// A relative of `q` (substitutions, and 1-4 residue indels that copy a
/// neighbor half the time) between random flanks, so the subject is about
/// `factor` times as long as the query. `at` receives where it starts.
std::string embed_relative(std::mt19937& rng, SeqType type,
                           const std::string& q, std::size_t factor,
                           std::size_t& at) {
  std::bernoulli_distribution sub(0.1), indel(0.05), coin(0.5);
  std::string rel;
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (indel(rng)) {
      const std::size_t k = 1 + rng() % 4;
      if (coin(rng)) {
        i += k - 1;  // delete k query residues
        continue;
      }
      for (std::size_t t = 0; t < k; ++t)  // insert k residues
        rel += coin(rng) ? q[i] : random_letter(rng, type);
    }
    rel += sub(rng) ? random_letter(rng, type) : q[i];
  }
  const std::size_t flanks = q.size() * factor - std::min(q.size() * factor,
                                                          rel.size());
  at = rng() % (flanks + 1);
  return runny_sequence(rng, type, at, 0.3) + rel +
         runny_sequence(rng, type, flanks - at, 0.3);
}

struct DpCase {
  const ScoringMatrix& matrix;
  SeqType type;
  int open, extend, xdrop;
};

/// One extension of `qs` against `ss` anchored at (anchor_q, anchor_s),
/// kernel (with `scratch`) against oracle; returns the kernel's.
GappedExtension expect_dp_matches_oracle(const DpCase& c, const std::string& qs,
                                         const std::string& ss,
                                         std::uint32_t anchor_q,
                                         std::uint64_t anchor_s,
                                         GappedScratch& scratch) {
  const auto q = seqdb::encode_sequence(c.type, qs);
  const auto s = seqdb::encode_sequence(c.type, ss);
  const auto a = oracle::extend_gapped(q, s, anchor_q, anchor_s, c.matrix,
                                       c.open, c.extend, c.xdrop);
  const auto b = extend_gapped_fast(q, s, anchor_q, anchor_s, c.matrix,
                                    c.open, c.extend, c.xdrop, scratch);
  SCOPED_TRACE(testing::Message()
               << "q=" << qs << " s=" << ss << " anchor=(" << anchor_q << ","
               << anchor_s << ") open=" << c.open << " ext=" << c.extend
               << " xdrop=" << c.xdrop);
  expect_gapped_identical(a, b);
  EXPECT_EQ(replay_gapped_score(b, q, s, c.matrix, c.open, c.extend),
            b.score);
  return b;
}

/// `rounds` queries of 8-80 residues, each against a relative embedded in a
/// subject 4-20 times as long, anchored on the relative's first residue or
/// at random inside it. `gaps` picks each round's (open, extend, xdrop).
template <typename Gaps>
void fuzz_long_subjects(std::uint32_t seed, int rounds,
                        const ScoringMatrix& matrix, SeqType type, Gaps gaps) {
  std::mt19937 rng(seed);
  GappedScratch scratch;
  for (int round = 0; round < rounds; ++round) {
    const auto [open, extend, xdrop] = gaps(rng);
    const std::string qs = runny_sequence(rng, type, 8 + rng() % 73, 0.3);
    std::size_t at = 0;
    const std::string ss =
        embed_relative(rng, type, qs, 4 + rng() % 17, at);
    const std::uint32_t anchor_q =
        round % 2 == 0 ? 0 : static_cast<std::uint32_t>(rng() % qs.size());
    const std::uint64_t anchor_s =
        std::min<std::uint64_t>(at + anchor_q, ss.size() - 1);
    expect_dp_matches_oracle({matrix, type, open, extend, xdrop}, qs, ss,
                             anchor_q, anchor_s, scratch);
  }
}

TEST(ExtendRows, LongSubjectsRunPastThePreviousWindow) {
  const auto m = ScoringMatrix::blosum62();
  fuzz_long_subjects(0xB10C5u, 150, m, SeqType::kProtein, [](std::mt19937& r) {
    return std::tuple{11, 1, 15 + static_cast<int>(r() % 50)};
  });
}

TEST(ExtendRows, CheapGapOpensKeepRowsAlivePastTheWindow) {
  // With an open cost of 0-2 an E run outlives the diagonal by many
  // columns, so rows reach far past the previous row's window.
  const auto m = ScoringMatrix::blosum62();
  fuzz_long_subjects(0xE7A115u, 150, m, SeqType::kProtein, [](std::mt19937& r) {
    return std::tuple{static_cast<int>(r() % 3), 1 + static_cast<int>(r() % 2),
                      20 + static_cast<int>(r() % 40)};
  });
}

TEST(ExtendRows, ConstantMatrixTiesDiagonalEAndF) {
  // Every pair scores the same, so inside the band the diagonal, E and F
  // tie wherever their gap costs balance, and where each row ends depends
  // on exact E values. No gap ever helps here, so the traceback stays on
  // the diagonal: ties on traced cells are the run-rich cases' job.
  const KarlinParams kp{0.3, 0.1, 0.4};
  for (const int score : {1, 2, 3}) {
    const std::vector<int> scores(24 * 24, score);
    const auto m = ScoringMatrix::custom(24, scores, kp, kp);
    fuzz_long_subjects(0xC0DEu + score, 60, m, SeqType::kProtein,
                       [score](std::mt19937& r) {
                         const int open = static_cast<int>(r() % 3);
                         return std::tuple{open, score,
                                           10 + static_cast<int>(r() % 30)};
                       });
  }
}

TEST(ExtendRows, XdropZeroAndUnbounded) {
  // xdrop 0 kills every cell below the running best; 1 << 20 keeps the
  // whole matrix live, so every row runs to the subject's end.
  const auto prot = ScoringMatrix::blosum62();
  const auto dna = make_matrix(SearchParams::blastn_defaults());
  for (const int xdrop : {0, 1 << 20}) {
    fuzz_long_subjects(0x0D0Du + xdrop, 40, prot, SeqType::kProtein,
                       [xdrop](std::mt19937&) { return std::tuple{11, 1, xdrop}; });
    fuzz_long_subjects(0x0D1Du + xdrop, 40, dna, SeqType::kNucleotide,
                       [xdrop](std::mt19937&) { return std::tuple{5, 2, xdrop}; });
  }
}

TEST(ExtendRows, BlastnMatrixOnRunnyDna) {
  // +1/-3 over four letters with runs: indels inside runs put ties on the
  // traceback at almost every gap.
  const auto m = make_matrix(SearchParams::blastn_defaults());
  fuzz_long_subjects(0xD7Au, 150, m, SeqType::kNucleotide, [](std::mt19937& r) {
    return std::tuple{static_cast<int>(r() % 6), 1 + static_cast<int>(r() % 2),
                      10 + static_cast<int>(r() % 30)};
  });
}

TEST(ExtendRows, ScratchReusedAsSubjectsShrinkAndGrow) {
  // One scratch across subjects that shrink and then grow: its rows, the
  // traceback arena and the H/F/score columns keep what earlier, longer
  // calls left, and every call must still match the oracle.
  std::mt19937 rng(0x5C7A7Cu);
  const auto m = ScoringMatrix::blosum62();
  GappedScratch scratch;
  const std::string qs = runny_sequence(rng, SeqType::kProtein, 60, 0.3);
  for (const std::size_t factor : {20u, 8u, 1u, 4u, 12u, 20u}) {
    for (int round = 0; round < 6; ++round) {
      std::size_t at = 0;
      const std::string ss =
          embed_relative(rng, SeqType::kProtein, qs, factor, at);
      const std::uint32_t anchor_q = static_cast<std::uint32_t>(rng() % qs.size());
      const std::uint64_t anchor_s =
          std::min<std::uint64_t>(at + anchor_q, ss.size() - 1);
      expect_dp_matches_oracle({m, SeqType::kProtein, 11, 1, 38}, qs, ss,
                               anchor_q, anchor_s, scratch);
    }
  }
}

// ---------- the gapped DP's two lane widths -----------------------------------
//
// extend_gapped_fast runs a pass in int16 lanes, relative to a bias it
// re-bases as the score climbs, when gapped_fits_int16 holds, and in int32
// lanes otherwise (DESIGN "Kernel fast path", item 3). These cases pin the
// width choice at the edge of the int16 bound, run each width at that
// edge, make the int16 lanes re-bias on long alignments of both sequence
// types, and run both widths with free gap opens and a zero X-drop.

/// BLOSUM62 times 93 (entries up to 1023) with W/W raised to `span`, so
/// the matrix's score span is exactly `span`.
ScoringMatrix span_matrix(int span) {
  const auto b62 = ScoringMatrix::blosum62();
  std::vector<int> scores(24 * 24);
  for (std::uint8_t a = 0; a < 24; ++a)
    for (std::uint8_t b = 0; b < 24; ++b)
      scores[a * 24u + b] = 93 * b62.score(a, b);
  const std::size_t w = seqdb::kProteinLetters.find('W');
  scores[w * 24 + w] = span;
  return ScoringMatrix::custom(24, scores, b62.ungapped(), b62.gapped());
}

/// `qs` with substitutions at `sub_rate` and 1-3 residue indels at
/// `indel_rate`: a relative that stays aligned over a long stretch.
std::string long_relative(std::mt19937& rng, SeqType type,
                          const std::string& qs, double sub_rate,
                          double indel_rate) {
  std::bernoulli_distribution sub(sub_rate), indel(indel_rate), coin(0.5);
  std::string rel;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    if (indel(rng)) {
      const std::size_t k = 1 + rng() % 3;
      if (coin(rng)) {
        i += k - 1;
        continue;
      }
      for (std::size_t t = 0; t < k; ++t) rel += random_letter(rng, type);
    }
    rel += sub(rng) ? random_letter(rng, type) : qs[i];
  }
  return rel;
}

TEST(ExtendWidths, Int16BoundIsTheDerivedLimits) {
  const auto at = span_matrix(1024);
  const auto past = span_matrix(1025);
  EXPECT_EQ(at.score_span(), 1024);
  EXPECT_EQ(past.score_span(), 1025);
  EXPECT_TRUE(gapped_fits_int16(at, 512, 512, 8192));
  EXPECT_FALSE(gapped_fits_int16(at, 512, 512, 8193));  // xdrop
  EXPECT_FALSE(gapped_fits_int16(at, 513, 512, 8192));  // open + extend
  EXPECT_FALSE(gapped_fits_int16(at, 511, 513, 8192));  // extend
  EXPECT_FALSE(gapped_fits_int16(past, 512, 512, 8192));  // score span
  // Every search the repository runs: blastp 11/1 and blastn 5/2 at the
  // X-drops its jobs use. The no-X-drop test cases take the int32 lanes.
  const auto b62 = ScoringMatrix::blosum62();
  const auto dna = make_matrix(SearchParams::blastn_defaults());
  EXPECT_EQ(b62.score_span(), 11);
  EXPECT_EQ(dna.score_span(), 3);
  for (const int xdrop : {0, 25, 30, 38}) {
    EXPECT_TRUE(gapped_fits_int16(b62, 11, 1, xdrop));
    EXPECT_TRUE(gapped_fits_int16(dna, 5, 2, xdrop));
  }
  EXPECT_FALSE(gapped_fits_int16(b62, 11, 1, 1 << 20));
}

TEST(ExtendWidths, EachWidthAtTheInt16Edge) {
  // At the bound every limit is reached at once, and scores of ~460 a
  // residue pass the re-bias point within a few dozen rows; one past it
  // on any one limit, the same passes run in int32 lanes.
  struct Edge {
    int span, open, extend, xdrop;
  };
  std::uint32_t seed = 0xED6Eu;
  for (const Edge e : {Edge{1024, 512, 512, 8192}, Edge{1024, 512, 512, 8193},
                       Edge{1024, 513, 512, 8192}, Edge{1024, 511, 513, 8192},
                       Edge{1025, 512, 512, 8192}}) {
    const auto m = span_matrix(e.span);
    SCOPED_TRACE(testing::Message() << "span " << e.span << " open " << e.open
                                    << " extend " << e.extend << " xdrop "
                                    << e.xdrop);
    fuzz_long_subjects(seed++, 30, m, SeqType::kProtein, [e](std::mt19937&) {
      return std::tuple{e.open, e.extend, e.xdrop};
    });
  }
}

TEST(ExtendWidths, LongProteinAlignmentsPassInt16Max) {
  // A self-alignment of 8,000 residues scores over 32,767, the int16
  // maximum, so the lanes re-bias at least once; so does each direction
  // of a relative's extension from its middle.
  std::mt19937 rng(0x5E1Fu);
  const auto m = ScoringMatrix::blosum62();
  GappedScratch scratch;
  const DpCase c{m, SeqType::kProtein, 11, 1, 38};
  const std::string qs = runny_sequence(rng, SeqType::kProtein, 8000, 0.1);
  EXPECT_GT(expect_dp_matches_oracle(c, qs, qs, 0, 0, scratch).score, 32767);
  const std::string ss =
      long_relative(rng, SeqType::kProtein, qs + qs, 0.02, 0.002);
  const std::uint32_t mid = static_cast<std::uint32_t>(qs.size());
  EXPECT_GT(
      expect_dp_matches_oracle(c, qs + qs, ss, mid,
                               std::min<std::uint64_t>(mid, ss.size() - 1),
                               scratch)
          .score,
      2 * 32767);
}

TEST(ExtendWidths, LongBlastnAlignmentPassesInt16Max) {
  // +1/-3 over 40,000 bases at 1% substitutions: the score passes the
  // int16 maximum, so the lanes re-bias, on the blastn costs (5/2, 30).
  std::mt19937 rng(0xB1A57u);
  const auto m = make_matrix(SearchParams::blastn_defaults());
  GappedScratch scratch;
  const std::string qs = runny_sequence(rng, SeqType::kNucleotide, 40000, 0.1);
  const std::string ss =
      long_relative(rng, SeqType::kNucleotide, qs, 0.01, 0.001);
  EXPECT_GT(expect_dp_matches_oracle({m, SeqType::kNucleotide, 5, 2, 30}, qs,
                                     ss, 0, 0, scratch)
                .score,
            32767);
}

TEST(ExtendWidths, FreeGapOpensAndZeroXdropOnBothWidths) {
  // gap_open 0 leaves E extending never ahead of E opening, so no E-from-E
  // bit; xdrop 0 kills every cell below the running best. span_matrix(1024)
  // runs in int16 lanes, span_matrix(1025) in int32 lanes.
  std::uint32_t seed = 0xF0E0u;
  for (const int span : {1024, 1025}) {
    const auto m = span_matrix(span);
    ASSERT_EQ(gapped_fits_int16(m, 0, 93, 40 * 93), span == 1024);
    fuzz_long_subjects(seed++, 40, m, SeqType::kProtein, [](std::mt19937& r) {
      return std::tuple{0, 93 * (1 + static_cast<int>(r() % 2)),
                        93 * (20 + static_cast<int>(r() % 40))};
    });
    fuzz_long_subjects(seed++, 40, m, SeqType::kProtein, [](std::mt19937& r) {
      return std::tuple{93 * (5 + static_cast<int>(r() % 4)), 93, 0};
    });
  }
}

// ---------- driver-level byte identity and golden fixtures ------------------
//
// A driver reads the kernel only through search_fragment_batch's
// per-fragment results: the hits it caches and the counters it charges as
// virtual time. So the whole-job check across kernels is the oracle diffed
// on every (query, fragment) pair the job searches, with the job's own
// fragments and query set; agreement there means an oracle-driven run would
// write the same report on the same clocks.

struct DriverWorkload {
  std::vector<seqdb::FastaRecord> db;
  std::string query_fasta;
  blast::JobConfig job;
};

DriverWorkload make_workload(SeqType type, std::uint64_t seed) {
  DriverWorkload w;
  seqdb::GeneratorConfig gen;
  gen.type = type;
  gen.target_residues = 100u << 10;
  gen.seed = seed;
  gen.family_fraction = 0.55;
  w.db = seqdb::generate_database(gen);
  w.query_fasta = seqdb::write_fasta(seqdb::sample_queries(w.db, 3u << 10, seed + 1));
  w.job.db_base = "db";
  w.job.db_title = "kernel diff db";
  w.job.query_path = "queries.fa";
  w.job.params = type == SeqType::kProtein ? SearchParams::blastp_defaults()
                                           : SearchParams::blastn_defaults();
  w.job.params.hitlist_size = 25;
  return w;
}

/// Virtual fragments of run_pio's dynamic (greedy) jobs.
constexpr int kDynamicFragments = 6;

void stage_queries(pario::ClusterStorage& storage, const DriverWorkload& w) {
  storage.shared().write_all(
      w.job.query_path,
      std::span(reinterpret_cast<const std::uint8_t*>(w.query_fasta.data()),
                w.query_fasta.size()));
}

std::vector<std::uint8_t> run_mpi(const DriverWorkload& w, int nprocs) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);
  const auto parts =
      seqdb::mpiformatdb(storage.shared(), w.db, w.job.db_base,
                         w.job.params.type, w.job.db_title, nprocs - 1);
  mpiblast::MpiBlastOptions opts;
  opts.job = w.job;
  opts.job.output_path = "out.mpi.txt";
  opts.fragment_bases = parts.fragment_bases;
  opts.fragment_ranges = parts.ranges;
  opts.global_index = parts.global_index;
  mpiblast::run_mpiblast(cluster, nprocs, storage, opts);
  return storage.shared().read_all("out.mpi.txt");
}

std::vector<std::uint8_t> run_pio(const DriverWorkload& w, int nprocs,
                                  const mpisim::FaultPlan& faults = {},
                                  mpisim::Tracer* tracer = nullptr,
                                  bool dynamic = false) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);
  seqdb::format_db(storage.shared(), w.db, w.job.db_base, w.job.params.type,
                   w.job.db_title);
  pio::PioBlastOptions opts;
  opts.job = w.job;
  opts.job.output_path = "out.pio.txt";
  opts.faults = faults;
  opts.tracer = tracer;
  if (dynamic) {
    opts.scheduler = driver::SchedulerKind::kGreedyDynamic;
    opts.job.nfragments = kDynamicFragments;
  }
  pio::run_pioblast(cluster, nprocs, storage, opts);
  return storage.shared().read_all("out.pio.txt");
}

enum class Driver { kMpi, kPio };

/// The `nfragments` fragments a job of `driver` searches, rebuilt outside
/// the simulator the way pbbench's kernel probe rebuilds them: mpiBLAST's
/// physical fragments (mpiformatdb volumes) or pioBLAST's virtual ones
/// (byte ranges of one formatted database), plus the global statistics the
/// job's QuerySet is built against.
struct JobFragments {
  std::vector<seqdb::LoadedFragment> frags;
  GlobalDbStats stats;
};

JobFragments job_fragments(const DriverWorkload& w, Driver driver,
                           int nfragments) {
  const SeqType type = w.job.params.type;
  pario::VirtualFS fs;
  JobFragments out;
  if (driver == Driver::kMpi) {
    const auto parts = seqdb::mpiformatdb(fs, w.db, w.job.db_base, type,
                                          w.job.db_title, nfragments);
    out.stats = {parts.global_index.total_residues, parts.global_index.num_seqs};
    for (std::size_t i = 0; i < parts.fragment_bases.size(); ++i)
      out.frags.push_back(seqdb::load_volumes(fs, parts.fragment_bases[i], type,
                                              parts.ranges[i].first));
    return out;
  }
  const auto fmt =
      seqdb::format_db(fs, w.db, w.job.db_base, type, w.job.db_title);
  const seqdb::VolumeNames names = seqdb::volume_names(w.job.db_base, type);
  out.stats = {fmt.index.total_residues, fmt.index.num_seqs};
  seqdb::DbIndex header;
  header.type = type;
  auto slice = [&](const std::string& file, const pario::Region& r) {
    return fs.pread(file, r.offset, r.length);
  };
  for (const auto& r : seqdb::virtual_partition(fmt.index, nfragments))
    out.frags.push_back(seqdb::fragment_from_slices(
        header, r, slice(names.index, r.pin_seq_off),
        slice(names.index, r.pin_hdr_off), slice(names.sequence, r.psq),
        slice(names.header, r.phr)));
  return out;
}

/// The kernel and the oracle agree on every (query, fragment) pair of a
/// job of `driver` over `nfragments` fragments.
void expect_job_matches_oracle(const DriverWorkload& w, Driver driver,
                               int nfragments) {
  const JobFragments job = job_fragments(w, driver, nfragments);
  ASSERT_EQ(job.frags.size(), static_cast<std::size_t>(nfragments));
  const auto set = QuerySet::build(w.query_fasta, w.job.params, job.stats);
  const oracle::ScalarBatch scalar(set->contexts());
  const std::string job_name = driver == Driver::kMpi ? "mpi" : "pio";
  std::size_t hsps = 0;
  for (std::size_t f = 0; f < job.frags.size(); ++f) {
    const auto fast = search_fragment_batch(set->contexts(), job.frags[f]);
    for (std::size_t i = 0; i < fast.size(); ++i) {
      const std::string label = job_name + " fragment " + std::to_string(f) +
                                " query " + std::to_string(i);
      expect_results_identical(scalar.search(i, job.frags[f]), fast[i],
                               label.c_str());
      hsps += fast[i].hsps.size();
    }
  }
  EXPECT_GT(hsps, 0u);
}

TEST(KernelDriverDiff, BothDriversByteIdenticalAcrossKernels) {
  const auto w = make_workload(SeqType::kProtein, 2024);
  const auto mpi = run_mpi(w, 4);
  const auto pio = run_pio(w, 4);
  ASSERT_FALSE(mpi.empty());
  EXPECT_EQ(mpi, pio);  // the drivers agree
  // Across kernels: each job's three fragments, mpiBLAST's and pioBLAST's.
  expect_job_matches_oracle(w, Driver::kMpi, 3);
  expect_job_matches_oracle(w, Driver::kPio, 3);
}

using test_support::nth_work_request_event;

TEST(KernelDriverDiff, IdenticalAcrossKernelsUnderWorkerCrash) {
  const auto w = make_workload(SeqType::kProtein, 2025);
  const int nprocs = 4, victim = 3;

  // Probe (armed detector) to find a mid-serve-loop crash point.
  mpisim::FaultPlan armed;
  armed.arm_detector = true;
  mpisim::Tracer probe;
  const auto baseline = run_pio(w, nprocs, armed, &probe, true);
  ASSERT_FALSE(baseline.empty());
  const std::uint64_t crash_at = nth_work_request_event(probe, victim, 2);
  ASSERT_GT(crash_at, 0u);

  mpisim::FaultPlan faults;
  faults.at(victim).crash_at = crash_at;
  const auto crashed = run_pio(w, nprocs, faults, nullptr, true);
  EXPECT_EQ(crashed, baseline);  // recovery preserves the report
  // Across kernels: the crashed job searches the same virtual fragments
  // (the victim's lost ones again, on survivors), so the oracle diff over
  // them covers the crashed run too.
  expect_job_matches_oracle(w, Driver::kPio, kDynamicFragments);
}

// Golden fixtures: committed reports the drivers must reproduce exactly.
// Regenerate (after an intentional output change) with
//   PIOBLAST_UPDATE_GOLDEN=1 ./test_kernel_diff --gtest_filter='KernelGolden.*'
void check_golden(const char* name, const std::vector<std::uint8_t>& bytes) {
  const std::string path = std::string(PIOBLAST_TEST_DATA_DIR "/") + name;
  if (std::getenv("PIOBLAST_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good()) << "failed to write " << path;
    GTEST_SKIP() << "updated golden fixture " << path;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden fixture " << path
                        << " (run with PIOBLAST_UPDATE_GOLDEN=1 to create)";
  std::vector<std::uint8_t> expected(
      (std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, expected) << "report diverged from " << path;
}

TEST(KernelGolden, ProteinReportBothKernels) {
  const auto w = make_workload(SeqType::kProtein, 777);
  check_golden("golden_protein_report.txt", run_pio(w, 3));
  check_golden("golden_protein_report.txt", run_mpi(w, 3));
  expect_job_matches_oracle(w, Driver::kPio, 2);
  expect_job_matches_oracle(w, Driver::kMpi, 2);
}

TEST(KernelGolden, DnaReportBothKernels) {
  const auto w = make_workload(SeqType::kNucleotide, 778);
  check_golden("golden_dna_report.txt", run_pio(w, 3));
  expect_job_matches_oracle(w, Driver::kPio, 2);
}

// ---------- the oracle's word index ------------------------------------------

std::vector<std::uint8_t> prot(const std::string& s) {
  return seqdb::encode_sequence(SeqType::kProtein, s);
}
std::vector<std::uint8_t> dna(const std::string& s) {
  return seqdb::encode_sequence(SeqType::kNucleotide, s);
}

TEST(WordIndex, SelfWordsAlwaysIndexed) {
  // Every query 3-mer scores at least T=11 against itself... not all do
  // (e.g. AAA scores 12, but e.g. "AGS" = 4+6+4 = 14). Use a word with a
  // high self-score and check its own position is found.
  const auto q = prot("WWWCCC");
  const auto m = ScoringMatrix::blosum62();
  const oracle::WordIndex idx(q, m, SearchParams::blastp_defaults());
  const auto* hits = idx.probe(q.data());  // WWW, self-score 33
  ASSERT_NE(hits, nullptr);
  EXPECT_NE(std::find(hits->begin(), hits->end(), 0u), hits->end());
}

TEST(WordIndex, NeighborhoodContainsSimilarWords) {
  const auto q = prot("ILV");  // hydrophobic triple
  const auto m = ScoringMatrix::blosum62();
  const oracle::WordIndex idx(q, m, SearchParams::blastp_defaults());
  // VLV scores 3+4+4 = 11 >= T: should be in ILV's neighborhood.
  const auto w = prot("VLV");
  const auto* hits = idx.probe(w.data());
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ((*hits)[0], 0u);
}

TEST(WordIndex, DissimilarWordsExcluded) {
  const auto q = prot("WWW");
  const auto m = ScoringMatrix::blosum62();
  const oracle::WordIndex idx(q, m, SearchParams::blastp_defaults());
  const auto w = prot("GGG");  // scores -2*3 against WWW
  EXPECT_EQ(idx.probe(w.data()), nullptr);
}

TEST(WordIndex, HigherThresholdShrinksNeighborhood) {
  const auto q = prot("MKVLAWGGSTNDQERHILKF");
  const auto m = ScoringMatrix::blosum62();
  auto params = SearchParams::blastp_defaults();
  params.threshold = 11;
  const oracle::WordIndex loose(q, m, params);
  params.threshold = 13;
  const oracle::WordIndex tight(q, m, params);
  EXPECT_GT(loose.total_entries(), tight.total_entries());
}

TEST(WordIndex, ShortQueryYieldsNothing) {
  const auto q = prot("MK");
  const auto m = ScoringMatrix::blosum62();
  const oracle::WordIndex idx(q, m, SearchParams::blastp_defaults());
  EXPECT_EQ(idx.total_entries(), 0u);
}

TEST(WordIndex, DnaExactWordsOnly) {
  const std::string text = "ACGTACGTACGTAAA";
  const auto q = dna(text);
  const auto m = ScoringMatrix::dna();
  const oracle::WordIndex idx(q, m, SearchParams::blastn_defaults());
  // The word starting at 0 must be found at position 0 (and also at 4, 8
  // for this periodic sequence... position 4 shifts the word, still equal).
  const auto* hits = idx.probe(q.data());
  ASSERT_NE(hits, nullptr);
  EXPECT_NE(std::find(hits->begin(), hits->end(), 0u), hits->end());
  // A word absent from the query probes null.
  const auto other = dna("TTTTTTTTTTT");
  EXPECT_EQ(idx.probe(other.data()), nullptr);
}

TEST(WordIndex, DnaWordsWithNAreSkipped) {
  const auto q = dna("ACGTACGTACGNACGTACGTACG");
  const auto m = ScoringMatrix::dna();
  const oracle::WordIndex idx(q, m, SearchParams::blastn_defaults());
  // Words overlapping the N (positions 1..11) are not indexed; with 23
  // bases and w=11 there would be 13 words, 11 of which straddle the N.
  EXPECT_EQ(idx.total_entries(), 2u);
  const auto n_word = dna("CGTACGTACGN");
  EXPECT_EQ(idx.probe(n_word.data()), nullptr);
}

}  // namespace
}  // namespace pioblast::blast
