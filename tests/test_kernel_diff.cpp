// Differential harness for the search kernel (ctest label: kernel).
//
// The kernel (FragmentIndex + FlatNeighborhood + SWAR/arena extensions)
// must be bit-identical to the scalar reference oracle in
// tests/support/scalar_oracle.h: same HSP lists (every field, including
// tracebacks and E-value bits), same counters (virtual time). This suite
// checks that claim from four angles:
//
//   * corpus diffs — realistic family databases, protein and DNA;
//   * deterministic fuzz — randomized corpora and parameter sets, with a
//     reproduction dump to stderr on the first mismatch;
//   * properties — FlatNeighborhood vs the oracle's WordIndex under random
//     scoring matrices and thresholds, FragmentIndex codes vs scalar
//     packing, extension scores vs traceback replay;
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
#include <vector>

#include "blast/engine.h"
#include "blast/extend.h"
#include "blast/fragment_index.h"
#include "blast/query_set.h"
#include "blast/seed.h"
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
      if (s.empty()) s = "A";  // formatted volumes hold non-empty sequences
      db.push_back({"f" + std::to_string(i), "", std::move(s)});
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
      if (s.empty()) s = "A";
      db.push_back({"f" + std::to_string(i), "", std::move(s)});
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

TEST(KernelDiff, ThousandsOfShortQueriesMatchScalar) {
  // More queries than the protein batch's query-id tag holds (1024): the
  // fast kernel runs them in sub-batches, each with its own neighborhood.
  const auto db = family_db(4 * kSplitGrainResidues, 151);
  const auto frag = whole_db(db);
  const auto gstats = stats_of(db);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  std::vector<QueryContext> contexts;
  for (std::size_t i = 0; contexts.size() < 1100; ++i) {
    const std::string& s = db[i % db.size()].sequence;
    const std::size_t off = (i * 7) % (s.size() > 40 ? s.size() - 40 : 1);
    const auto q = seqdb::encode_sequence(SeqType::kProtein, s.substr(off, 40));
    contexts.emplace_back(static_cast<std::uint32_t>(contexts.size()), q,
                          params, m, gstats);
  }
  expect_batch_matches_scalar(PreparedBatch(std::move(contexts)), frag,
                              "1100 queries");
}

// ---------- prepared batches -------------------------------------------------
//
// A QuerySet prepares its batch once per job and every fragment search only
// reads it. pioBLAST at thousands of ranks makes thousands of calls on one
// set, each on a fragment below the split threshold, and the threads
// backend makes them from several rank threads at once.

/// `db` cut into residue-balanced fragments of about `residues` each.
std::vector<seqdb::LoadedFragment> cut_into_fragments(
    const std::vector<seqdb::FastaRecord>& db, std::uint64_t residues) {
  pario::VirtualFS fs;
  const auto parts = seqdb::mpiformatdb(
      fs, db, "cut", SeqType::kProtein, "t",
      static_cast<int>(stats_of(db).total_residues / residues));
  std::vector<seqdb::LoadedFragment> frags;
  for (std::size_t i = 0; i < parts.fragment_bases.size(); ++i) {
    frags.push_back(seqdb::load_volumes(fs, parts.fragment_bases[i],
                                        SeqType::kProtein,
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

// ---------- FlatNeighborhood / FragmentIndex properties ---------------------

TEST(FlatNeighborhoodProperty, MatchesWordIndexUnderRandomMatrices) {
  std::mt19937 rng(0xF1A7u);
  std::uniform_int_distribution<int> cell(-5, 7);
  std::uniform_int_distribution<int> thr(-2, 18);
  std::uniform_int_distribution<std::size_t> qlen(0, 80);

  const KarlinParams kp{0.27, 0.04, 0.25};
  for (int round = 0; round < 20; ++round) {
    std::vector<int> scores(24 * 24);
    for (int& v : scores) v = cell(rng);
    const auto m = ScoringMatrix::custom(24, scores, kp, kp);

    auto params = SearchParams::blastp_defaults();
    params.threshold = thr(rng);
    const std::string qs =
        random_sequence(rng, SeqType::kProtein, qlen(rng), 0.05);
    const auto q = seqdb::encode_sequence(SeqType::kProtein, qs);

    const oracle::WordIndex words(q, m, params);
    const FlatNeighborhood flat(q, m, params);

    EXPECT_EQ(flat.total_entries(), words.total_entries());
    // Every packed word's bucket must equal the oracle's position list —
    // same contents, same (query-position-ascending) order.
    for (std::uint32_t code = 0; code < 24u * 24u * 24u; ++code) {
      const std::uint8_t word[3] = {
          static_cast<std::uint8_t>(code / (24 * 24)),
          static_cast<std::uint8_t>((code / 24) % 24),
          static_cast<std::uint8_t>(code % 24)};
      const oracle::PositionList* expected =
          q.size() >= 3 ? words.probe(word) : nullptr;
      const auto got = flat.neighbors(code);
      if (expected == nullptr) {
        EXPECT_TRUE(got.empty()) << "code " << code;
      } else {
        ASSERT_EQ(got.size(), expected->size()) << "code " << code;
        for (std::size_t k = 0; k < got.size(); ++k)
          EXPECT_EQ(got[k], (*expected)[k]) << "code " << code << " entry " << k;
      }
    }
  }
}

TEST(FlatNeighborhoodProperty, OffsetsMonotoneAndCovering) {
  std::mt19937 rng(0x0FF5E75u);
  const auto m = ScoringMatrix::blosum62();
  const auto params = SearchParams::blastp_defaults();
  for (int round = 0; round < 10; ++round) {
    const std::string qs = random_sequence(
        rng, SeqType::kProtein, 20 + static_cast<std::size_t>(rng() % 120), 0.05);
    const auto q = seqdb::encode_sequence(SeqType::kProtein, qs);
    const FlatNeighborhood flat(q, m, params);
    const auto offsets = flat.offsets();
    ASSERT_EQ(offsets.size(), 24u * 24u * 24u + 1);
    EXPECT_EQ(offsets.front(), 0u);
    for (std::size_t i = 1; i < offsets.size(); ++i)
      EXPECT_LE(offsets[i - 1], offsets[i]) << "offset " << i;
    EXPECT_EQ(offsets.back(), flat.entries().size());
    // Every entry is a valid word start position.
    for (const std::uint32_t pos : flat.entries())
      EXPECT_LE(pos + 3, q.size());
  }
}

TEST(FlatNeighborhoodProperty, DnaMatchesWordIndex) {
  std::mt19937 rng(0xD7A5u);
  for (int round = 0; round < 15; ++round) {
    auto params = SearchParams::blastn_defaults();
    params.word_size = 4 + static_cast<int>(rng() % 9);
    const auto m = make_matrix(params);
    const std::string qs = random_sequence(
        rng, SeqType::kNucleotide, static_cast<std::size_t>(rng() % 200), 0.1);
    const auto q = seqdb::encode_sequence(SeqType::kNucleotide, qs);

    const oracle::WordIndex words(q, m, params);
    const FlatNeighborhood flat(q, m, params);
    EXPECT_EQ(flat.total_entries(), words.total_entries());

    // Keys sorted strictly ascending.
    const auto keys = flat.keys();
    for (std::size_t i = 1; i < keys.size(); ++i)
      EXPECT_LT(keys[i - 1], keys[i]);

    // Probe every subject position of the query against both structures.
    const std::size_t w = static_cast<std::size_t>(params.word_size);
    if (q.size() < w) continue;
    for (std::size_t pos = 0; pos + w <= q.size(); ++pos) {
      const oracle::PositionList* expected = words.probe(q.data() + pos);
      bool valid = true;
      std::uint64_t packed = 0;
      for (std::size_t k = 0; k < w; ++k) {
        if (q[pos + k] >= 4) { valid = false; break; }
        packed = (packed << 2) | q[pos + k];
      }
      const auto got = valid ? flat.neighbors_packed(packed)
                             : std::span<const std::uint32_t>{};
      if (expected == nullptr) {
        EXPECT_TRUE(got.empty()) << "pos " << pos;
      } else {
        ASSERT_EQ(got.size(), expected->size()) << "pos " << pos;
        for (std::size_t k = 0; k < got.size(); ++k)
          EXPECT_EQ(got[k], (*expected)[k]) << "pos " << pos;
      }
    }
  }
}

TEST(FragmentIndexProperty, CodesMatchScalarPacking) {
  const auto db = family_db(20'000, 113);
  const auto frag = whole_db(db);
  const auto params = SearchParams::blastp_defaults();
  const FragmentIndex index(frag, params);
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
  const FragmentIndex index(frag, params);
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
