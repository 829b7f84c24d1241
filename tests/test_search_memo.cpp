// The job-level search memo (ctest label: kernel).
//
// driver::SearchMemo searches a job's fragments on every core before its
// ranks start, and each rank's search takes its fragment's results from
// it. These tests hold it to its contract: a take returns exactly the
// kernel's results, once; a fragment it does not know, or knows with other
// bytes, misses; takes race safely from many threads. Then, through both
// drivers, a job with default options answers every search from the memo,
// and a crashed worker's requeued range misses and is searched again
// without changing the report.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "blast/query_set.h"
#include "driver/search_memo.h"
#include "mpiblast/mpiblast.h"
#include "pario/vfs.h"
#include "pioblast/pioblast.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "support/trace_probe.h"

namespace pioblast {
namespace {

using blast::FragmentSearchResult;
using seqdb::SeqType;

std::vector<seqdb::FastaRecord> family_db(std::uint64_t residues,
                                          std::uint64_t seed) {
  seqdb::GeneratorConfig cfg;
  cfg.target_residues = residues;
  cfg.seed = seed;
  cfg.family_fraction = 0.55;
  return seqdb::generate_database(cfg);
}

blast::GlobalDbStats stats_of(const std::vector<seqdb::FastaRecord>& db) {
  blast::GlobalDbStats s;
  s.num_seqs = db.size();
  for (const auto& r : db) s.total_residues += r.sequence.size();
  return s;
}

/// `db` formatted and cut into `n` physical fragments.
std::vector<seqdb::LoadedFragment> fragments_of(
    const std::vector<seqdb::FastaRecord>& db, int n) {
  pario::VirtualFS fs;
  const auto parts = seqdb::mpiformatdb(fs, db, "db", SeqType::kProtein, "t", n);
  std::vector<seqdb::LoadedFragment> frags;
  for (std::size_t i = 0; i < parts.fragment_bases.size(); ++i)
    frags.push_back(seqdb::load_volumes(fs, parts.fragment_bases[i],
                                        SeqType::kProtein,
                                        parts.ranges[i].first));
  return frags;
}

/// Same HSPs (the fields a report prints) and the same counters.
void expect_same(const std::vector<FragmentSearchResult>& a,
                 const std::vector<FragmentSearchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].hsps.size(), b[q].hsps.size()) << "query " << q;
    for (std::size_t h = 0; h < a[q].hsps.size(); ++h) {
      const blast::Hsp& x = a[q].hsps[h];
      const blast::Hsp& y = b[q].hsps[h];
      EXPECT_EQ(x.subject_global_id, y.subject_global_id);
      EXPECT_EQ(x.score, y.score);
      EXPECT_EQ(x.qstart, y.qstart);
      EXPECT_EQ(x.sstart, y.sstart);
      EXPECT_EQ(x.ops, y.ops);
    }
    EXPECT_EQ(a[q].counters.seed_hits, b[q].counters.seed_hits);
    EXPECT_EQ(a[q].counters.gapped_cells, b[q].counters.gapped_cells);
    EXPECT_EQ(a[q].counters.hsps_found, b[q].counters.hsps_found);
  }
}

struct MemoFixture {
  std::vector<seqdb::FastaRecord> db;
  std::shared_ptr<const blast::QuerySet> queries;

  MemoFixture() : db(family_db(12'000, 181)) {
    queries = blast::QuerySet::build(
        seqdb::write_fasta(seqdb::sample_queries(db, 1024, 7)),
        blast::SearchParams::blastp_defaults(), stats_of(db));
  }
};

TEST(SearchMemo, TakeReturnsKernelResultsOnce) {
  const MemoFixture fx;
  const auto frags = fragments_of(fx.db, 6);
  driver::SearchMemo memo;
  memo.fill(fx.queries->contexts(), frags);
  std::size_t hsps = 0;
  for (const auto& frag : frags) {
    auto taken = memo.take(frag);
    ASSERT_TRUE(taken.has_value());
    expect_same(*taken,
                blast::search_fragment_batch(fx.queries->contexts(), frag));
    for (const auto& r : *taken) hsps += r.hsps.size();
  }
  EXPECT_GT(hsps, 0u);
  EXPECT_EQ(memo.misses(), 0u);
  // A second search of a fragment (a requeued range) misses.
  EXPECT_FALSE(memo.take(frags[2]).has_value());
  EXPECT_EQ(memo.misses(), 1u);
}

TEST(SearchMemo, UnknownFirstSequenceMisses) {
  const MemoFixture fx;
  auto frags = fragments_of(fx.db, 3);
  pario::VirtualFS fs;
  seqdb::format_db(fs, fx.db, "whole", SeqType::kProtein, "t");
  driver::SearchMemo memo;
  memo.fill(fx.queries->contexts(), std::move(frags));
  // The whole database starts at sequence 0 like the first fragment, but
  // holds other bytes; shifted to start past every fragment it is unknown.
  EXPECT_FALSE(memo.take(seqdb::load_volumes(fs, "whole", SeqType::kProtein,
                                             fx.db.size() + 5))
                   .has_value());
  EXPECT_FALSE(
      memo.take(seqdb::load_volumes(fs, "whole", SeqType::kProtein, 0))
          .has_value());
  EXPECT_EQ(memo.misses(), 2u);
}

TEST(SearchMemo, OneChangedResidueMisses) {
  const MemoFixture fx;
  const auto frags = fragments_of(fx.db, 3);
  driver::SearchMemo memo;
  memo.fill(fx.queries->contexts(), frags);

  // The same cut of a database that differs in one residue of the middle
  // fragment's first sequence.
  auto changed = fx.db;
  const std::uint64_t victim = frags[1].first_global_seq();
  std::string& seq = changed[victim].sequence;
  seq[seq.size() / 2] = seq[seq.size() / 2] == 'W' ? 'A' : 'W';
  const auto altered = fragments_of(changed, 3);
  ASSERT_EQ(altered[1].first_global_seq(), victim);

  EXPECT_FALSE(memo.take(altered[1]).has_value());
  EXPECT_EQ(memo.misses(), 1u);
  // The unchanged fragments still hit, and so does the original.
  EXPECT_TRUE(memo.take(altered[0]).has_value());
  EXPECT_TRUE(memo.take(frags[1]).has_value());
  EXPECT_EQ(memo.misses(), 1u);
}

TEST(SearchMemo, ConcurrentTakesAnswerEachFragmentOnce) {
  // Four threads race for every entry, as the threads backend's worker
  // threads would if each fragment were searched four times: each entry
  // goes to exactly one of them, with the kernel's results.
  const MemoFixture fx;
  const auto frags = fragments_of(fx.db, 16);
  driver::SearchMemo memo;
  memo.fill(fx.queries->contexts(), frags);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<FragmentSearchResult>>> got(kThreads);
  std::vector<std::vector<bool>> won(kThreads,
                                     std::vector<bool>(frags.size(), false));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].resize(frags.size());
      for (std::size_t k = 0; k < frags.size(); ++k) {
        const std::size_t f = (k + t * 5) % frags.size();
        if (auto taken = memo.take(frags[f])) {
          got[t][f] = std::move(*taken);
          won[t][f] = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t f = 0; f < frags.size(); ++f) {
    std::size_t winners = 0;
    for (std::size_t t = 0; t < kThreads; ++t) {
      if (!won[t][f]) continue;
      ++winners;
      expect_same(got[t][f], blast::search_fragment_batch(
                                 fx.queries->contexts(), frags[f]));
    }
    EXPECT_EQ(winners, 1u) << "fragment " << f;
  }
  EXPECT_EQ(memo.misses(), (kThreads - 1) * frags.size());
}

// ---------- through the drivers ---------------------------------------------

struct Job {
  std::vector<seqdb::FastaRecord> db;
  std::string queries;
  blast::JobConfig job;
};

const Job& job() {
  static const Job* j = [] {
    auto* out = new Job();
    out->db = family_db(80u << 10, 191);
    out->queries = seqdb::write_fasta(seqdb::sample_queries(out->db, 3u << 10, 5));
    out->job.db_base = "db";
    out->job.query_path = "queries.fa";
    out->job.output_path = "out.txt";
    out->job.params = blast::SearchParams::blastp_defaults();
    return out;
  }();
  return *j;
}

struct JobRun {
  blast::DriverResult result;
  std::vector<std::uint8_t> report;
};

JobRun run_pio(int nprocs, pio::PioBlastOptions opts) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, nprocs);
  const Job& j = job();
  storage.shared().write_all(
      j.job.query_path,
      std::span(reinterpret_cast<const std::uint8_t*>(j.queries.data()),
                j.queries.size()));
  seqdb::format_db(storage.shared(), j.db, j.job.db_base, SeqType::kProtein,
                   "t");
  const int nfragments = opts.job.nfragments;
  opts.job = j.job;
  opts.job.nfragments = nfragments;
  JobRun run;
  run.result = pio::run_pioblast(cluster, nprocs, storage, opts);
  run.report = storage.shared().read_all(j.job.output_path);
  return run;
}

pio::PioBlastOptions greedy(int nfragments) {
  pio::PioBlastOptions opts;
  opts.scheduler = driver::SchedulerKind::kGreedyDynamic;
  opts.job.nfragments = nfragments;
  return opts;
}

TEST(SearchMemoDrivers, PioBlastStaticAnswersEverySearch) {
  const JobRun run = run_pio(5, {});
  ASSERT_FALSE(run.report.empty());
  EXPECT_EQ(run.result.memo_misses, 0u);
}

TEST(SearchMemoDrivers, PioBlastGreedyWithMoreFragmentsThanWorkers) {
  const JobRun run = run_pio(4, greedy(11));
  EXPECT_EQ(run.report, run_pio(4, {}).report);
  EXPECT_EQ(run.result.memo_misses, 0u);
}

TEST(SearchMemoDrivers, PioBlastCollectiveInputAnswersEverySearch) {
  pio::PioBlastOptions opts;
  opts.collective_input = true;
  opts.job.nfragments = 7;
  const JobRun run = run_pio(4, opts);
  EXPECT_EQ(run.report, run_pio(4, {}).report);
  EXPECT_EQ(run.result.memo_misses, 0u);
}

TEST(SearchMemoDrivers, MpiBlastAnswersEverySearch) {
  const int nprocs = 5;
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, nprocs);
  const Job& j = job();
  storage.shared().write_all(
      j.job.query_path,
      std::span(reinterpret_cast<const std::uint8_t*>(j.queries.data()),
                j.queries.size()));
  const auto parts = seqdb::mpiformatdb(storage.shared(), j.db, j.job.db_base,
                                        SeqType::kProtein, "t", nprocs - 1);
  mpiblast::MpiBlastOptions opts;
  opts.job = j.job;
  opts.fragment_bases = parts.fragment_bases;
  opts.fragment_ranges = parts.ranges;
  opts.global_index = parts.global_index;
  const auto result = mpiblast::run_mpiblast(cluster, nprocs, storage, opts);
  EXPECT_EQ(result.memo_misses, 0u);
  EXPECT_EQ(storage.shared().read_all(j.job.output_path), run_pio(5, {}).report);
}

TEST(SearchMemoDrivers, RequeuedRangeAfterWorkerCrashMissesAndReportHolds) {
  // A worker dies at its second work request, after searching its first
  // range: the master requeues that range on a survivor, whose search
  // misses (the entry is taken) and runs the kernel itself.
  const int nprocs = 4, victim = 2;
  pio::PioBlastOptions probe_opts = greedy(9);
  probe_opts.faults.arm_detector = true;
  mpisim::Tracer probe;
  probe_opts.tracer = &probe;
  const JobRun baseline = run_pio(nprocs, probe_opts);
  EXPECT_EQ(baseline.result.memo_misses, 0u);
  const std::uint64_t crash_at =
      test_support::nth_work_request_event(probe, victim, 2);
  ASSERT_GT(crash_at, 0u);

  pio::PioBlastOptions opts = greedy(9);
  opts.faults.at(victim).crash_at = crash_at;
  const JobRun crashed = run_pio(nprocs, opts);
  EXPECT_EQ(crashed.report, baseline.report);
  ASSERT_EQ(crashed.result.metrics.at("ranks_lost"), 1u);
  const std::uint64_t requeued = crashed.result.metrics.at("tasks_reassigned");
  EXPECT_GE(crashed.result.memo_misses, 1u);
  EXPECT_LE(crashed.result.memo_misses, requeued);
}

}  // namespace
}  // namespace pioblast
