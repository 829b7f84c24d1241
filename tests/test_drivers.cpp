// Integration tests of the two parallel BLAST drivers.
//
// The central correctness claim of the paper — "given the same input query
// and database, pioBLAST and mpiBLAST generate the same output" — is
// asserted byte-for-byte here, across process counts, fragment counts,
// cluster types, sequence types, and the optional pioBLAST extensions.
// Phase-structure claims (copy stage vs input stage, serialized vs
// parallel output) are asserted on the virtual-time breakdowns.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "blast/job.h"
#include "driver/scheduler.h"
#include "mpiblast/mpiblast.h"
#include "pioblast/pioblast.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"

namespace pioblast {
namespace {

struct Workload {
  std::vector<seqdb::FastaRecord> db;
  std::vector<seqdb::FastaRecord> queries;
  std::string query_fasta;
  blast::JobConfig job;
};

/// Builds the (expensive) protein workload once for the whole suite.
const Workload& protein_workload() {
  static const Workload* w = [] {
    auto* wl = new Workload();
    seqdb::GeneratorConfig gen;
    gen.target_residues = 300u << 10;
    gen.seed = 1234;
    gen.family_fraction = 0.55;
    wl->db = seqdb::generate_database(gen);
    wl->queries = seqdb::sample_queries(wl->db, 6u << 10, 99);
    wl->query_fasta = seqdb::write_fasta(wl->queries);
    wl->job.db_base = "nr";
    wl->job.db_title = "synthetic nr";
    wl->job.query_path = "queries.fa";
    wl->job.params = blast::SearchParams::blastp_defaults();
    wl->job.params.hitlist_size = 30;
    return wl;
  }();
  return *w;
}

void stage_queries(pario::ClusterStorage& storage, const Workload& w) {
  storage.shared().write_all(
      w.job.query_path,
      std::span(reinterpret_cast<const std::uint8_t*>(w.query_fasta.data()),
                w.query_fasta.size()));
}

blast::DriverResult run_mpi(
    const sim::ClusterConfig& cluster, int nprocs,
    pario::ClusterStorage& storage, const Workload& w, int nfragments,
    driver::SchedulerKind sched = driver::SchedulerKind::kGreedyDynamic) {
  const auto parts =
      seqdb::mpiformatdb(storage.shared(), w.db, w.job.db_base,
                         w.job.params.type, w.job.db_title, nfragments);
  mpiblast::MpiBlastOptions opts;
  opts.job = w.job;
  opts.job.output_path = "out.mpi.txt";
  opts.fragment_bases = parts.fragment_bases;
  opts.fragment_ranges = parts.ranges;
  opts.global_index = parts.global_index;
  opts.scheduler = sched;
  return mpiblast::run_mpiblast(cluster, nprocs, storage, opts);
}

blast::DriverResult run_pio(const sim::ClusterConfig& cluster, int nprocs,
                            pario::ClusterStorage& storage, const Workload& w,
                            pio::PioBlastOptions opts = {}) {
  seqdb::format_db(storage.shared(), w.db, w.job.db_base, w.job.params.type,
                   w.job.db_title);
  opts.job = w.job;
  opts.job.nfragments = opts.job.nfragments ? opts.job.nfragments : 0;
  opts.job.output_path = "out.pio.txt";
  return pio::run_pioblast(cluster, nprocs, storage, opts);
}

// The byte-identity matrix: every (process count, scheduler policy) pair
// must produce the same report from both drivers. Output is partition- and
// schedule-invariant because the merge orders (Hsp::better,
// CandidateMeta::better) are total.
class DriverEquivalence
    : public ::testing::TestWithParam<std::tuple<int, driver::SchedulerKind>> {
};

TEST_P(DriverEquivalence, IdenticalOutputAcrossProcessCounts) {
  const int nprocs = std::get<0>(GetParam());
  const driver::SchedulerKind sched = std::get<1>(GetParam());
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);

  const auto mpi = run_mpi(cluster, nprocs, storage, w, nprocs - 1, sched);
  pio::PioBlastOptions popts;
  popts.scheduler = sched;
  const auto pio = run_pio(cluster, nprocs, storage, w, popts);

  const auto a = storage.shared().read_all("out.mpi.txt");
  const auto b = storage.shared().read_all("out.pio.txt");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(mpi.output_bytes, pio.output_bytes);
  EXPECT_EQ(mpi.alignments_reported, pio.alignments_reported);
}

INSTANTIATE_TEST_SUITE_P(
    ProcCounts, DriverEquivalence,
    ::testing::Combine(::testing::Values(2, 3, 5, 9),
                       ::testing::Values(driver::SchedulerKind::kGreedyDynamic,
                                         driver::SchedulerKind::kStaticRoundRobin,
                                         driver::SchedulerKind::kSpeedWeighted)),
    [](const ::testing::TestParamInfo<std::tuple<int, driver::SchedulerKind>>&
           info) {
      std::string name = "np" + std::to_string(std::get<0>(info.param)) + "_" +
                         std::string(driver::to_string(std::get<1>(info.param)));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Drivers, OutputInvariantToFragmentCount) {
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 5;

  std::vector<std::uint8_t> reference;
  for (int f : {4, 8, 11}) {
    pario::ClusterStorage storage(cluster, nprocs);
    stage_queries(storage, w);
    run_mpi(cluster, nprocs, storage, w, f);
    pio::PioBlastOptions opts;
    opts.job.nfragments = f;
    run_pio(cluster, nprocs, storage, w, opts);
    const auto a = storage.shared().read_all("out.mpi.txt");
    const auto b = storage.shared().read_all("out.pio.txt");
    EXPECT_EQ(a, b) << "fragments=" << f;
    if (reference.empty()) {
      reference = a;
    } else {
      EXPECT_EQ(a, reference) << "fragments=" << f;
    }
  }
}

TEST(Drivers, IdenticalOutputOnBladeCluster) {
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ncsu_blade();
  const int nprocs = 5;
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);
  run_mpi(cluster, nprocs, storage, w, nprocs - 1);
  run_pio(cluster, nprocs, storage, w);
  EXPECT_EQ(storage.shared().read_all("out.mpi.txt"),
            storage.shared().read_all("out.pio.txt"));
}

TEST(Drivers, EarlyScoreBroadcastPreservesOutput) {
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 5;
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);

  const auto plain = run_pio(cluster, nprocs, storage, w);
  const auto baseline = storage.shared().read_all("out.pio.txt");

  pio::PioBlastOptions opts;
  opts.early_score_broadcast = true;
  const auto pruned = run_pio(cluster, nprocs, storage, w, opts);
  EXPECT_EQ(storage.shared().read_all("out.pio.txt"), baseline);
  // Pruning can only shrink what the master screens.
  EXPECT_LE(pruned.candidates_merged, plain.candidates_merged);
}

TEST(Drivers, DynamicSchedulingPreservesOutput) {
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 5;
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);

  run_pio(cluster, nprocs, storage, w);
  const auto baseline = storage.shared().read_all("out.pio.txt");

  pio::PioBlastOptions opts;
  opts.scheduler = driver::SchedulerKind::kGreedyDynamic;
  opts.job.nfragments = 11;  // finer granularity than workers
  const auto result = run_pio(cluster, nprocs, storage, w, opts);
  EXPECT_EQ(storage.shared().read_all("out.pio.txt"), baseline);
  EXPECT_GT(result.phases.search, 0.0);
}

TEST(Drivers, DynamicSchedulingRejectsCollectiveInput) {
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, 3);
  stage_queries(storage, w);
  pio::PioBlastOptions opts;
  opts.scheduler = driver::SchedulerKind::kGreedyDynamic;
  opts.collective_input = true;
  EXPECT_THROW(run_pio(cluster, 3, storage, w, opts), util::ContractViolation);
}

TEST(Drivers, QueryBatchingPreservesOutput) {
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 5;
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);

  run_pio(cluster, nprocs, storage, w);
  const auto baseline = storage.shared().read_all("out.pio.txt");

  for (std::uint32_t batch : {1u, 3u, 7u}) {
    pio::PioBlastOptions opts;
    opts.query_batch = batch;
    run_pio(cluster, nprocs, storage, w, opts);
    EXPECT_EQ(storage.shared().read_all("out.pio.txt"), baseline)
        << "batch=" << batch;
  }
}

TEST(Drivers, CollectiveInputPreservesOutput) {
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 5;
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);

  run_pio(cluster, nprocs, storage, w);
  const auto baseline = storage.shared().read_all("out.pio.txt");

  pio::PioBlastOptions opts;
  opts.collective_input = true;
  run_pio(cluster, nprocs, storage, w, opts);
  EXPECT_EQ(storage.shared().read_all("out.pio.txt"), baseline);
}

TEST(Drivers, TabularOutputIdenticalAcrossDrivers) {
  auto w = protein_workload();  // copy: we change the output format
  w.job.output_format = blast::OutputFormat::kTabular;
  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 5;
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);
  run_mpi(cluster, nprocs, storage, w, nprocs - 1);
  run_pio(cluster, nprocs, storage, w);
  const auto a = storage.shared().read_all("out.mpi.txt");
  const auto b = storage.shared().read_all("out.pio.txt");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // Tab-separated hit lines with 12 fields are present.
  const std::string text(a.begin(), a.end());
  const auto line_start = text.find("\nquery_");
  ASSERT_NE(line_start, std::string::npos);
  const auto line_end = text.find('\n', line_start + 1);
  const std::string line = text.substr(line_start + 1, line_end - line_start - 1);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\t'), 11) << line;
  // Tabular reports are far smaller than pairwise ones.
  pario::ClusterStorage storage2(cluster, nprocs);
  stage_queries(storage2, protein_workload());
  run_pio(cluster, nprocs, storage2, protein_workload());
  EXPECT_LT(a.size(), storage2.shared().read_all("out.pio.txt").size() / 4);
}

TEST(Drivers, NucleotideModeIdenticalOutput) {
  Workload w;
  seqdb::GeneratorConfig gen;
  gen.type = seqdb::SeqType::kNucleotide;
  gen.target_residues = 400u << 10;
  gen.seed = 777;
  gen.family_fraction = 0.5;
  w.db = seqdb::generate_database(gen);
  w.queries = seqdb::sample_queries(w.db, 4u << 10, 5);
  w.query_fasta = seqdb::write_fasta(w.queries);
  w.job.db_base = "nt";
  w.job.db_title = "synthetic nt";
  w.job.query_path = "queries.fa";
  w.job.params = blast::SearchParams::blastn_defaults();
  w.job.params.hitlist_size = 30;

  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 4;
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);
  run_mpi(cluster, nprocs, storage, w, nprocs - 1);
  run_pio(cluster, nprocs, storage, w);
  const auto a = storage.shared().read_all("out.mpi.txt");
  const auto b = storage.shared().read_all("out.pio.txt");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Drivers, PhaseStructureMatchesPaper) {
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 9;
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);

  const auto mpi = run_mpi(cluster, nprocs, storage, w, nprocs - 1);
  const auto pio = run_pio(cluster, nprocs, storage, w);

  // mpiBLAST has a copy stage; pioBLAST's parallel input stage is faster.
  EXPECT_GT(mpi.phases.copy_input, 0.0);
  EXPECT_GT(pio.phases.copy_input, 0.0);
  EXPECT_LT(pio.phases.copy_input, mpi.phases.copy_input);
  // Search times are comparable (same kernel); pioBLAST's can only be
  // lower because no I/O is embedded in its search phase.
  EXPECT_LE(pio.phases.search, mpi.phases.search * 1.01);
  // The serialized merge/output path dominates the parallel one.
  EXPECT_LT(pio.phases.output, mpi.phases.output);
  // And the overall run is faster.
  EXPECT_LT(pio.phases.total, mpi.phases.total);
}

TEST(Drivers, SearchTimeDropsWithMoreWorkers) {
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  double prev = 1e300;
  for (int nprocs : {3, 5, 9}) {
    pario::ClusterStorage storage(cluster, nprocs);
    stage_queries(storage, w);
    const auto pio = run_pio(cluster, nprocs, storage, w);
    EXPECT_LT(pio.phases.search, prev);
    prev = pio.phases.search;
  }
}

TEST(Drivers, DeterministicVirtualTimes) {
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 4;
  pario::ClusterStorage s1(cluster, nprocs), s2(cluster, nprocs);
  stage_queries(s1, w);
  stage_queries(s2, w);
  const auto a = run_pio(cluster, nprocs, s1, w);
  const auto b = run_pio(cluster, nprocs, s2, w);
  EXPECT_DOUBLE_EQ(a.phases.total, b.phases.total);
  EXPECT_DOUBLE_EQ(a.phases.search, b.phases.search);
  EXPECT_DOUBLE_EQ(a.phases.output, b.phases.output);
}

TEST(Drivers, RejectSingleProcess) {
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, 1);
  stage_queries(storage, w);
  pio::PioBlastOptions opts;
  opts.job = w.job;
  EXPECT_THROW(pio::run_pioblast(cluster, 1, storage, opts),
               util::ContractViolation);
}

TEST(Drivers, DynamicSchedulingHelpsOnHeterogeneousNodes) {
  // §5: "ideal for scenarios where we have heterogeneous nodes". With two
  // half-speed workers, static round-robin assignment is bound by the
  // stragglers; greedy dynamic scheduling with finer fragments lets fast
  // workers absorb the slack. Both runs use the default event backend: on
  // threads the greedy master serves requests in host arrival order, so
  // the dynamic makespan would depend on host load.
  const auto& w = protein_workload();
  auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 5;
  cluster.node_speed = {1.0, 0.5, 1.0, 0.5, 1.0};  // rank 0 = master

  pario::ClusterStorage s1(cluster, nprocs), s2(cluster, nprocs);
  stage_queries(s1, w);
  stage_queries(s2, w);

  pio::PioBlastOptions stat;
  stat.job.nfragments = 16;
  const auto static_run = run_pio(cluster, nprocs, s1, w, stat);

  pio::PioBlastOptions dyn;
  dyn.scheduler = driver::SchedulerKind::kGreedyDynamic;
  dyn.job.nfragments = 16;
  const auto dynamic_run = run_pio(cluster, nprocs, s2, w, dyn);

  EXPECT_EQ(s1.shared().read_all("out.pio.txt"),
            s2.shared().read_all("out.pio.txt"));
  EXPECT_LT(dynamic_run.phases.total, static_run.phases.total);
}

TEST(Drivers, SpeedWeightedStaticHelpsOnHeterogeneousNodes) {
  // The heterogeneity-aware static policy apportions fragments to node
  // speeds up front: a half-speed worker gets ~half the fragments. It must
  // beat blind round-robin on a heterogeneous cluster while producing the
  // identical report.
  const auto& w = protein_workload();
  auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 5;
  cluster.node_speed = {1.0, 0.5, 1.0, 0.5, 1.0};  // rank 0 = master

  pario::ClusterStorage s1(cluster, nprocs), s2(cluster, nprocs);
  stage_queries(s1, w);
  stage_queries(s2, w);

  pio::PioBlastOptions rr;
  rr.scheduler = driver::SchedulerKind::kStaticRoundRobin;
  rr.job.nfragments = 16;
  const auto rr_run = run_pio(cluster, nprocs, s1, w, rr);

  pio::PioBlastOptions sw;
  sw.scheduler = driver::SchedulerKind::kSpeedWeighted;
  sw.job.nfragments = 16;
  const auto sw_run = run_pio(cluster, nprocs, s2, w, sw);

  EXPECT_EQ(s1.shared().read_all("out.pio.txt"),
            s2.shared().read_all("out.pio.txt"));
  EXPECT_LT(sw_run.phases.total, rr_run.phases.total);
}

TEST(Drivers, CollectiveInputSpeedWeightedPreservesOutput) {
  // Speed-weighted plans are uneven, so a worker can hold more ranges than
  // ceil(total/nworkers); the collective-input round count travels in the
  // RangeAssignment so no rank drops out of the collective early.
  const auto& w = protein_workload();
  auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 5;
  cluster.node_speed = {1.0, 0.25, 1.0, 1.0, 1.0};

  pario::ClusterStorage s1(cluster, nprocs), s2(cluster, nprocs);
  stage_queries(s1, w);
  stage_queries(s2, w);

  pio::PioBlastOptions plain;
  plain.scheduler = driver::SchedulerKind::kSpeedWeighted;
  plain.job.nfragments = 13;
  run_pio(cluster, nprocs, s1, w, plain);

  pio::PioBlastOptions coll = plain;
  coll.collective_input = true;
  run_pio(cluster, nprocs, s2, w, coll);

  const auto a = s1.shared().read_all("out.pio.txt");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, s2.shared().read_all("out.pio.txt"));
}

TEST(Drivers, SlowNodesSlowTheJob) {
  const auto& w = protein_workload();
  auto slow_cluster = sim::ClusterConfig::ornl_altix();
  slow_cluster.node_speed.assign(4, 0.5);
  const auto fast = sim::ClusterConfig::ornl_altix();

  pario::ClusterStorage s1(fast, 4), s2(slow_cluster, 4);
  stage_queries(s1, w);
  stage_queries(s2, w);
  const auto a = run_pio(fast, 4, s1, w);
  const auto b = run_pio(slow_cluster, 4, s2, w);
  EXPECT_GT(b.phases.total, a.phases.total * 1.5);
  // Output bytes are unaffected by node speed.
  EXPECT_EQ(a.output_bytes, b.output_bytes);
}

TEST(Drivers, CandidateVolumeMatchesBetweenDrivers) {
  // Without pruning both drivers screen exactly the same candidate set.
  const auto& w = protein_workload();
  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 5;
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, w);
  const auto mpi = run_mpi(cluster, nprocs, storage, w, nprocs - 1);
  const auto pio = run_pio(cluster, nprocs, storage, w);
  EXPECT_EQ(mpi.candidates_merged, pio.candidates_merged);
}

}  // namespace
}  // namespace pioblast
