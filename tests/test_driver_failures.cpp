// Failure-injection and instrumentation tests for the drivers: bad
// configurations must fail loudly (never hang the simulated job), and the
// tracer must capture the protocol structure.
#include <gtest/gtest.h>

#include "blast/job.h"
#include "driver/tags.h"
#include "mpiblast/mpiblast.h"
#include "mpisim/trace.h"
#include "pioblast/pioblast.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"

namespace pioblast {
namespace {

struct Tiny {
  std::vector<seqdb::FastaRecord> db;
  std::string queries;
};

const Tiny& tiny() {
  static const Tiny* t = [] {
    auto* out = new Tiny();
    seqdb::GeneratorConfig gen;
    gen.target_residues = 60u << 10;
    gen.seed = 9;
    out->db = seqdb::generate_database(gen);
    out->queries = seqdb::write_fasta(seqdb::sample_queries(out->db, 1024, 3));
    return out;
  }();
  return *t;
}

void stage(pario::ClusterStorage& storage, const std::string& fasta,
           const std::string& path = "queries.fa") {
  storage.shared().write_all(
      path, std::span(reinterpret_cast<const std::uint8_t*>(fasta.data()),
                      fasta.size()));
}

TEST(DriverFailures, PioMissingDatabaseThrows) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, 3);
  stage(storage, tiny().queries);
  pio::PioBlastOptions opts;
  opts.job.db_base = "no-such-db";
  opts.job.query_path = "queries.fa";
  EXPECT_THROW(pio::run_pioblast(cluster, 3, storage, opts),
               util::ContractViolation);
}

TEST(DriverFailures, PioMissingQueryFileThrows) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, 3);
  seqdb::format_db(storage.shared(), tiny().db, "db", seqdb::SeqType::kProtein,
                   "t");
  pio::PioBlastOptions opts;
  opts.job.db_base = "db";
  opts.job.query_path = "missing.fa";
  EXPECT_THROW(pio::run_pioblast(cluster, 3, storage, opts),
               util::ContractViolation);
}

TEST(DriverFailures, MpiEmptyFragmentsThrows) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, 3);
  stage(storage, tiny().queries);
  mpiblast::MpiBlastOptions opts;
  opts.job.query_path = "queries.fa";
  EXPECT_THROW(mpiblast::run_mpiblast(cluster, 3, storage, opts),
               util::ContractViolation);
}

TEST(DriverFailures, MpiMismatchedRangesThrows) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, 3);
  stage(storage, tiny().queries);
  const auto parts = seqdb::mpiformatdb(storage.shared(), tiny().db, "db",
                                        seqdb::SeqType::kProtein, "t", 2);
  mpiblast::MpiBlastOptions opts;
  opts.job.query_path = "queries.fa";
  opts.fragment_bases = parts.fragment_bases;
  opts.fragment_ranges = {};  // wrong on purpose
  opts.global_index = parts.global_index;
  EXPECT_THROW(mpiblast::run_mpiblast(cluster, 3, storage, opts),
               util::ContractViolation);
}

TEST(DriverFailures, MalformedQueryFileThrows) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  pario::ClusterStorage storage(cluster, 3);
  seqdb::format_db(storage.shared(), tiny().db, "db", seqdb::SeqType::kProtein,
                   "t");
  stage(storage, "this is not FASTA at all");
  pio::PioBlastOptions opts;
  opts.job.db_base = "db";
  opts.job.query_path = "queries.fa";
  EXPECT_THROW(pio::run_pioblast(cluster, 3, storage, opts),
               util::RuntimeError);
}

TEST(DriverTracing, PioRunCapturesPhaseStructure) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 3;
  pario::ClusterStorage storage(cluster, nprocs);
  stage(storage, tiny().queries);
  seqdb::format_db(storage.shared(), tiny().db, "db", seqdb::SeqType::kProtein,
                   "t");
  mpisim::Tracer tracer;
  pio::PioBlastOptions opts;
  opts.job.db_base = "db";
  opts.job.query_path = "queries.fa";
  opts.tracer = &tracer;
  pio::run_pioblast(cluster, nprocs, storage, opts);

  EXPECT_GT(tracer.size(), 10u);
  // Every worker passes through other -> input -> search -> output.
  for (int rank = 1; rank < nprocs; ++rank) {
    std::vector<std::string> phases;
    for (const auto& e : tracer.for_rank(rank))
      if (e.kind == mpisim::TraceKind::kPhase) phases.push_back(e.detail);
    ASSERT_GE(phases.size(), 4u) << "rank " << rank;
    EXPECT_EQ(phases[0], "other");
    EXPECT_EQ(phases[1], "input");
    EXPECT_NE(std::find(phases.begin(), phases.end(), "search"), phases.end());
    EXPECT_EQ(phases.back(), "output");
  }
}

TEST(DriverTracing, MpiRunCapturesFetchTraffic) {
  const auto cluster = sim::ClusterConfig::ornl_altix();
  const int nprocs = 3;
  pario::ClusterStorage storage(cluster, nprocs);
  stage(storage, tiny().queries);
  const auto parts = seqdb::mpiformatdb(storage.shared(), tiny().db, "db",
                                        seqdb::SeqType::kProtein, "t", 2);
  mpisim::Tracer tracer;
  mpiblast::MpiBlastOptions opts;
  opts.job.query_path = "queries.fa";
  opts.fragment_bases = parts.fragment_bases;
  opts.fragment_ranges = parts.ranges;
  opts.global_index = parts.global_index;
  opts.tracer = &tracer;
  const auto result = mpiblast::run_mpiblast(cluster, nprocs, storage, opts);

  // The master's serialized result fetching shows up as fetch-request
  // sends.
  std::size_t fetch_requests = 0;
  for (const auto& e : tracer.for_rank(0)) {
    if (e.kind == mpisim::TraceKind::kSend && e.tag == driver::kTagFetchReq)
      ++fetch_requests;
  }
  // One fetch per reported alignment plus one end-of-query sentinel per
  // worker per query.
  EXPECT_GE(fetch_requests, result.alignments_reported);
}

}  // namespace
}  // namespace pioblast
