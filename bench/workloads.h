// Shared benchmark workloads and the calibrated cost model.
//
// The paper's experiments ran GenBank nr (~1 GB) / nt (~11 GB) on a 256-CPU
// Altix; this reproduction runs synthetic databases scaled down ~300x with
// virtual-time cost constants calibrated so the *shape* of every figure
// (who wins, by what factor, where the crossover falls) matches Section 4.
// All knobs live here, in one place, with the calibration rationale.
#pragma once

#include <string>
#include <vector>

#include "blast/driver.h"
#include "blast/job.h"
#include "mpiblast/mpiblast.h"
#include "pioblast/pioblast.h"
#include "seqdb/generator.h"
#include "sim/cluster.h"
#include "util/table.h"

namespace pioblast::bench {

/// Query-set target sizes: scaled analogues of the paper's 26/77/159/289 KB
/// sets (Table 2). The default experiment size mirrors the 150 KB set.
struct QuerySizes {
  static constexpr std::uint64_t kSmall = 3u << 10;    // ~26 KB analogue
  static constexpr std::uint64_t kMedium = 8u << 10;   // ~77 KB analogue
  static constexpr std::uint64_t kDefault = 16u << 10; // ~150 KB analogue
  static constexpr std::uint64_t kLarge = 30u << 10;   // ~289 KB analogue
};

/// The protein database standing in for GenBank nr. Few family roots +
/// Yule-process growth reproduce nr's redundancy: sampled queries hit
/// hundreds of subjects, so per-fragment hit lists saturate the local cut
/// and the master's merge volume grows with the fragment count — the
/// mechanism behind Figures 1(b) and 3(a). Built once, cached.
const std::vector<seqdb::FastaRecord>& nr_database();

/// The nucleotide database standing in for GenBank nt (Figure 1(a)):
/// larger and more search-dominated than nr.
const std::vector<seqdb::FastaRecord>& nt_database();

/// Compute-cost constants calibrated against Section 4 (see .cpp).
sim::CostModel bench_cost_model();

/// Cluster presets with the bench cost model installed.
sim::ClusterConfig altix();
sim::ClusterConfig blade();
/// Altix with the nt-workload kernel calibration (see .cpp for rationale).
sim::ClusterConfig nt_altix();

/// Job template for the nr workload (blastp, scaled hit-list cut).
blast::JobConfig nr_job();
/// Job template for the nt workload (blastn).
blast::JobConfig nt_job();

/// Samples a query set of roughly `bytes` FASTA bytes and returns its text.
std::string make_query_set(const std::vector<seqdb::FastaRecord>& db,
                           std::uint64_t bytes, std::uint64_t seed = 4242);

/// Runs mpiBLAST end to end on a fresh ClusterStorage: stages queries,
/// mpiformatdb's the database into `nfragments`, runs, returns the result.
/// Runs on the default event backend, where the greedy master serves
/// requests in virtual-time order, so the virtual seconds repeat
/// bit-for-bit.
blast::DriverResult run_mpiblast_job(const sim::ClusterConfig& cluster,
                                     int nprocs,
                                     const std::vector<seqdb::FastaRecord>& db,
                                     const std::string& query_fasta,
                                     const blast::JobConfig& job, int nfragments);

/// Runs pioBLAST end to end on a fresh ClusterStorage (plain formatdb, no
/// physical fragments), on the event backend like run_mpiblast_job.
blast::DriverResult run_pioblast_job(const sim::ClusterConfig& cluster,
                                     int nprocs,
                                     const std::vector<seqdb::FastaRecord>& db,
                                     const std::string& query_fasta,
                                     const blast::JobConfig& job,
                                     pio::PioBlastOptions opts = {});

/// Prints a one-line experiment banner (database/query/cluster summary).
void print_banner(const std::string& title, const std::string& detail);

/// Parses a `--ranks` list ("64,512,4096"). Throws util::RuntimeError on an
/// empty list or a world size below 2.
std::vector<int> parse_ranks(const std::string& spec);

/// Prints the run's structured counters as one machine-readable line:
/// `METRICS <label> {"name":value,...}` (names sorted; see driver/metrics.h).
void emit_metrics(const std::string& label, const blast::DriverResult& result);

/// If argv[1] is given, writes `table` there as CSV (so figure data can be
/// re-plotted); always returns 0 so benches can `return finish(...)`.
int finish(const util::Table& table, int argc, const char* const* argv);

}  // namespace pioblast::bench
