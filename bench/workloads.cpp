#include "workloads.h"

#include "pario/env.h"
#include "seqdb/partition.h"

namespace pioblast::bench {

const std::vector<seqdb::FastaRecord>& nr_database() {
  static const auto* db = [] {
    seqdb::GeneratorConfig cfg;
    cfg.type = seqdb::SeqType::kProtein;
    cfg.target_residues = 2u << 20;  // ~2 M residues (~1/500 of nr)
    cfg.seed = 20050404;             // IPDPS'05
    cfg.max_roots = 25;              // nr-like redundancy: large families
    cfg.family_fraction = 0.9;
    cfg.mutation_rate = 0.06;
    cfg.indel_rate = 0.006;
    cfg.id_prefix = "nr";
    return new std::vector<seqdb::FastaRecord>(seqdb::generate_database(cfg));
  }();
  return *db;
}

const std::vector<seqdb::FastaRecord>& nt_database() {
  static const auto* db = [] {
    seqdb::GeneratorConfig cfg;
    cfg.type = seqdb::SeqType::kNucleotide;
    cfg.target_residues = 8u << 20;  // nt is ~11x nr in the paper
    cfg.seed = 20050405;
    cfg.max_roots = 16;  // large families: saturated per-fragment hit lists
    cfg.family_fraction = 0.7;
    cfg.mutation_rate = 0.08;
    cfg.indel_rate = 0.004;
    cfg.min_len = 200;
    cfg.max_len = 8000;
    cfg.log_mean = 7.0;  // ~1.1 kb mean, nt-like
    cfg.log_sigma = 0.6;
    cfg.id_prefix = "nt";
    return new std::vector<seqdb::FastaRecord>(seqdb::generate_database(cfg));
  }();
  return *db;
}

sim::CostModel bench_cost_model() {
  // Calibration. Targets, all from Section 4 at the paper's 1/300-ish
  // scale (virtual seconds here ~ paper seconds / 100):
  //   * aggregate BLAST compute for {nr x default query} ~ 100-150 s, so
  //     search time is ~5 s at 31 workers and dominates small runs;
  //   * mpiBLAST result processing is master-serialized and is dominated
  //     by (a) per-byte handling of the full alignment records workers
  //     submit and (b) the per-alignment synchronous result fetching that
  //     the paper measured at > 40% of output time;
  //   * pioBLAST pays the same per-byte handling on 48-byte metadata
  //     records instead, so its merge cost is ~12x smaller per candidate.
  sim::CostModel::Params p;
  p.scale = 1.0;
  // BLAST kernel: ~30x the raw per-op cost of a modern core, standing in
  // for the 1.5 GHz Itanium2 plus the scale factor.
  p.sec_per_db_residue = 120e-9;
  p.sec_per_seed_hit = 360e-9;
  p.sec_per_ungapped_cell = 90e-9;
  p.sec_per_gapped_cell = 270e-9;
  p.sec_per_traceback_cell = 360e-9;
  p.fragment_setup = 0.25;   // per-fragment kernel re-initialisation
  p.process_init = 0.10;     // NCBI toolkit startup
  // Result processing. The asymmetry between the drivers is structural:
  // both pay merge_record + merge_byte on what workers submit, but only
  // mpiBLAST's full-HSP submissions additionally pay sec_per_hsp_result
  // (NCBI result-structure handling per alignment record) — pioBLAST's
  // 48-byte metadata records skip it (§3.2).
  p.sec_per_merge_record = 2e-6;
  p.sec_per_merge_byte = 0.2e-6;
  p.sec_per_hsp_result = 2.5e-3;
  p.sec_per_format_byte = 150e-9;
  p.sec_per_memcpy_byte = 0.5e-9;
  p.per_alignment_fetch_handling = 40e-3;
  // Database preparation (bench/paper sec31 prices it at paper scale).
  p.sec_per_formatdb_byte = 360e-9;
  return sim::CostModel(p);
}

namespace {

/// Rescales a storage model's bandwidths for the bench workload. The
/// database is ~500x smaller than GenBank nr while virtual compute is only
/// ~20x smaller than the paper's timings, so device bandwidths must shrink
/// by the ratio (~24x) to preserve the paper's I/O-to-compute balance. NFS
/// gets an extra factor: at real scale its per-operation overheads (which
/// our linear model understates) dominated the blade-cluster results.
sim::StorageModel scale_storage(const sim::StorageModel& m, double factor) {
  auto p = m.params();
  p.client_read_bw /= factor;
  p.client_write_bw /= factor;
  p.aggregate_read_bw /= factor;
  p.aggregate_write_bw /= factor;
  return sim::StorageModel(p);
}

constexpr double kStorageScale = 24.0;
constexpr double kNfsExtraScale = 4.0;

}  // namespace

sim::ClusterConfig altix() {
  auto c = sim::ClusterConfig::ornl_altix();
  c.cost = bench_cost_model();
  c.shared_storage = scale_storage(c.shared_storage, kStorageScale);
  return c;
}

sim::ClusterConfig nt_altix() {
  // The nt database is scaled down ~1400x (11 GB -> 8 MB) while nr is only
  // scaled ~500x, and real blastn spends far more machine-time per scanned
  // byte at paper scale than our word-hash scan counters suggest. To keep
  // virtual seconds tracking the paper's machine-seconds for the Figure
  // 1(a) workload, the BLAST kernel constants are recalibrated upward for
  // nt runs; result-processing constants are shared with the nr workload.
  auto c = altix();
  auto p = c.cost.params();
  const double kNtKernelScale = 80.0;
  p.sec_per_db_residue *= kNtKernelScale;
  p.sec_per_seed_hit *= kNtKernelScale;
  p.sec_per_ungapped_cell *= kNtKernelScale;
  p.sec_per_gapped_cell *= kNtKernelScale;
  p.sec_per_traceback_cell *= kNtKernelScale;
  c.cost = sim::CostModel(p);
  return c;
}

sim::ClusterConfig blade() {
  auto c = sim::ClusterConfig::ncsu_blade();
  c.cost = bench_cost_model();
  c.shared_storage =
      scale_storage(c.shared_storage, kStorageScale * kNfsExtraScale);
  c.local_disks = scale_storage(*c.local_disks, kStorageScale);
  return c;
}

blast::JobConfig nr_job() {
  blast::JobConfig job;
  job.db_base = "nr";
  job.db_title = "synthetic nr";
  job.query_path = "queries.fa";
  job.output_path = "results.txt";
  job.params = blast::SearchParams::blastp_defaults();
  job.params.hitlist_size = 6;   // scaled -v/-b analogue
  job.params.xdrop_gapped = 25;  // narrower DP band at bench scale
  return job;
}

blast::JobConfig nt_job() {
  blast::JobConfig job;
  job.db_base = "nt";
  job.db_title = "synthetic nt";
  job.query_path = "queries.fa";
  job.output_path = "results.txt";
  job.params = blast::SearchParams::blastn_defaults();
  job.params.hitlist_size = 6;
  return job;
}

std::string make_query_set(const std::vector<seqdb::FastaRecord>& db,
                           std::uint64_t bytes, std::uint64_t seed) {
  return seqdb::write_fasta(seqdb::sample_queries(db, bytes, seed));
}

namespace {

void stage_queries(pario::ClusterStorage& storage, const blast::JobConfig& job,
                   const std::string& query_fasta) {
  storage.shared().write_all(
      job.query_path,
      std::span(reinterpret_cast<const std::uint8_t*>(query_fasta.data()),
                query_fasta.size()));
}

}  // namespace

blast::DriverResult run_mpiblast_job(
    const sim::ClusterConfig& cluster, int nprocs,
    const std::vector<seqdb::FastaRecord>& db, const std::string& query_fasta,
    const blast::JobConfig& job, int nfragments,
    mpiblast::MpiBlastOptions opts, std::vector<std::uint8_t>* report) {
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, job, query_fasta);
  const auto parts = seqdb::mpiformatdb(storage.shared(), db, job.db_base,
                                        job.params.type, job.db_title,
                                        nfragments);
  opts.job = job;
  opts.fragment_bases = parts.fragment_bases;
  opts.fragment_ranges = parts.ranges;
  opts.global_index = parts.global_index;
  auto result = mpiblast::run_mpiblast(cluster, nprocs, storage, opts);
  if (report) *report = storage.shared().read_all(job.output_path);
  return result;
}

blast::DriverResult run_pioblast_job(
    const sim::ClusterConfig& cluster, int nprocs,
    const std::vector<seqdb::FastaRecord>& db, const std::string& query_fasta,
    const blast::JobConfig& job, pio::PioBlastOptions opts,
    std::vector<std::uint8_t>* report) {
  pario::ClusterStorage storage(cluster, nprocs);
  stage_queries(storage, job, query_fasta);
  seqdb::format_db(storage.shared(), db, job.db_base, job.params.type,
                   job.db_title);
  opts.job = job;
  auto result = pio::run_pioblast(cluster, nprocs, storage, opts);
  if (report) *report = storage.shared().read_all(job.output_path);
  return result;
}

}  // namespace pioblast::bench
