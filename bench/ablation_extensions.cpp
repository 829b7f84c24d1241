// Ablation bench for pioBLAST's design choices and the Section 5
// extensions (not a paper figure; quantifies DESIGN.md's decisions):
//
//   * early score broadcast + local pruning (paper §5) — shrinks the
//     candidate volume the master screens, at the cost of one extra
//     gather/broadcast round per query;
//   * collective vs individual input reads (paper §5 discussion: the
//     individual interface suffices when each worker reads one contiguous
//     range);
//   * virtual-fragment refinement (more fragments than workers,
//     round-robin) — finer granularity, more per-fragment overhead;
//   * number of two-phase output aggregators.
#include <iostream>

#include "util/table.h"
#include "util/units.h"
#include "workloads.h"

using namespace pioblast;

int main(int argc, char** argv) {
  const int nprocs = 32;
  const auto& db = bench::nr_database();
  const auto queries = bench::make_query_set(db, bench::QuerySizes::kDefault);
  const auto cluster = bench::altix();
  const auto job = bench::nr_job();

  bench::print_banner("Ablation: pioBLAST variants at 32 processes",
                      "nr-analogue database, default query set");

  util::Table table({"Variant", "Input (s)", "Search (s)", "Output (s)",
                     "Total (s)", "Candidates"});
  auto add = [&](const std::string& name, const blast::DriverResult& r) {
    table.add_row({name, util::fixed(r.phases.copy_input, 3),
                   util::fixed(r.phases.search, 2),
                   util::fixed(r.phases.output, 3),
                   util::fixed(r.phases.total, 2),
                   std::to_string(r.candidates_merged)});
  };

  add("baseline",
      bench::run_pioblast_job(cluster, nprocs, db, queries, job));

  {
    pio::PioBlastOptions opts;
    opts.early_score_broadcast = true;
    add("+early-score-broadcast",
        bench::run_pioblast_job(cluster, nprocs, db, queries, job, opts));
  }
  {
    pio::PioBlastOptions opts;
    opts.collective_input = true;
    add("+collective-input",
        bench::run_pioblast_job(cluster, nprocs, db, queries, job, opts));
  }
  for (int mult : {2, 4}) {
    auto j = job;
    j.nfragments = (nprocs - 1) * mult;
    add("fragments x" + std::to_string(mult),
        bench::run_pioblast_job(cluster, nprocs, db, queries, j));
  }
  for (int aggs : {1, 2, 8, 16}) {
    pio::PioBlastOptions opts;
    opts.hints.cb_nodes = aggs;
    add("aggregators=" + std::to_string(aggs),
        bench::run_pioblast_job(cluster, nprocs, db, queries, job, opts));
  }
  {
    pio::PioBlastOptions opts;
    opts.scheduler = driver::SchedulerKind::kGreedyDynamic;
    auto j = job;
    j.nfragments = (nprocs - 1) * 3;
    add("dynamic-scheduling x3",
        bench::run_pioblast_job(cluster, nprocs, db, queries, j, opts));
  }
  for (std::uint32_t batch : {4u, 16u}) {
    pio::PioBlastOptions opts;
    opts.query_batch = batch;
    add("query-batch=" + std::to_string(batch),
        bench::run_pioblast_job(cluster, nprocs, db, queries, job, opts));
  }
  table.print(std::cout);
  return bench::finish(table, argc, argv);
}
