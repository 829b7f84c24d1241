// Figure 3(a) reproduction: node scalability of mpiBLAST vs pioBLAST on
// the Altix-analogue cluster, default query set against the nr-analogue
// database.
//
// Paper reference: both search times drop with more processes; mpiBLAST's
// non-search time *grows* until it offsets the search gains (total time
// rises past ~32 processes; only 10.3% of time in search at 62), while
// pioBLAST's non-search time keeps shrinking (92.4% in search at 62,
// 1.86x overall speedup from 32 to 62 processes).
//
// Beyond the paper's 62 processes, --ranks extends the sweep to
// multi-thousand-rank worlds (e.g. --ranks 64,128,512,1024,4096). Worlds
// of that size need --exec-model events: the event backend multiplexes
// every rank as a fiber on one scheduler thread, where the default
// thread-per-rank backend would need thousands of kernel threads. One
// machine-readable `ROW {...}` JSON line is emitted per (driver, world
// size); tools/bench_to_json.py folds them into BENCH_scalability.json.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "util/args.h"
#include "util/table.h"
#include "util/units.h"
#include "workloads.h"

using namespace pioblast;

namespace {

void emit_row(const char* driver, int nprocs, mpisim::ExecModel exec,
              const blast::DriverResult& r) {
  std::printf(
      "ROW {\"bench\":\"fig3a\",\"driver\":\"%s\",\"procs\":%d,"
      "\"exec\":\"%s\",\"search_s\":%.6f,\"other_s\":%.6f,"
      "\"total_s\":%.6f,\"search_frac\":%.4f}\n",
      driver, nprocs, mpisim::to_string(exec), r.phases.search,
      r.phases.total - r.phases.search, r.phases.total,
      r.phases.search_fraction());
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("fig3a_scalability",
                       "Figure 3(a): node scalability, mpiBLAST vs pioBLAST");
  args.add("ranks", "4,8,16,32,62",
           "comma-separated world sizes (e.g. 64,128,512,1024,4096)")
      .add("exec-model", "threads",
           "rank execution backend: threads | events (required in practice "
           "for worlds beyond a few hundred ranks)")
      .add("drivers", "both", "both | mpiblast | pioblast")
      .add("query-bytes", "0",
           "query-set FASTA bytes (0 = the default ~150 KB-analogue set; "
           "shrink for quick large-world smoke runs)");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error();
    return args.error().rfind("usage:", 0) == 0 ? 0 : 2;
  }
  const auto ranks = bench::parse_ranks(args.get("ranks"));
  const auto exec = mpisim::parse_exec_model(args.get("exec-model"));
  const std::string drivers = args.get("drivers");
  const bool run_mpi = drivers == "both" || drivers == "mpiblast";
  const bool run_pio = drivers == "both" || drivers == "pioblast";
  const std::uint64_t query_bytes =
      args.get_int("query-bytes") > 0
          ? static_cast<std::uint64_t>(args.get_int("query-bytes"))
          : bench::QuerySizes::kDefault;

  const auto& db = bench::nr_database();
  const auto queries = bench::make_query_set(db, query_bytes);
  const auto cluster = bench::altix();
  const auto job = bench::nr_job();

  bench::print_banner("Figure 3(a): node scalability, mpiBLAST vs pioBLAST",
                      "nr-analogue database, natural partitioning, " +
                          std::to_string(ranks.size()) + " world sizes, " +
                          std::string(mpisim::to_string(exec)) + " backend");

  util::Table table({"Program-Procs", "Search (s)", "Other (s)", "Total (s)",
                     "Search %"});
  auto add = [&](const std::string& name, const blast::DriverResult& r) {
    table.add_row({name, util::fixed(r.phases.search, 2),
                   util::fixed(r.phases.total - r.phases.search, 2),
                   util::fixed(r.phases.total, 2),
                   util::format_percent(r.phases.search_fraction())});
  };
  for (int nprocs : ranks) {
    if (run_mpi) {
      // mpiformatdb cannot split the database into more physical
      // fragments than it has sequences; report the skip rather than
      // silently narrowing the sweep.
      if (static_cast<std::uint64_t>(nprocs - 1) > db.size()) {
        std::printf("(mpiblast skipped at %d procs: %zu sequences cannot "
                    "fill %d fragments)\n",
                    nprocs, db.size(), nprocs - 1);
      } else {
        const auto r = bench::run_mpiblast_job(cluster, nprocs, db, queries,
                                               job, nprocs - 1, exec);
        add("mpi-" + std::to_string(nprocs), r);
        emit_row("mpiblast", nprocs, exec, r);
      }
    }
    if (run_pio) {
      pio::PioBlastOptions opts;
      opts.exec = exec;
      const auto r =
          bench::run_pioblast_job(cluster, nprocs, db, queries, job, opts);
      add("pio-" + std::to_string(nprocs), r);
      emit_row("pioblast", nprocs, exec, r);
    }
  }
  table.print(std::cout);
  // CSV path stays positional, as in every other bench: fig3a out.csv.
  if (!args.positional().empty()) {
    const char* pass[] = {argv[0], args.positional()[0].c_str()};
    return bench::finish(table, 2, pass);
  }
  return 0;
}
