// Fault-recovery overhead: failure-free vs armed-detector vs one crashed
// worker vs one 4x straggler, on both drivers.
//
// Not a paper figure — the paper's clusters simply lost the job when a
// node died. This bench quantifies what the fault-tolerant serve loop
// costs: the armed-detector row prices the machinery alone (flat
// survivor-aware collectives, liveness sync), the crash row prices losing
// one worker's banked work mid-search (its fragments are requeued to the
// survivors), and the straggler row prices a slow node under the greedy
// queue. Every faulted run's report must stay byte-identical to the
// failure-free baseline.
//
// Every run uses the default event backend, where the greedy master
// serves work requests in a fixed order, so the probe's crash point and
// every row's virtual time repeat from run to run.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "driver/metrics.h"
#include "driver/tags.h"
#include "mpisim/fault.h"
#include "mpisim/trace.h"
#include "pario/env.h"
#include "seqdb/partition.h"
#include "util/table.h"
#include "util/units.h"
#include "workloads.h"

using namespace pioblast;

namespace {

struct BenchRun {
  blast::DriverResult result;
  std::vector<std::uint8_t> output;
};

BenchRun run_mpi(const sim::ClusterConfig& cluster, int nprocs,
                 const std::string& queries, const blast::JobConfig& job,
                 int nfragments, const mpisim::FaultPlan& faults,
                 mpisim::Tracer* tracer = nullptr) {
  pario::ClusterStorage storage(cluster, nprocs);
  storage.shared().write_all(
      job.query_path,
      std::span(reinterpret_cast<const std::uint8_t*>(queries.data()),
                queries.size()));
  const auto parts =
      seqdb::mpiformatdb(storage.shared(), bench::nr_database(), job.db_base,
                         job.params.type, job.db_title, nfragments);
  mpiblast::MpiBlastOptions opts;
  opts.job = job;
  opts.fragment_bases = parts.fragment_bases;
  opts.fragment_ranges = parts.ranges;
  opts.global_index = parts.global_index;
  opts.faults = faults;
  opts.tracer = tracer;
  BenchRun run{mpiblast::run_mpiblast(cluster, nprocs, storage, opts), {}};
  run.output = storage.shared().read_all(job.output_path);
  return run;
}

BenchRun run_pio(const sim::ClusterConfig& cluster, int nprocs,
                 const std::string& queries, const blast::JobConfig& job,
                 int nfragments, const mpisim::FaultPlan& faults,
                 mpisim::Tracer* tracer = nullptr) {
  pario::ClusterStorage storage(cluster, nprocs);
  storage.shared().write_all(
      job.query_path,
      std::span(reinterpret_cast<const std::uint8_t*>(queries.data()),
                queries.size()));
  seqdb::format_db(storage.shared(), bench::nr_database(), job.db_base,
                   job.params.type, job.db_title);
  pio::PioBlastOptions opts;
  opts.job = job;
  opts.job.nfragments = nfragments;
  // The greedy scheduler is the recoverable scheduling mode.
  opts.scheduler = driver::SchedulerKind::kGreedyDynamic;
  opts.faults = faults;
  opts.tracer = tracer;
  BenchRun run{pio::run_pioblast(cluster, nprocs, storage, opts), {}};
  run.output = storage.shared().read_all(job.output_path);
  return run;
}

/// 1-based comm-event ordinal of `rank`'s `nth` work-request send in a
/// probe trace — a crash point inside the serve loop with n-1 fragments
/// of banked results; 0 when the rank sent fewer requests.
std::uint64_t nth_work_request_event(const mpisim::Tracer& tracer, int rank,
                                     int nth) {
  std::uint64_t events = 0;
  int requests = 0;
  for (const auto& e : tracer.for_rank(rank)) {
    if (e.kind != mpisim::TraceKind::kSend &&
        e.kind != mpisim::TraceKind::kRecv) {
      continue;
    }
    ++events;
    if (e.kind == mpisim::TraceKind::kSend && e.tag == driver::kTagWorkReq &&
        ++requests == nth) {
      return events;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int nprocs = 8;
  const int victim = nprocs / 2;
  const int nfragments = 2 * (nprocs - 1);
  const auto cluster = bench::altix();
  const auto queries =
      bench::make_query_set(bench::nr_database(), bench::QuerySizes::kMedium);

  bench::print_banner(
      "Fault recovery overhead",
      "nr-analogue, " + std::to_string(nprocs) + " processes, " +
          std::to_string(nfragments) + " fragments; victim rank " +
          std::to_string(victim) +
          " crashes at its 3rd work request (2 fragments of banked results "
          "lost) or runs as a 4x straggler");

  util::Table table({"Driver", "Condition", "Makespan", "Overhead", "Reassigned",
                     "Lost ranks", "Output identical"});

  struct DriverDef {
    const char* name;
    BenchRun (*run)(const sim::ClusterConfig&, int, const std::string&,
                    const blast::JobConfig&, int, const mpisim::FaultPlan&,
                    mpisim::Tracer*);
  };
  const DriverDef drivers[] = {{"mpiBLAST", &run_mpi}, {"pioBLAST", &run_pio}};

  for (const auto& d : drivers) {
    auto job = bench::nr_job();
    job.output_path = std::string("out.") + d.name + ".txt";

    const auto clean = d.run(cluster, nprocs, queries, job, nfragments, {},
                             nullptr);

    mpisim::FaultPlan armed;
    armed.arm_detector = true;
    mpisim::Tracer probe;
    const auto armed_run =
        d.run(cluster, nprocs, queries, job, nfragments, armed, &probe);

    mpisim::FaultPlan crash;
    crash.at(victim).crash_at = nth_work_request_event(probe, victim, 3);
    if (crash.at(victim).crash_at == 0) {
      // crash_at = 0 would inject nothing and print a clean run as a crash.
      std::fprintf(stderr, "%s: rank %d sent fewer than 3 work requests\n",
                   d.name, victim);
      return 1;
    }
    const auto crashed =
        d.run(cluster, nprocs, queries, job, nfragments, crash, nullptr);

    mpisim::FaultPlan straggle;
    straggle.at(victim).slow = 4.0;
    const auto straggler =
        d.run(cluster, nprocs, queries, job, nfragments, straggle, nullptr);

    const double base = clean.result.phases.total;
    auto row = [&](const char* condition, const BenchRun& r) {
      const auto get = [&](const char* key) {
        const auto it = r.result.metrics.find(key);
        return it == r.result.metrics.end() ? 0ull : it->second;
      };
      table.add_row(
          {d.name, condition, util::fixed(r.result.phases.total, 2),
           util::format_percent(r.result.phases.total / base - 1.0),
           std::to_string(get("tasks_reassigned")),
           std::to_string(get("ranks_lost")),
           r.output == clean.output ? "yes" : "NO"});
    };
    row("clean", clean);
    row("armed detector", armed_run);
    row("1 worker crash", crashed);
    row("1 worker 4x slow", straggler);
    bench::emit_metrics(std::string(d.name) + "_crash", crashed.result);
    bench::emit_metrics(std::string(d.name) + "_straggler", straggler.result);
  }

  table.print(std::cout);
  std::printf(
      "\nThe armed-detector row is the price of the fault-tolerance "
      "machinery alone; crash overhead additionally re-searches the "
      "victim's banked fragments on the survivors.\n");
  return bench::finish(table, argc, argv);
}
