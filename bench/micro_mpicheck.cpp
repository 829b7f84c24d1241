// Micro-study (wall time): cost of mpicheck's schedule exploration and of
// the happens-before race detector. Reports schedules/second for the
// master/worker queue under each exploration mode, and the µs per run a
// checked run (one fiber at a time on the event loop, every yield point a
// decision) and the detector add over a plain run — the numbers that size
// CI's mpicheck job budget. Checked runs always run on the event loop, so
// only the plain rows have a threads variant.
//
// Each table row also prints one `ROW {...}` line holding only what the
// run determines (schedules, pruned, decisions, the detector's accesses
// and races per run), never host time, so
// tools/bench_to_json.py --check BENCH_mpicheck.json pins them exactly.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>

#include "driver/metrics.h"
#include "driver/scheduler.h"
#include "driver/work_queue.h"
#include "mpicheck/explore.h"
#include "mpisim/runtime.h"
#include "util/table.h"
#include "workloads.h"

using namespace pioblast;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The checkable workload: the real serve_work queue moving `ntasks`
/// through `nranks - 1` workers.
void queue_job(mpisim::Process& p, int nranks, std::uint32_t ntasks,
               driver::RunMetrics* metrics) {
  if (p.is_root()) {
    auto sched = driver::make_scheduler(driver::SchedulerKind::kGreedyDynamic);
    driver::WorkerTopology topo;
    topo.nworkers = nranks - 1;
    topo.speed.assign(static_cast<std::size_t>(nranks - 1), 1.0);
    driver::serve_work(p, *sched, ntasks, topo, {}, metrics);
  } else {
    while (driver::request_work<std::uint32_t>(
        p, [](std::uint32_t id, mpisim::Decoder&) { return id; })) {
    }
  }
}

mpicheck::Checker::Job checker_job(const sim::ClusterConfig& cluster,
                                   int nranks, std::uint32_t ntasks) {
  return [cluster, nranks, ntasks](mpisim::ScheduleHook* schedule,
                                   mpisim::RaceHook* race) {
    mpisim::RunOptions opts;
    opts.schedule = schedule;
    opts.race = race;
    driver::RunMetrics metrics;
    mpisim::run(
        nranks, cluster,
        [&](mpisim::Process& p) { queue_job(p, nranks, ntasks, &metrics); },
        opts);
  };
}

struct Mode {
  const char* name;
  mpicheck::CheckOptions opts;
};

}  // namespace

int main() {
  std::printf("=== Micro: mpicheck exploration & race-detector cost ===\n"
              "serve_work queue, wall-clock time\n\n");
  const auto cluster = bench::altix();

  std::printf("exploration modes (4 ranks, 8 tasks):\n");
  Mode modes[3];
  modes[0].name = "random x100";
  modes[0].opts.random_schedules = 100;
  modes[0].opts.preemption_bound = -1;
  modes[0].opts.dpor = false;
  modes[1].name = "preempt<=1";
  modes[1].opts.random_schedules = 0;
  modes[1].opts.preemption_bound = 1;
  modes[1].opts.dpor = false;
  modes[1].opts.max_schedules = 400;
  modes[2].name = "dpor (capped)";
  modes[2].opts.random_schedules = 0;
  modes[2].opts.preemption_bound = -1;
  modes[2].opts.dpor = true;
  modes[2].opts.max_schedules = 400;

  util::Table table({"Mode", "Schedules", "Pruned", "Decisions", "Races",
                     "us/schedule", "Sched/s"});
  for (const Mode& mode : modes) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto res =
        mpicheck::Checker(checker_job(cluster, 4, 8), mode.opts).run();
    const double wall = seconds_since(t0);
    const auto schedules = static_cast<double>(res.schedules_explored);
    table.add_row({mode.name, std::to_string(res.schedules_explored),
                   std::to_string(res.schedules_pruned),
                   std::to_string(res.max_decisions),
                   std::to_string(res.races_found),
                   util::fixed(wall * 1e6 / schedules, 1),
                   util::fixed(schedules / wall, 0)});
    std::printf("ROW {\"bench\":\"micro_mpicheck\",\"probe\":\"explore\","
                "\"mode\":\"%s\",\"ranks\":4,\"tasks\":8,"
                "\"schedules\":%d,\"pruned\":%d,\"decisions\":%zu,"
                "\"races\":%llu}\n",
                mode.name, res.schedules_explored, res.schedules_pruned,
                res.max_decisions,
                static_cast<unsigned long long>(res.races_found));
  }
  table.print(std::cout);

  std::printf("\nper-run overhead (100 repeats, 4 ranks, 8 tasks):\n");
  // The plain rows run on both execution backends (mpisim/exec.h); the
  // checked rows run on events whatever exec_model says. Every "vs plain"
  // ratio is relative to the plain threaded run.
  struct Harness {
    const char* name;
    const char* exec_name;
    mpisim::ExecModel exec;
    bool coop;
    bool race;
  };
  const Harness harnesses[] = {
      {"plain", "threads", mpisim::ExecModel::kThreads, false, false},
      {"plain", "events", mpisim::ExecModel::kEvents, false, false},
      {"coop schedule", "events", mpisim::ExecModel::kEvents, true, false},
      {"coop + race detector", "events", mpisim::ExecModel::kEvents, true,
       true},
  };
  util::Table over({"Harness", "Exec", "us/run", "Runs/s", "vs plain threads",
                    "Accesses/run", "Races/run"});
  constexpr int kRepeats = 100;
  double plain = 0;
  for (const Harness& h : harnesses) {
    std::uint64_t accesses = 0;
    std::uint64_t races = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRepeats; ++i) {
      mpicheck::CoopScheduler coop;
      mpicheck::RaceDetector det;
      mpisim::RunOptions opts;
      opts.exec_model = h.exec;
      if (h.coop) opts.schedule = &coop;
      if (h.race) opts.race = &det;
      driver::RunMetrics metrics;
      mpisim::run(
          4, cluster,
          [&](mpisim::Process& p) { queue_job(p, 4, 8, &metrics); }, opts);
      accesses += det.accesses();
      races += det.races_found();
    }
    const double wall = seconds_since(t0);
    const bool is_baseline = &h == &harnesses[0];
    if (is_baseline) plain = wall;
    const double accesses_per_run = static_cast<double>(accesses) / kRepeats;
    const double races_per_run = static_cast<double>(races) / kRepeats;
    over.add_row({h.name, h.exec_name, util::fixed(wall * 1e6 / kRepeats, 1),
                  util::fixed(kRepeats / wall, 0),
                  is_baseline ? "1.0x" : util::fixed(wall / plain, 1) + "x",
                  util::fixed(accesses_per_run, 1),
                  util::fixed(races_per_run, 1)});
    std::printf("ROW {\"bench\":\"micro_mpicheck\",\"probe\":\"overhead\","
                "\"harness\":\"%s\",\"exec\":\"%s\",\"ranks\":4,"
                "\"tasks\":8,\"repeats\":%d,\"accesses_per_run\":%.1f,"
                "\"races_per_run\":%.1f}\n",
                h.name, h.exec_name, kRepeats, accesses_per_run, races_per_run);
  }
  over.print(std::cout);
  return 0;
}
