// Micro-study (wall time): cost of mpicheck's schedule exploration and of
// the happens-before race detector. Reports schedules/second for the
// master/worker queue under each exploration mode, and the overhead a
// checked run (one fiber at a time on the event loop, every yield point a
// decision) and the detector add over a plain run — the numbers that size
// CI's mpicheck job budget. Checked runs always run on the event loop, so
// only the plain rows have a threads variant.
#include <chrono>
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
  bench::print_banner("Micro: mpicheck exploration & race-detector cost",
                      "serve_work queue, wall-clock time");
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

  util::Table table({"Mode", "Schedules", "Pruned", "Decisions", "Wall (s)",
                     "Sched/s"});
  for (const Mode& mode : modes) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto res =
        mpicheck::Checker(checker_job(cluster, 4, 8), mode.opts).run();
    const double wall = seconds_since(t0);
    table.add_row({mode.name, std::to_string(res.schedules_explored),
                   std::to_string(res.schedules_pruned),
                   std::to_string(res.max_decisions), util::fixed(wall, 2),
                   util::fixed(static_cast<double>(res.schedules_explored) /
                                   wall,
                               0)});
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
  util::Table over({"Harness", "Exec", "Wall (s)", "vs plain threads"});
  constexpr int kRepeats = 100;
  double plain = 0;
  for (const Harness& h : harnesses) {
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
    }
    const double wall = seconds_since(t0);
    const bool is_baseline = &h == &harnesses[0];
    if (is_baseline) plain = wall;
    over.add_row({h.name, h.exec_name, util::fixed(wall, 2),
                  is_baseline ? "1.0x" : util::fixed(wall / plain, 1) + "x"});
  }
  over.print(std::cout);
  return 0;
}
