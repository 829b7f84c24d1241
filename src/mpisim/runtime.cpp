#include "mpisim/runtime.h"

#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

#include "mpisim/event_loop.h"
#include "mpisim/verifier.h"
#include "mpisim/world.h"

namespace pioblast::mpisim {

sim::Time RunReport::makespan() const {
  sim::Time t = 0;
  for (const auto& r : ranks) t = std::max(t, r.final_clock);
  return t;
}

sim::Time RunReport::phase_total(const std::string& phase) const {
  sim::Time t = 0;
  for (const auto& r : ranks) t += r.phases.get(phase);
  return t;
}

sim::Time RunReport::phase_of(int rank, const std::string& phase) const {
  for (const auto& r : ranks)
    if (r.rank == rank) return r.phases.get(phase);
  return 0.0;
}

namespace {

/// State shared by the per-rank bodies of one job, on either backend.
struct JobState {
  World& world;
  const std::function<void(Process&)>& rank_fn;
  RunReport& report;
  std::mutex error_mu;
  std::exception_ptr first_error;
};

/// One rank's whole life, backend-independent. Never throws: rank errors
/// land in `job.first_error` and poison the world.
void rank_body(JobState& job, int rank) {
  World& world = job.world;
  Process proc(rank, world);
  bool crashed = false;
  try {
    job.rank_fn(proc);
  } catch (const RankCrash& c) {
    // An injected crash is a simulated event, not a job error: retire
    // the rank (seals its mailbox, notifies rank 0 and the verifier)
    // and let the survivors run on.
    crashed = true;
    world.crash_rank(rank, c.when);
  } catch (...) {
    {
      std::lock_guard lock(job.error_mu);
      if (!job.first_error) job.first_error = std::current_exception();
    }
    world.abort();
  }
  // The rank is no longer live; the verifier may now find the remaining
  // ranks deadlocked (it poisons them with the report — this path must
  // not throw, as it runs outside the try block above). A crashed rank
  // was already retired by crash_rank.
  if (!crashed) {
    if (ProtocolVerifier* v = world.verifier()) v->on_rank_done(rank);
  }
  auto& rr = job.report.ranks[static_cast<std::size_t>(rank)];
  rr.rank = rank;
  rr.phases = proc.phases();  // flushes the open phase
  rr.final_clock = proc.now();
  rr.bytes_sent = proc.bytes_sent();
  rr.messages_sent = proc.messages_sent();
  rr.crashed = crashed;
}

/// Thread-per-rank backend: one OS thread per rank, go/no-go gated so a
/// failed thread creation cancels cleanly before any rank body runs
/// (otherwise a partial world wedges — rank 0 blocks forever on peers
/// that never existed).
void run_threads(int nranks, JobState& job) {
  std::promise<bool> gate;
  std::shared_future<bool> go = gate.get_future().share();
  auto thread_main = [&job, go](int rank) {
    if (!go.get()) return;
    rank_body(job, rank);
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  try {
    for (int r = 0; r < nranks; ++r) threads.emplace_back(thread_main, r);
  } catch (const std::system_error& e) {
    const int created = static_cast<int>(threads.size());
    gate.set_value(false);
    for (auto& t : threads) t.join();
    throw util::RuntimeError(
        "mpisim: could not create the thread for rank " +
        std::to_string(created) + " of a " + std::to_string(nranks) +
        "-rank world (" + e.what() +
        "): the thread-per-rank backend needs one OS thread per rank and "
        "likely hit a process/system thread limit (see `ulimit -u`, "
        "/proc/sys/kernel/threads-max, or cgroup pids.max) — rerun on the "
        "default exec_model, events, which multiplexes every rank onto one "
        "thread");
  }
  gate.set_value(true);
  for (auto& t : threads) t.join();
}

/// Event backend: every rank is a stackful fiber on this thread; a
/// ScheduleHook in opts.schedule picks the next rank at every decision
/// point.
void run_events(int nranks, JobState& job, const RunOptions& opts) {
  World& world = job.world;
  EventLoop::Options lo;
  lo.schedule = opts.schedule;
  // The stuck handler covers the verifier-off case: when the loop finds no
  // runnable rank but blocked ones remain, it wakes them all with the
  // report so the job unwinds instead of hanging.
  lo.on_stuck = [&world](const std::string& why) {
    for (int r = 0; r < world.size(); ++r)
      world.mailbox(r).poison(why, /*verify_failure=*/true);
  };
  EventLoop loop(nranks, std::move(lo));
  world.set_loop(&loop);
  loop.run([&job](int rank) { rank_body(job, rank); });
}

}  // namespace

RunReport run(int nranks, const sim::ClusterConfig& cluster,
              const std::function<void(Process&)>& rank_fn,
              const RunOptions& opts) {
  PIOBLAST_CHECK(nranks >= 1);
  World world(nranks, cluster);
  world.set_tracer(opts.tracer);
  world.set_fault_plan(opts.faults);
  if (opts.race != nullptr) {
    opts.race->start(nranks);
    world.set_race(opts.race);
  }
  if (opts.verify.enabled) {
    auto internal = Process::internal_tags();
    world.install_verifier(std::make_unique<ProtocolVerifier>(
        opts.verify, opts.tracer,
        std::vector<int>(internal.begin(), internal.end())));
  }
  RunReport report;
  report.ranks.resize(static_cast<std::size_t>(nranks));
  JobState job{world, rank_fn, report, {}, nullptr};

  // A checked run needs one rank at a time, which the event loop gives
  // natively: it runs there whatever exec_model says.
  if (opts.exec_model == ExecModel::kThreads && opts.schedule == nullptr) {
    run_threads(nranks, job);
  } else {
    run_events(nranks, job, opts);
  }

  if (job.first_error) std::rethrow_exception(job.first_error);
  if (ProtocolVerifier* v = world.verifier()) v->check_leaks();
  return report;
}

RunReport run(int nranks, const sim::ClusterConfig& cluster,
              const std::function<void(Process&)>& rank_fn, Tracer* tracer) {
  RunOptions opts;
  opts.tracer = tracer;
  return run(nranks, cluster, rank_fn, opts);
}

}  // namespace pioblast::mpisim
