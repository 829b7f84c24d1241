// Systematic schedule exploration ("stateless model checking lite").
//
// A Checker re-runs one job under many cooperative schedules and reports
// the first failure together with a minimized, replayable decision trace:
//
//   1. the canonical baseline (lowest runnable rank),
//   2. `random_schedules` seeded random interleavings,
//   3. a preemption-bounded sweep: breadth-first over schedules that
//      deviate from the non-preemptive default in at most
//      `preemption_bound` places (most real concurrency bugs need only
//      one or two preemptions — Musuvathi & Qadeer's CHESS observation),
//   4. a sleep-set DPOR-lite sweep: depth-first over the decision tree,
//      skipping siblings whose pending ops are independent of the branch
//      already taken (they provably reach the same state).
//
// Failures are shrunk (suffix truncation, then single-decision removal)
// so the trace handed to `--schedule` is close to minimal. A RaceDetector
// rides along on every run when `detect_races` is set.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "mpicheck/coop.h"
#include "mpicheck/race.h"
#include "mpicheck/schedule.h"

namespace pioblast::mpicheck {

struct CheckOptions {
  /// Seeded-random phase: number of schedules (0 disables).
  int random_schedules = 50;
  std::uint64_t seed = 1;
  /// Preemption-bounded sweep: max forced deviations from the
  /// non-preemptive default per schedule (negative disables the sweep).
  int preemption_bound = 2;
  /// Sleep-set DPOR-lite sweep on/off.
  bool dpor = true;
  /// Overall cap on executed schedules across all phases.
  int max_schedules = 2000;
  /// Attach a RaceDetector to every run.
  bool detect_races = true;
  /// Minimize the failing trace before reporting it.
  bool shrink = true;
  /// When non-empty: skip exploration, run this one forced trace
  /// (the CLI's --schedule mode), and report its outcome.
  std::string replay_trace;

  /// Parses the CLI's --check spec: "default", or optional fields
  /// "schedules=50,seed=1,preempt=2,dpor=on,races=on,shrink=on,max=2000"
  /// (`schedules` ≥ 0, `max` ≥ 1; an empty value keeps the default).
  static CheckOptions parse(std::string_view spec);
};

struct CheckResult {
  int schedules_explored = 0;  ///< jobs actually executed
  int schedules_pruned = 0;    ///< DPOR sleep-set skips
  std::size_t max_decisions = 0;
  std::uint64_t races_found = 0;
  bool failed = false;
  std::string failure_kind;  ///< "race" | "verify" | "error"
  std::string error;         ///< first failure's report
  Schedule failing;          ///< minimized failing decision trace
  std::string failing_trace; ///< format_schedule(failing)
};

class Checker {
 public:
  /// The job under test: must run the workload to completion under the
  /// given hooks (either may be null) and throw on any failure. Called
  /// once per explored schedule — it must be re-runnable.
  using Job = std::function<void(mpisim::ScheduleHook*, mpisim::RaceHook*)>;

  Checker(Job job, CheckOptions opts);

  /// Explores (or replays) and returns the aggregate result.
  CheckResult run();

 private:
  struct RunOutcome {
    bool ok = true;
    std::string kind;
    std::string error;
    std::vector<DecisionRecord> records;
    std::uint64_t races = 0;
  };

  RunOutcome run_one(const CoopScheduler::Chooser& chooser,
                     CheckResult& res);
  /// Records the failure in `res` (shrinking first when configured).
  void record_failure(const RunOutcome& out, CheckResult& res);
  bool fails_same(const Schedule& schedule, const std::string& kind,
                  CheckResult& res);
  Schedule shrink(Schedule failing, const std::string& kind,
                  CheckResult& res);
  void random_sweep(CheckResult& res);
  void preemption_sweep(CheckResult& res);
  void dpor_sweep(CheckResult& res);
  bool budget_left(const CheckResult& res) const;

  Job job_;
  CheckOptions opts_;
};

/// One-line metrics summary: "CHECK schedules=… pruned=… max_decisions=…
/// races=… result=ok|<kind> [trace=…]". Emitted by the CLI and asserted
/// on by tests.
std::string summary(const CheckResult& result);

}  // namespace pioblast::mpicheck
