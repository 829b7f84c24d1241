// Deterministic cooperative scheduler for mpisim.
//
// Installed via RunOptions::schedule, it makes the job run on mpisim's
// event loop one rank at a time; at every point where two or more ranks
// are runnable (send, recv attempt, collective entry, injected fault, a
// woken receive) the loop asks it which rank runs next. It asks its
// Chooser and records the decision, so the job's behaviour depends only
// on the Chooser's picks and a run can be reproduced exactly from its
// decision trace — the foundation for the explorer (explore.h) and for
// `--schedule` replay.
//
// Decisions are recorded only at points where two or more ranks were
// runnable; a single runnable rank is forced and recording it would bloat
// traces without adding information.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mpicheck/schedule.h"
#include "mpisim/hooks.h"

namespace pioblast::mpicheck {

/// Full record of one multi-choice scheduling point: who was runnable,
/// what each runnable rank was about to do, who ran. The explorer's
/// DPOR-lite mode consumes `ops` to prune provably-equivalent siblings.
struct DecisionRecord {
  std::vector<int> enabled;                 ///< runnable ranks, ascending
  std::vector<mpisim::YieldPoint> ops;      ///< pending op per enabled rank
  int chosen = -1;
};

/// `records` reduced to a replayable Schedule.
Schedule schedule_of(const std::vector<DecisionRecord>& records);

/// Records one run: each job gets a fresh scheduler.
class CoopScheduler final : public mpisim::ScheduleHook {
 public:
  /// Picks the next rank to run out of `enabled` (must return a member;
  /// anything else falls back to the lowest). `decision_index` counts
  /// multi-choice points so far; `ops` is parallel to `enabled`.
  using Chooser = std::function<int(std::size_t decision_index,
                                    const std::vector<int>& enabled,
                                    const std::vector<mpisim::YieldPoint>& ops)>;

  /// A null chooser always picks the lowest runnable rank.
  explicit CoopScheduler(Chooser chooser = {});

  /// Asks the chooser and appends the DecisionRecord.
  int choose(const std::vector<int>& enabled,
             const std::vector<mpisim::YieldPoint>& ops) override;

  /// The multi-choice decisions of the run so far.
  const std::vector<DecisionRecord>& records() const { return records_; }

  // Canned choosers ---------------------------------------------------------

  /// Lowest runnable rank, always (the canonical baseline schedule).
  static Chooser first_enabled();

  /// Seeded uniform pick — deterministic for a given seed.
  static Chooser random(std::uint64_t seed);

  /// Replays `forced` decision by decision. Past its end — or when the
  /// forced rank is not currently runnable (trace divergence) — falls
  /// back to the lowest runnable rank.
  static Chooser forced(Schedule forced);

 private:
  Chooser chooser_;
  std::vector<DecisionRecord> records_;
};

}  // namespace pioblast::mpicheck
