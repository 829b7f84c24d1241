#include "mpicheck/explore.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "mpicheck/por.h"
#include "util/error.h"
#include "util/parse.h"

namespace pioblast::mpicheck {

namespace {

/// The --check keys.
constexpr util::Key<CheckOptions> kCheckKeys[] = {
    {"schedules",
     [](auto& o, auto v) {
       o.random_schedules = util::read_number<int>(v, 0);
     }},
    {"seed",
     [](auto& o, auto v) { o.seed = util::read_number<std::uint64_t>(v); }},
    {"preempt",
     [](auto& o, auto v) { o.preemption_bound = util::read_number<int>(v); }},
    {"dpor", [](auto& o, auto v) { o.dpor = util::read_switch(v); }},
    {"races", [](auto& o, auto v) { o.detect_races = util::read_switch(v); }},
    {"shrink", [](auto& o, auto v) { o.shrink = util::read_switch(v); }},
    {"max",
     [](auto& o, auto v) { o.max_schedules = util::read_number<int>(v, 1); }},
};

/// Forced-by-index directives on top of the non-preemptive default
/// (continue the previously chosen rank while it stays runnable).
CoopScheduler::Chooser directed_chooser(std::map<std::size_t, int> directives) {
  auto last = std::make_shared<int>(-1);
  return [directives = std::move(directives), last](
             std::size_t index, const std::vector<int>& enabled,
             const std::vector<mpisim::YieldPoint>&) {
    int pick = -1;
    const auto it = directives.find(index);
    if (it != directives.end() &&
        std::find(enabled.begin(), enabled.end(), it->second) != enabled.end())
      pick = it->second;
    if (pick == -1) {
      if (std::find(enabled.begin(), enabled.end(), *last) != enabled.end())
        pick = *last;
      else
        pick = enabled[0];
    }
    *last = pick;
    return pick;
  };
}

const mpisim::YieldPoint* op_of(const DecisionRecord& rec, int rank) {
  for (std::size_t i = 0; i < rec.enabled.size(); ++i)
    if (rec.enabled[i] == rank) return &rec.ops[i];
  return nullptr;
}

}  // namespace

CheckOptions CheckOptions::parse(std::string_view spec) {
  CheckOptions opts;
  if (spec != "default")
    util::read_fields(spec, ',', kCheckKeys, opts,
                      /*empty_keeps_default=*/true);
  return opts;
}

Checker::Checker(Job job, CheckOptions opts)
    : job_(std::move(job)), opts_(opts) {
  PIOBLAST_CHECK(static_cast<bool>(job_));
}

bool Checker::budget_left(const CheckResult& res) const {
  return res.schedules_explored < opts_.max_schedules && !res.failed;
}

Checker::RunOutcome Checker::run_one(const CoopScheduler::Chooser& chooser,
                                     CheckResult& res) {
  CoopScheduler sched(chooser);
  RaceDetector race;
  RunOutcome out;
  try {
    job_(&sched, opts_.detect_races ? &race : nullptr);
  } catch (const RaceError& e) {
    out.ok = false;
    out.kind = "race";
    out.error = e.what();
  } catch (const mpisim::VerifyError& e) {
    out.ok = false;
    out.kind = "verify";
    out.error = e.what();
  } catch (const std::exception& e) {
    out.ok = false;
    out.kind = "error";
    out.error = e.what();
  }
  out.records = sched.records();
  out.races = race.races_found();
  ++res.schedules_explored;
  res.races_found += out.races;
  res.max_decisions = std::max(res.max_decisions, out.records.size());
  return out;
}

bool Checker::fails_same(const Schedule& schedule, const std::string& kind,
                         CheckResult& res) {
  const RunOutcome out = run_one(CoopScheduler::forced(schedule), res);
  return !out.ok && out.kind == kind;
}

Schedule Checker::shrink(Schedule failing, const std::string& kind,
                         CheckResult& res) {
  // Budget for the whole minimization — shrinking is a convenience, not
  // worth more runs than the exploration itself.
  const int budget = res.schedules_explored + 200;
  // Phase 1: shortest failing prefix by binary search (failure is usually
  // monotone in prefix length because the fallback past the prefix is
  // deterministic; verified below, with the original kept on mismatch).
  std::size_t lo = 0;
  std::size_t hi = failing.size();
  while (lo < hi && res.schedules_explored < budget) {
    const std::size_t mid = lo + (hi - lo) / 2;
    Schedule prefix(failing.begin(),
                    failing.begin() + static_cast<std::ptrdiff_t>(mid));
    if (fails_same(prefix, kind, res))
      hi = mid;
    else
      lo = mid + 1;
  }
  {
    Schedule prefix(failing.begin(),
                    failing.begin() + static_cast<std::ptrdiff_t>(hi));
    if (res.schedules_explored < budget && fails_same(prefix, kind, res))
      failing = std::move(prefix);
  }
  // Phase 2: drop individual decisions, last to first (ddmin-lite).
  for (std::size_t i = failing.size(); i-- > 0;) {
    if (res.schedules_explored >= budget) break;
    Schedule cand = failing;
    cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
    if (fails_same(cand, kind, res)) failing = std::move(cand);
  }
  return failing;
}

void Checker::record_failure(const RunOutcome& out, CheckResult& res) {
  res.failed = true;
  res.failure_kind = out.kind;
  res.error = out.error;
  Schedule failing = schedule_of(out.records);
  if (opts_.shrink && !failing.empty()) {
    // shrink() executes replays; freeze failed so budget_left in other
    // sweeps stops, but let fails_same keep running via its own budget.
    failing = shrink(std::move(failing), out.kind, res);
  }
  res.failing = std::move(failing);
  res.failing_trace = format_schedule(res.failing);
}

void Checker::random_sweep(CheckResult& res) {
  for (int i = 0; i < opts_.random_schedules && budget_left(res); ++i) {
    const RunOutcome out =
        run_one(CoopScheduler::random(opts_.seed + static_cast<std::uint64_t>(i)),
                res);
    if (!out.ok) {
      record_failure(out, res);
      return;
    }
  }
}

void Checker::preemption_sweep(CheckResult& res) {
  if (opts_.preemption_bound < 0) return;
  struct Item {
    std::map<std::size_t, int> directives;
    int preemptions = 0;
  };
  std::deque<Item> queue;
  queue.push_back(Item{});
  while (!queue.empty() && budget_left(res)) {
    const Item item = queue.front();
    queue.pop_front();
    const RunOutcome out = run_one(directed_chooser(item.directives), res);
    if (!out.ok) {
      record_failure(out, res);
      return;
    }
    if (item.preemptions >= opts_.preemption_bound) continue;
    // Branch only past the deepest directive: every schedule is generated
    // by exactly one increasing directive sequence, so no duplicates.
    const std::size_t first = item.directives.empty()
                                  ? 0
                                  : item.directives.rbegin()->first + 1;
    for (std::size_t i = first; i < out.records.size(); ++i) {
      for (const int r : out.records[i].enabled) {
        if (r == out.records[i].chosen) continue;
        if (queue.size() >=
            static_cast<std::size_t>(opts_.max_schedules))
          return;  // bound the frontier along with the runs
        Item next = item;
        next.directives[i] = r;
        ++next.preemptions;
        queue.push_back(std::move(next));
      }
    }
  }
}

void Checker::dpor_sweep(CheckResult& res) {
  if (!opts_.dpor) return;
  struct Node {
    DecisionRecord rec;
    std::set<int> done;   ///< choices already explored here
    std::set<int> sleep;  ///< provably-redundant choices (skip + count)
    int chosen = -1;
  };
  std::vector<Node> path;
  bool first = true;
  while (budget_left(res)) {
    if (!first) {
      // Backtrack: deepest node with an unexplored, non-sleeping choice.
      while (!path.empty()) {
        Node& n = path.back();
        int cand = -1;
        for (const int r : n.rec.enabled) {
          if (n.done.count(r) != 0) continue;
          if (n.sleep.count(r) != 0) {
            // Will never be tried here: count it once, then retire it.
            ++res.schedules_pruned;
            n.done.insert(r);
            continue;
          }
          cand = r;
          break;
        }
        if (cand == -1) {
          path.pop_back();
          continue;
        }
        n.done.insert(cand);
        n.chosen = cand;
        break;
      }
      if (path.empty()) return;  // tree fully explored
    }
    first = false;
    Schedule forced;
    forced.reserve(path.size());
    for (const Node& n : path) forced.push_back(Decision{n.chosen, {}});
    const RunOutcome out = run_one(CoopScheduler::forced(forced), res);
    if (!out.ok) {
      record_failure(out, res);
      return;
    }
    // Guard against trace divergence (a forced rank that was not
    // runnable): truncate the tree at the first mismatch.
    for (std::size_t d = 0; d < path.size() && d < out.records.size(); ++d) {
      if (out.records[d].chosen != path[d].chosen) {
        path.resize(d);
        break;
      }
    }
    // Extend the tree with this run's new decisions. A fresh node's sleep
    // set: ranks the parent already explored (or was itself told to
    // sleep) whose pending op is independent of the branch taken — they
    // reach a state the other order already covers.
    for (std::size_t d = path.size(); d < out.records.size(); ++d) {
      const DecisionRecord& rec = out.records[d];
      Node node;
      node.rec = rec;
      node.chosen = rec.chosen;
      node.done.insert(rec.chosen);
      if (d > 0) {
        const Node& parent = path.back();
        node.sleep = inherit_sleep(
            parent.sleep, parent.done, parent.chosen,
            op_of(parent.rec, parent.chosen),
            [&rec](int r) { return op_of(rec, r); });
      }
      path.push_back(std::move(node));
    }
  }
}

CheckResult Checker::run() {
  CheckResult res;
  if (!opts_.replay_trace.empty()) {
    const Schedule forced = parse_schedule(opts_.replay_trace);
    const RunOutcome out = run_one(CoopScheduler::forced(forced), res);
    if (!out.ok) {
      // Replay reports the trace as-run, unshrunk — it is the user's.
      res.failed = true;
      res.failure_kind = out.kind;
      res.error = out.error;
      res.failing = schedule_of(out.records);
      res.failing_trace = format_schedule(res.failing);
    }
    return res;
  }
  // Baseline: the canonical single schedule a plain run would take.
  const RunOutcome base = run_one(CoopScheduler::first_enabled(), res);
  if (!base.ok) {
    record_failure(base, res);
    return res;
  }
  random_sweep(res);
  if (res.failed) return res;
  preemption_sweep(res);
  if (res.failed) return res;
  dpor_sweep(res);
  return res;
}

std::string summary(const CheckResult& result) {
  std::string out = "CHECK schedules=" + std::to_string(result.schedules_explored) +
                    " pruned=" + std::to_string(result.schedules_pruned) +
                    " max_decisions=" + std::to_string(result.max_decisions) +
                    " races=" + std::to_string(result.races_found) +
                    " result=" + (result.failed ? result.failure_kind : "ok");
  if (result.failed) out += " trace=" + result.failing_trace;
  return out;
}

}  // namespace pioblast::mpicheck
