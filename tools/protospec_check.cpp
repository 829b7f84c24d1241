// Exhaustive protocol model checking, as run by CI.
//
// Sweeps every protocol spec across world sizes and crash budgets and
// model-checks each instance. One human line (with the host time) and
// one machine-readable `ROW {...}` line per instance, which holds only
// what the check determines: fold the ROWs into BENCH_protospec.json, or
// compare them with it, with tools/bench_to_json.py. Exit status is 1 on
// a violation, and 2 on a bad option value, before any instance runs.
//
//   ./tools/protospec_check --max-ranks 6
//   ./tools/protospec_check --spec pioblast --crashes 1 --no-por

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "protospec/check.h"
#include "protospec/spec.h"
#include "util/args.h"
#include "util/parse.h"

namespace {

using pioblast::protospec::ModelCheckOptions;
using pioblast::protospec::ModelCheckResult;
using pioblast::protospec::ProtocolSpec;
using pioblast::protospec::SpecParams;

struct Instance {
  const ProtocolSpec* spec = nullptr;
  std::string variant;  ///< extra label ("static", "dynamic", "")
  SpecParams params;
  int crashes = 0;
};

int run_instance(const Instance& inst, const ModelCheckOptions& base,
                 bool& failed) {
  ModelCheckOptions opts = base;
  opts.max_crashes = inst.crashes;
  const auto t0 = std::chrono::steady_clock::now();
  const ModelCheckResult res =
      pioblast::protospec::model_check(*inst.spec, inst.params, opts);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  const std::string label =
      std::string(inst.spec->name) +
      (inst.variant.empty() ? "" : "/" + inst.variant);
  std::printf("%-24s ranks=%d crashes=%d ft=%d  states=%llu pruned=%llu "
              "trans=%llu maxq=%zu depth=%zu  %s (%lld ms)\n",
              label.c_str(), inst.params.nranks, inst.crashes,
              inst.params.fault_tolerant ? 1 : 0,
              static_cast<unsigned long long>(res.stats.states_explored),
              static_cast<unsigned long long>(res.stats.states_pruned),
              static_cast<unsigned long long>(res.stats.transitions),
              res.stats.max_queue_depth, res.stats.max_depth,
              res.ok ? "ok" : "VIOLATION", static_cast<long long>(ms));
  std::printf("ROW {\"bench\":\"protospec\",\"spec\":\"%s\",\"variant\":\"%s\","
              "\"ranks\":%d,\"crashes\":%d,\"fault_tolerant\":%s,"
              "\"states_explored\":%llu,\"states_pruned\":%llu,"
              "\"transitions\":%llu,\"terminal_states\":%llu,"
              "\"crash_branches\":%llu,\"max_queue_depth\":%zu,"
              "\"max_depth\":%zu,\"por\":%s,\"result\":\"%s\"}\n",
              inst.spec->name, inst.variant.c_str(), inst.params.nranks,
              inst.crashes, inst.params.fault_tolerant ? "true" : "false",
              static_cast<unsigned long long>(res.stats.states_explored),
              static_cast<unsigned long long>(res.stats.states_pruned),
              static_cast<unsigned long long>(res.stats.transitions),
              static_cast<unsigned long long>(res.stats.terminal_states),
              static_cast<unsigned long long>(res.stats.crash_branches),
              res.stats.max_queue_depth, res.stats.max_depth,
              opts.por ? "true" : "false", res.ok ? "ok" : "violation");
  if (!res.ok) {
    std::printf("  first violation: %s\n", res.error.c_str());
    failed = true;
  }
  return res.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  namespace util = pioblast::util;
  using pioblast::protospec::Env;
  ModelCheckOptions base;
  util::ArgParser args("protospec_check",
                       "exhaustive model check of every protocol spec");
  args.add("min-ranks", "2", "smallest world size, at least 2")
      .add("max-ranks", "6",
           "largest world size, at most " + std::to_string(Env::kMaxRanks))
      .add("crashes", "-1", "crash budget (-1: 0, then 1)")
      .add("tasks", "-1", "work-queue tasks (-1: scaled by world size)")
      .add("queries", "-1", "queries (-1: scaled by world size)")
      .add("spec", "", "check only the specs and variants whose name has this")
      .add("max-states", std::to_string(base.max_states),
           "distinct states one instance may reach")
      .add_flag("no-por", "explore the full product, without sleep sets");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "%s", args.error().c_str());
    return args.error().rfind("usage:", 0) == 0 ? 0 : 2;
  }
  // A bad value exits 2 naming its option, before any instance runs.
  int min_ranks = 0, max_ranks = 0, crashes_arg = 0, tasks_arg = 0,
      queries_arg = 0;
  try {
    const auto number = [&args](const std::string& name, auto lo, auto hi) {
      return util::named("--" + name, [&] {
        return util::read_number(args.get(name), lo, hi);
      });
    };
    min_ranks = number("min-ranks", 2, Env::kMaxRanks);
    max_ranks = number("max-ranks", min_ranks, Env::kMaxRanks);
    crashes_arg = number("crashes", -1, Env::kMaxRanks - 1);
    tasks_arg = number("tasks", -1, std::numeric_limits<int>::max());
    queries_arg = number("queries", -1, std::numeric_limits<int>::max());
    base.max_states = number("max-states", std::uint64_t{1},
                             std::numeric_limits<std::uint64_t>::max());
  } catch (const util::RuntimeError& e) {
    std::fprintf(stderr, "protospec_check: %s\n", e.what());
    return 2;
  }
  base.por = !args.get_flag("no-por");
  const std::string spec_filter = args.get("spec");

  std::vector<Instance> instances;
  auto add = [&](const ProtocolSpec* spec, const std::string& variant,
                 SpecParams params) {
    if (!spec_filter.empty() &&
        std::string(spec->name).find(spec_filter) == std::string::npos &&
        variant.find(spec_filter) == std::string::npos)
      return;
    std::vector<int> budgets;
    if (crashes_arg < 0) {
      budgets = {0, 1};
    } else {
      budgets = {crashes_arg};
    }
    for (const int crashes : budgets) {
      Instance inst;
      inst.spec = spec;
      inst.variant = variant;
      inst.params = params;
      inst.crashes = crashes;
      // A crash budget needs a fault-tolerant world; also check the
      // fault-tolerant protocol without crashes (parking paths, notices).
      if (crashes > 0) inst.params.fault_tolerant = true;
      instances.push_back(inst);
      if (crashes == 0 && !params.fault_tolerant) {
        Instance ft = inst;
        ft.params.fault_tolerant = true;
        instances.push_back(ft);
      }
    }
  };

  for (int n = min_ranks; n <= max_ranks; ++n) {
    // Small worlds afford a task per worker; past 4 ranks the any-worker
    // assignment orderings dominate the state count (the master's
    // per-worker history makes different assignment orders distinct,
    // non-converging states), and 3 tasks already exercise every protocol
    // path (assign, retire, park, requeue). At 6 ranks the serve-work
    // specs shrink further — measured against the 4M-state CI bound:
    // mpiblast fits at 2 tasks (3.8M states), the dynamic pioBLAST
    // exchange at 1 (1.7M); the static variant is cheap at any count.
    const int tasks = tasks_arg >= 0 ? tasks_arg : (n <= 4 ? n : 3);
    const int tight = tasks_arg >= 0 ? tasks_arg : (n <= 5 ? tasks : 2);
    const int tighter = tasks_arg >= 0 ? tasks_arg : (n <= 5 ? tasks : 1);
    // Two queries cover the query-loop back-edge (gather/barrier then a
    // second fetch round); at 6 ranks the second round roughly doubles
    // the crash placements on top of the widest any-worker fan-out, so
    // the largest world keeps one query to stay inside the state bound.
    const int queries = queries_arg >= 0 ? queries_arg : (n <= 5 ? 2 : 1);
    {
      SpecParams p;
      p.nranks = n;
      p.tasks = tight;
      p.queries = queries;
      p.fetch_cap = 1;
      add(pioblast::protospec::spec_by_name("mpiblast"), "", p);
    }
    {
      SpecParams p;
      p.nranks = n;
      p.tasks = tasks;
      p.queries = queries;
      p.batch = 1;
      p.dynamic = false;
      add(pioblast::protospec::spec_by_name("pioblast"), "static", p);
      p.tasks = tighter;
      p.dynamic = true;
      p.early_score = true;
      add(pioblast::protospec::spec_by_name("pioblast"), "dynamic", p);
    }
    {
      SpecParams p;
      p.nranks = n;
      p.naggs = n >= 2 ? 2 : 1;
      p.rounds = 2;
      add(pioblast::protospec::spec_by_name("pario_write"), "", p);
      add(pioblast::protospec::spec_by_name("pario_read"), "", p);
    }
  }

  bool failed = false;
  for (const Instance& inst : instances) run_instance(inst, base, failed);
  std::printf("protospec_check: %zu instance(s), %s\n", instances.size(),
              failed ? "FAILED" : "all ok");
  return failed ? 1 : 0;
}
