#include "driver/scheduler.h"

#include <cmath>
#include <deque>
#include <utility>

#include "util/error.h"
#include "util/parse.h"

namespace pioblast::driver {

namespace {
/// The scheduler names, in SchedulerKind's order.
constexpr std::string_view kSchedulerNames[] = {"greedy", "roundrobin",
                                                "speed-weighted"};
}  // namespace

std::string_view to_string(SchedulerKind kind) {
  return kSchedulerNames[static_cast<int>(kind)];
}

SchedulerKind parse_scheduler(std::string_view name) {
  return static_cast<SchedulerKind>(util::read_choice(name, kSchedulerNames));
}

WorkerTopology WorkerTopology::from_cluster(const sim::ClusterConfig& cluster,
                                            int nprocs) {
  WorkerTopology topo;
  topo.nworkers = nprocs - 1;
  topo.speed.reserve(static_cast<std::size_t>(topo.nworkers));
  for (int w = 0; w < topo.nworkers; ++w)
    topo.speed.push_back(cluster.speed_of(w + 1));  // rank 0 is the master
  return topo;
}

std::vector<std::vector<std::uint32_t>> Scheduler::plan(
    std::uint32_t ntasks, const WorkerTopology& topo) {
  PIOBLAST_CHECK_MSG(is_static(),
                     "plan() requires a static scheduler; " << name()
                                                            << " is dynamic");
  reset(ntasks, topo);
  std::vector<std::vector<std::uint32_t>> out(
      static_cast<std::size_t>(topo.nworkers));
  for (int w = 0; w < topo.nworkers; ++w) {
    for (std::int64_t t = next(w); t != kNoTask; t = next(w))
      out[static_cast<std::size_t>(w)].push_back(
          static_cast<std::uint32_t>(t));
  }
  return out;
}

namespace {

/// Tasks returned to the pool after their worker died, with the worker
/// each one must not be offered to again. Shared by all policies.
using RequeuePool = std::deque<std::pair<std::uint32_t, int>>;

/// Pops the first requeued task eligible for `worker`, or kNoTask.
std::int64_t take_requeued(RequeuePool& pool, int worker) {
  for (auto it = pool.begin(); it != pool.end(); ++it) {
    if (it->second == worker) continue;  // dead worker's own task
    const std::uint32_t t = it->first;
    pool.erase(it);
    return t;
  }
  return Scheduler::kNoTask;
}

/// First-come-first-served: the next un-assigned task goes to whichever
/// worker asks first (the paper's greedy master loop).
class GreedyDynamic final : public Scheduler {
 public:
  std::string_view name() const override { return "greedy"; }
  bool is_static() const override { return false; }

  void reset(std::uint32_t ntasks, const WorkerTopology&) override {
    ntasks_ = ntasks;
    next_ = 0;
    requeued_.clear();
  }

  std::int64_t next(int worker) override {
    // Recovered tasks first: they are the oldest work in the system and
    // gate job completion.
    const std::int64_t re = take_requeued(requeued_, worker);
    if (re != kNoTask) return re;
    return next_ < ntasks_ ? static_cast<std::int64_t>(next_++) : kNoTask;
  }

  void requeue(std::uint32_t task, int excluded_worker) override {
    requeued_.emplace_back(task, excluded_worker);
  }

 private:
  std::uint32_t ntasks_ = 0;
  std::uint32_t next_ = 0;
  RequeuePool requeued_;
};

/// Base for policies whose per-worker queues are precomputed in reset().
class PlannedScheduler : public Scheduler {
 public:
  bool is_static() const override { return true; }

  std::int64_t next(int worker) override {
    PIOBLAST_CHECK(worker >= 0 &&
                   static_cast<std::size_t>(worker) < queues_.size());
    auto& q = queues_[static_cast<std::size_t>(worker)];
    if (!q.empty()) {
      const std::uint32_t t = q.front();
      q.pop_front();
      return t;
    }
    // Own plan drained: pick up work orphaned by a dead worker (its
    // planned queue can no longer be served by its owner).
    return take_requeued(requeued_, worker);
  }

  void requeue(std::uint32_t task, int excluded_worker) override {
    requeued_.emplace_back(task, excluded_worker);
  }

 protected:
  std::vector<std::deque<std::uint32_t>> queues_;
  RequeuePool requeued_;
};

class StaticRoundRobin final : public PlannedScheduler {
 public:
  std::string_view name() const override { return "roundrobin"; }

  void reset(std::uint32_t ntasks, const WorkerTopology& topo) override {
    queues_.assign(static_cast<std::size_t>(topo.nworkers), {});
    requeued_.clear();
    for (std::uint32_t t = 0; t < ntasks; ++t)
      queues_[t % static_cast<std::uint32_t>(topo.nworkers)].push_back(t);
  }
};

/// D'Hondt apportionment over node speeds: each task goes to the worker
/// with the largest speed/(assigned+1) quotient (ties to the lowest rank),
/// so task counts converge to the speed proportions. With homogeneous
/// speeds this degenerates to round-robin.
class SpeedWeightedStatic final : public PlannedScheduler {
 public:
  std::string_view name() const override { return "speed-weighted"; }

  void reset(std::uint32_t ntasks, const WorkerTopology& topo) override {
    const auto n = static_cast<std::size_t>(topo.nworkers);
    queues_.assign(n, {});
    requeued_.clear();
    // A zero or negative speed makes every quotient non-positive and the
    // divisor sweep degenerates (all tasks pile onto worker 0), so reject
    // invalid speeds loudly instead of silently misassigning. Validated
    // even when ntasks == 0: a bad topology is a bug regardless of load.
    for (std::size_t w = 0; w < n; ++w) {
      const double speed = w < topo.speed.size() ? topo.speed[w] : 1.0;
      PIOBLAST_CHECK_MSG(std::isfinite(speed) && speed > 0.0,
                         "speed-weighted scheduler: worker "
                             << w << " has invalid node speed " << speed
                             << " (speeds must be finite and > 0)");
    }
    std::vector<std::uint32_t> assigned(n, 0);
    for (std::uint32_t t = 0; t < ntasks; ++t) {
      std::size_t best = 0;
      double best_q = -1.0;
      for (std::size_t w = 0; w < n; ++w) {
        const double speed = w < topo.speed.size() ? topo.speed[w] : 1.0;
        const double q = speed / static_cast<double>(assigned[w] + 1);
        if (q > best_q) {
          best_q = q;
          best = w;
        }
      }
      queues_[best].push_back(t);
      ++assigned[best];
    }
  }
};

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kGreedyDynamic:
      return std::make_unique<GreedyDynamic>();
    case SchedulerKind::kStaticRoundRobin:
      return std::make_unique<StaticRoundRobin>();
    case SchedulerKind::kSpeedWeighted:
      return std::make_unique<SpeedWeightedStatic>();
  }
  throw util::RuntimeError("unknown SchedulerKind");
}

}  // namespace pioblast::driver
