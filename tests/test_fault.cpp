// Fault-injection and fault-tolerance tests (ctest label: fault).
//
// Covers the FaultPlan grammar and validation, the mpisim-level injections
// (crash-at-event, stragglers, message drops) and their verifier
// integration, the fault-tolerant serve_work loop (crash before the first
// request, crash with tasks in flight, the stray-duplicate-request
// regression), scheduler requeue/validation edges, the degraded pario
// collective-write path (including a crash mid-shuffle under multi-round
// cb_buffer_size exchanges), and the end-to-end fault matrix on both
// drivers: a crashed or straggling worker — under naive or v2 pario hints
// — must never change the merged report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "blast/job.h"
#include "driver/metrics.h"
#include "driver/scheduler.h"
#include "driver/work_queue.h"
#include "mpiblast/mpiblast.h"
#include "mpisim/fault.h"
#include "mpisim/runtime.h"
#include "mpisim/trace.h"
#include "pario/collective.h"
#include "pario/env.h"
#include "pioblast/pioblast.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "support/trace_probe.h"
#include "util/error.h"

namespace pioblast {
namespace {

sim::ClusterConfig altix() { return sim::ClusterConfig::ornl_altix(); }

// ---------- FaultPlan grammar and validation -------------------------------

TEST(FaultPlan, ParsesInjectionsAndPlanWideKeys) {
  const auto plan = mpisim::FaultPlan::parse(
      "rank=2,crash_at=9;rank=1,slow=4;rank=3,drop_send=2,drop_send=5;"
      "detect=0.01;arm");
  EXPECT_TRUE(plan.active());
  EXPECT_TRUE(plan.has_crash());
  EXPECT_TRUE(plan.arm_detector);
  EXPECT_DOUBLE_EQ(plan.detection_delay, 0.01);
  ASSERT_NE(plan.find(2), nullptr);
  EXPECT_EQ(plan.find(2)->crash_at, 9u);
  ASSERT_NE(plan.find(1), nullptr);
  EXPECT_DOUBLE_EQ(plan.find(1)->slow, 4.0);
  ASSERT_NE(plan.find(3), nullptr);
  EXPECT_EQ(plan.find(3)->drop_sends,
            (std::vector<std::uint64_t>{2, 5}));
  EXPECT_EQ(plan.find(7), nullptr);
}

TEST(FaultPlan, EmptySpecIsInert) {
  const auto plan = mpisim::FaultPlan::parse("");
  EXPECT_FALSE(plan.active());
  EXPECT_FALSE(plan.has_crash());
  EXPECT_EQ(plan.describe(), "no faults");
}

TEST(FaultPlan, MalformedSpecsRejected) {
  EXPECT_THROW(mpisim::FaultPlan::parse("crash_at=3"), util::RuntimeError);
  EXPECT_THROW(mpisim::FaultPlan::parse("rank=1,bogus=2"), util::RuntimeError);
  EXPECT_THROW(mpisim::FaultPlan::parse("rank=1,crash_at=zero"),
               util::RuntimeError);
  EXPECT_THROW(mpisim::FaultPlan::parse("rank=,slow=2"), util::RuntimeError);
}

TEST(FaultPlan, ValidateRejectsBadPlans) {
  {
    mpisim::FaultPlan plan;  // crash on the master/detector rank
    plan.at(0).crash_at = 1;
    EXPECT_THROW(plan.validate(4), util::RuntimeError);
  }
  {
    mpisim::FaultPlan plan;  // out-of-range rank
    plan.at(9).slow = 2.0;
    EXPECT_THROW(plan.validate(4), util::RuntimeError);
  }
  {
    mpisim::FaultPlan plan;  // non-positive slowdown
    plan.at(1).slow = 0.0;
    EXPECT_THROW(plan.validate(4), util::RuntimeError);
  }
  {
    mpisim::FaultPlan plan;  // valid plan passes
    plan.at(1).crash_at = 3;
    plan.at(2).slow = 2.5;
    EXPECT_NO_THROW(plan.validate(4));
  }
}

TEST(FaultPlan, RandomCrashIsDeterministicAndInRange) {
  const auto a = mpisim::FaultPlan::random_crash(7, 8, 100);
  const auto b = mpisim::FaultPlan::random_crash(7, 8, 100);
  ASSERT_EQ(a.injections.size(), 1u);
  EXPECT_EQ(a.injections[0].rank, b.injections[0].rank);
  EXPECT_EQ(a.injections[0].crash_at, b.injections[0].crash_at);
  EXPECT_GE(a.injections[0].rank, 1);
  EXPECT_LT(a.injections[0].rank, 8);
  EXPECT_GE(a.injections[0].crash_at, 1u);
  EXPECT_LE(a.injections[0].crash_at, 100u);
  EXPECT_NO_THROW(a.validate(8));
}

// ---------- mpisim-level injections ----------------------------------------

TEST(MpisimFault, CrashedRankRetiresAndSurvivorsFinish) {
  mpisim::RunOptions opts;
  opts.faults.at(2).crash_at = 1;  // dies at its gather send
  std::vector<std::vector<std::uint8_t>> gathered;
  const auto report = mpisim::run(
      3, altix(),
      [&](mpisim::Process& p) {
        const std::uint8_t byte = static_cast<std::uint8_t>(0x40 + p.rank());
        auto slots = p.gather(std::span(&byte, 1), 0);
        if (p.is_root()) gathered = std::move(slots);
        p.barrier();
      },
      opts);
  ASSERT_EQ(report.ranks.size(), 3u);
  EXPECT_FALSE(report.ranks[0].crashed);
  EXPECT_FALSE(report.ranks[1].crashed);
  EXPECT_TRUE(report.ranks[2].crashed);
  ASSERT_EQ(gathered.size(), 3u);
  EXPECT_EQ(gathered[1], (std::vector<std::uint8_t>{0x41}));
  EXPECT_TRUE(gathered[2].empty());  // the lost rank's slot stays empty
}

TEST(MpisimFault, RecvFromCrashedRankThrowsPeerLost) {
  mpisim::RunOptions opts;
  opts.faults.at(2).crash_at = 1;
  std::vector<int> lost_peer(3, -1);
  mpisim::run(
      3, altix(),
      [&](mpisim::Process& p) {
        if (p.rank() == 2) {
          p.send(1, 5, {});  // never happens: comm event 1 is the crash
        } else if (p.rank() == 1) {
          try {
            p.recv(2, 5);
            ADD_FAILURE() << "recv from crashed rank returned a message";
          } catch (const mpisim::PeerLostError& e) {
            lost_peer[1] = e.peer();
          }
        }
      },
      opts);
  EXPECT_EQ(lost_peer[1], 2);
}

TEST(MpisimFault, SlowdownMultipliesComputeTime) {
  mpisim::RunOptions opts;
  opts.faults.at(1).slow = 3.0;
  const auto report = mpisim::run(
      2, altix(), [](mpisim::Process& p) { p.compute(0.01); }, opts);
  EXPECT_GT(report.ranks[0].final_clock, 0.0);
  EXPECT_NEAR(report.ranks[1].final_clock, 3.0 * report.ranks[0].final_clock,
              1e-12);
}

TEST(MpisimFault, DroppedSendIsATrueDeadlockPositive) {
  // The drop vanishes the message after charging the sender, so the
  // receiver waits forever — exactly the failure the verifier exists to
  // report. A dropped message must NOT be exonerated like a crash.
  mpisim::RunOptions opts;
  opts.faults.at(1).drop_sends = {1};
  EXPECT_THROW(mpisim::run(
                   2, altix(),
                   [](mpisim::Process& p) {
                     if (p.rank() == 1) {
                       p.send(0, 5, {});
                     } else {
                       p.recv(1, 5);
                     }
                   },
                   opts),
               mpisim::VerifyError);
}

TEST(MpisimFault, CrashAndRecoveryEventsAreTraced) {
  mpisim::Tracer tracer;
  mpisim::RunOptions opts;
  opts.tracer = &tracer;
  opts.faults.at(1).crash_at = 1;
  mpisim::run(
      3, altix(), [](mpisim::Process& p) { p.barrier(); }, opts);
  bool saw_fault = false;
  for (const auto& e : tracer.sorted()) {
    if (e.kind == mpisim::TraceKind::kFault && !e.drop && e.rank == 1)
      saw_fault = true;
  }
  EXPECT_TRUE(saw_fault);
}

// ---------- collectives with crashed participants --------------------------

TEST(CollectiveFault, CrashedInteriorRankDoesNotStrandCollectives) {
  // Non-power-of-two world with a mid-tree rank dead: under a fault plan
  // the collectives fall back to flat survivor-aware topologies, so no
  // survivor ever waits on a non-root peer. Barrier, bcast, and the
  // allreduce must all complete, with the victim simply absent from the
  // reduction.
  const int nranks = 6, victim = 3;
  mpisim::RunOptions opts;
  opts.faults.at(victim).crash_at = 1;  // dies at its first collective send
  std::vector<sim::Time> reduced(static_cast<std::size_t>(nranks), -1);
  std::vector<std::size_t> bcast_len(static_cast<std::size_t>(nranks), 0);
  const auto report = mpisim::run(
      nranks, altix(),
      [&](mpisim::Process& p) {
        try {
          p.barrier();
        } catch (const mpisim::PeerLostError&) {
          ADD_FAILURE() << "barrier raised PeerLostError on rank "
                        << p.rank();
        }
        std::vector<std::uint8_t> blob;
        if (p.is_root()) blob.assign(16, 0xC3);
        p.bcast(blob, 0);
        bcast_len[static_cast<std::size_t>(p.rank())] = blob.size();
        reduced[static_cast<std::size_t>(p.rank())] =
            p.allreduce_max(static_cast<sim::Time>(10 + p.rank()));
      },
      opts);
  EXPECT_TRUE(report.ranks[victim].crashed);
  for (int r = 0; r < nranks; ++r) {
    if (r == victim) continue;
    EXPECT_EQ(bcast_len[static_cast<std::size_t>(r)], 16u) << "rank " << r;
    // Max over survivors: the victim's 13 never contributes, 15 wins.
    EXPECT_EQ(reduced[static_cast<std::size_t>(r)],
              static_cast<sim::Time>(10 + nranks - 1))
        << "rank " << r;
  }
}

TEST(CollectiveFault, CrashedReductionWinnerDropsOutOfMax) {
  // The victim would have held the maximum; survivors must agree on the
  // runner-up, not hang waiting for the dead contributor.
  const int nranks = 5, victim = 4;
  mpisim::RunOptions opts;
  opts.faults.at(victim).crash_at = 1;
  std::vector<sim::Time> reduced(static_cast<std::size_t>(nranks), -1);
  mpisim::run(
      nranks, altix(),
      [&](mpisim::Process& p) {
        reduced[static_cast<std::size_t>(p.rank())] =
            p.allreduce_max(static_cast<sim::Time>(p.rank()));
      },
      opts);
  for (int r = 0; r < nranks - 1; ++r) {
    EXPECT_EQ(reduced[static_cast<std::size_t>(r)],
              static_cast<sim::Time>(victim - 1))
        << "rank " << r;
  }
}

TEST(CollectiveFault, CrashedBcastRootSurfacesPeerLostNotDeadlock) {
  // A dead root is unrecoverable for a bcast — there is nothing to
  // broadcast — but the failure mode must be a clean PeerLostError at
  // every receiver, never a hang. (FaultPlan forbids killing rank 0, so
  // the root here is rank 1.)
  const int nranks = 4, root = 1;
  mpisim::RunOptions opts;
  opts.faults.at(root).crash_at = 1;  // dies at its first bcast send
  std::vector<int> lost_peer(static_cast<std::size_t>(nranks), -1);
  const auto report = mpisim::run(
      nranks, altix(),
      [&](mpisim::Process& p) {
        std::vector<std::uint8_t> blob;
        if (p.rank() == root) blob.assign(8, 0x7E);
        try {
          p.bcast(blob, root);
          if (p.rank() != root)
            ADD_FAILURE() << "rank " << p.rank()
                          << " got a bcast from a dead root";
        } catch (const mpisim::PeerLostError& e) {
          lost_peer[static_cast<std::size_t>(p.rank())] = e.peer();
        }
      },
      opts);
  EXPECT_TRUE(report.ranks[root].crashed);
  for (int r = 0; r < nranks; ++r) {
    if (r == root) continue;
    EXPECT_EQ(lost_peer[static_cast<std::size_t>(r)], root) << "rank " << r;
  }
}

TEST(CollectiveFault, CrashedGatherRootLeavesSendersUnblocked) {
  // Sends to a sealed mailbox vanish, so contributors to a dead gather
  // root must sail through (their send is non-blocking) and the job must
  // terminate cleanly.
  const int nranks = 5, root = 2;
  mpisim::RunOptions opts;
  opts.faults.at(root).crash_at = 1;
  const auto report = mpisim::run(
      nranks, altix(),
      [&](mpisim::Process& p) {
        const std::uint8_t byte = static_cast<std::uint8_t>(p.rank());
        p.gather(std::span(&byte, 1), root);
      },
      opts);
  EXPECT_TRUE(report.ranks[root].crashed);
  for (int r = 0; r < nranks; ++r) {
    if (r == root) continue;
    EXPECT_FALSE(report.ranks[static_cast<std::size_t>(r)].crashed);
  }
}

// ---------- fault-tolerant serve_work --------------------------------------

struct ServeWorkRun {
  std::vector<std::vector<std::uint32_t>> served;  // per rank
  driver::RunMetrics metrics;  // not movable: filled via out-param
  mpisim::RunReport report;
};

void run_serve_work(ServeWorkRun& out, int nranks, std::uint32_t ntasks,
                    const mpisim::FaultPlan& faults,
                    driver::SchedulerKind kind =
                        driver::SchedulerKind::kGreedyDynamic) {
  out.served.resize(static_cast<std::size_t>(nranks));
  mpisim::RunOptions opts;
  opts.faults = faults;
  out.report = mpisim::run(
      nranks, altix(),
      [&](mpisim::Process& p) {
        if (p.is_root()) {
          auto sched = driver::make_scheduler(kind);
          driver::WorkerTopology topo;
          topo.nworkers = nranks - 1;
          topo.speed.assign(static_cast<std::size_t>(nranks - 1), 1.0);
          driver::serve_work(p, *sched, ntasks, topo, {}, &out.metrics);
          p.drain(mpisim::kTagFaultNotice);
        } else {
          while (auto task = driver::request_work<std::uint32_t>(
                     p, [](std::uint32_t id, mpisim::Decoder&) { return id; })) {
            out.served[static_cast<std::size_t>(p.rank())].push_back(*task);
          }
        }
      },
      opts);
}

/// Tasks served to workers that survived the run.
std::set<std::uint32_t> survivor_tasks(const ServeWorkRun& r) {
  std::set<std::uint32_t> tasks;
  for (std::size_t rank = 1; rank < r.served.size(); ++rank) {
    if (r.report.ranks[rank].crashed) continue;
    tasks.insert(r.served[rank].begin(), r.served[rank].end());
  }
  return tasks;
}

TEST(ServeWork, CompletesWhenWorkerCrashesBeforeFirstRequest) {
  mpisim::FaultPlan faults;
  faults.at(2).crash_at = 1;  // dies sending its first work request
  ServeWorkRun r;
  run_serve_work(r, 4, 6, faults);
  EXPECT_TRUE(r.report.ranks[2].crashed);
  EXPECT_EQ(survivor_tasks(r), (std::set<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(r.metrics.get(driver::kMetricTasksAssigned), 6u);
  // Nothing was ever assigned to the victim, so nothing is reassigned.
  EXPECT_EQ(r.metrics.get(driver::kMetricTasksReassigned), 0u);
}

TEST(ServeWork, ReassignsTasksOfWorkerLostWithWorkInFlight) {
  mpisim::FaultPlan faults;
  // Comm events: send req (1), recv assignment (2), send req (3) — the
  // victim dies holding one completed-but-unreported task. The event
  // backend serves the requests in a fixed order, so the victim reaches
  // event 3 before the other workers drain all six tasks.
  faults.at(2).crash_at = 3;
  ServeWorkRun r;
  run_serve_work(r, 4, 6, faults);
  EXPECT_TRUE(r.report.ranks[2].crashed);
  // Every task reaches a survivor, including the victim's requeued one.
  EXPECT_EQ(survivor_tasks(r), (std::set<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(r.metrics.get(driver::kMetricTasksReassigned), 1u);
  // Recovery time is recorded (it may be 0 in virtual time: a parked
  // worker can absorb the requeued task in the same event step as the
  // death notice).
  EXPECT_EQ(r.metrics.snapshot().count(std::string(driver::kMetricRecoveryUsec)),
            1u);
  // 6 fresh assignments + 1 reassignment.
  EXPECT_EQ(r.metrics.get(driver::kMetricTasksAssigned), 7u);
}

TEST(ServeWork, StragglerStillDrainsTheQueue) {
  mpisim::FaultPlan faults;
  faults.at(1).slow = 8.0;
  ServeWorkRun r;
  run_serve_work(r, 4, 9, faults);
  std::set<std::uint32_t> all;
  for (const auto& v : r.served) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 9u);
  EXPECT_EQ(r.metrics.get(driver::kMetricTasksReassigned), 0u);
}

TEST(ServeWork, StrayDuplicateRequestDoesNotDoubleRetire) {
  // Regression: a retired worker's stray kTagWorkReq used to decrement
  // `active` a second time, ending the serve loop while another worker
  // still waited for its reply — observed as a deadlock. The master must
  // answer the stray with another retirement and keep serving.
  const int nranks = 3;
  std::vector<int> retirements(static_cast<std::size_t>(nranks), 0);
  mpisim::run(nranks, altix(), [&](mpisim::Process& p) {
    if (p.is_root()) {
      auto sched =
          driver::make_scheduler(driver::SchedulerKind::kGreedyDynamic);
      driver::WorkerTopology topo;
      topo.nworkers = nranks - 1;
      topo.speed.assign(static_cast<std::size_t>(nranks - 1), 1.0);
      driver::serve_work(p, *sched, 0, topo, {}, nullptr);
    } else if (p.rank() == 1) {
      // Retire, then confusedly ask again. Both replies must be
      // retirements (has_task = 0).
      for (int round = 0; round < 2; ++round) {
        p.send(0, driver::kTagWorkReq, {});
        mpisim::Message reply = p.recv(0, driver::kTagAssign);
        mpisim::Decoder dec(reply.payload);
        ASSERT_EQ(dec.get<std::uint8_t>(), 0u);
        ++retirements[1];
      }
      p.send(2, 5, {});  // release rank 2 only after the stray exchange
    } else {
      // Request only after rank 1's stray was answered, so with the
      // historical double decrement the serve loop has already exited
      // and this request deadlocks.
      p.recv(1, 5);
      p.send(0, driver::kTagWorkReq, {});
      mpisim::Message reply = p.recv(0, driver::kTagAssign);
      mpisim::Decoder dec(reply.payload);
      ASSERT_EQ(dec.get<std::uint8_t>(), 0u);
      ++retirements[2];
    }
  });
  EXPECT_EQ(retirements[1], 2);
  EXPECT_EQ(retirements[2], 1);
}

// ---------- scheduler requeue + validation edges ---------------------------

driver::WorkerTopology topo_with_speeds(std::vector<double> speeds) {
  driver::WorkerTopology topo;
  topo.nworkers = static_cast<int>(speeds.size());
  topo.speed = std::move(speeds);
  return topo;
}

TEST(SchedulerRequeue, GreedyNeverReoffersToExcludedWorker) {
  auto sched = driver::make_scheduler(driver::SchedulerKind::kGreedyDynamic);
  sched->reset(2, topo_with_speeds({1.0, 1.0}));
  EXPECT_EQ(sched->next(0), 0);
  EXPECT_EQ(sched->next(1), 1);
  sched->requeue(0, /*excluded_worker=*/0);
  EXPECT_EQ(sched->next(0), driver::Scheduler::kNoTask);
  EXPECT_EQ(sched->next(1), 0);  // the survivor picks it up
  EXPECT_EQ(sched->next(1), driver::Scheduler::kNoTask);
}

TEST(SchedulerRequeue, StaticPoliciesServeRequeuedTasksAfterOwnPlan) {
  for (auto kind : {driver::SchedulerKind::kStaticRoundRobin,
                    driver::SchedulerKind::kSpeedWeighted}) {
    auto sched = driver::make_scheduler(kind);
    sched->reset(4, topo_with_speeds({1.0, 1.0}));
    // Hand out both workers' own plans.
    std::vector<std::int64_t> w0_tasks;
    for (std::int64_t t = sched->next(0); t != driver::Scheduler::kNoTask;
         t = sched->next(0)) {
      w0_tasks.push_back(t);
    }
    while (sched->next(1) != driver::Scheduler::kNoTask) {
    }
    ASSERT_FALSE(w0_tasks.empty());
    // Worker 0 dies holding its first task; worker 1 must absorb it
    // while worker 0's ghost never gets it back.
    const auto lost = static_cast<std::uint32_t>(w0_tasks.front());
    sched->requeue(lost, /*excluded_worker=*/0);
    EXPECT_EQ(sched->next(0), driver::Scheduler::kNoTask);
    EXPECT_EQ(sched->next(1), static_cast<std::int64_t>(lost));
    EXPECT_EQ(sched->next(1), driver::Scheduler::kNoTask);
  }
}

TEST(SchedulerValidation, SpeedWeightedRejectsInvalidSpeeds) {
  auto sched = driver::make_scheduler(driver::SchedulerKind::kSpeedWeighted);
  EXPECT_THROW(sched->reset(4, topo_with_speeds({1.0, 0.0})),
               util::ContractViolation);
  EXPECT_THROW(sched->reset(4, topo_with_speeds({-2.0, 1.0})),
               util::ContractViolation);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sched->reset(4, topo_with_speeds({nan, 1.0})),
               util::ContractViolation);
  // Regression: the ntasks=0 early-out used to skip validation entirely.
  EXPECT_THROW(sched->reset(0, topo_with_speeds({1.0, 0.0})),
               util::ContractViolation);
}

TEST(SchedulerValidation, ZeroTasksRetiresEveryWorkerImmediately) {
  for (auto kind : {driver::SchedulerKind::kGreedyDynamic,
                    driver::SchedulerKind::kStaticRoundRobin,
                    driver::SchedulerKind::kSpeedWeighted}) {
    auto sched = driver::make_scheduler(kind);
    sched->reset(0, topo_with_speeds({1.0, 2.0, 0.5}));
    for (int w = 0; w < 3; ++w) {
      EXPECT_EQ(sched->next(w), driver::Scheduler::kNoTask)
          << to_string(kind) << " worker " << w;
    }
  }
}

// ---------- degraded pario collective write --------------------------------

TEST(ParioFault, CollectiveWriteFallsBackWhenParticipantIsLost) {
  // Rank 2 owns the middle block and dies before the collective; the
  // survivors must detect the loss and land their blocks via independent
  // writes instead of hanging in the two-phase exchange.
  const int nprocs = 4;
  const std::uint64_t block = 128;
  pario::VirtualFS fs(sim::StorageModel::xfs_parallel());
  mpisim::RunOptions opts;
  opts.faults.at(2).crash_at = 1;  // first barrier send
  mpisim::Tracer tracer;
  opts.tracer = &tracer;
  mpisim::run(
      nprocs, altix(),
      [&](mpisim::Process& p) {
        p.barrier();  // the victim dies here, before the collective
        const std::uint64_t off = static_cast<std::uint64_t>(p.rank()) * block;
        std::vector<std::uint8_t> mine(
            block, static_cast<std::uint8_t>(0xA0 + p.rank()));
        pario::collective_write(p, fs, "out",
                                pario::FileView({{off, block}}), mine, {});
      },
      opts);
  // Survivors' regions all landed; the dead rank's region reads back as a
  // zero-filled hole.
  for (int r = 0; r < nprocs; ++r) {
    const auto got = fs.pread("out", static_cast<std::uint64_t>(r) * block,
                              block);
    const std::uint8_t want =
        r == 2 ? 0x00 : static_cast<std::uint8_t>(0xA0 + r);
    EXPECT_EQ(got, std::vector<std::uint8_t>(block, want)) << "rank " << r;
  }
  bool saw_degrade = false;
  for (const auto& e : tracer.sorted()) {
    if (e.kind == mpisim::TraceKind::kRecovery &&
        e.detail.find("independent writes") != std::string::npos) {
      saw_degrade = true;
    }
  }
  EXPECT_TRUE(saw_degrade);
}

TEST(ParioFault, MultiRoundShuffleCrashStillLandsSurvivorData) {
  // Interleaved blocks (so every rank's data crosses every aggregator
  // domain) with a small cb_buffer_size (so each domain exchanges in
  // several rounds). The victim dies in the middle of its shuffle sends —
  // AFTER the liveness sync declared everyone alive — so the survivors
  // cannot take the degraded independent-write path and must instead
  // absorb the loss recv-by-recv inside the round loop.
  // The victim is NOT an aggregator (aggregators are ranks 0..2): a dead
  // aggregator necessarily loses its whole file domain, but a dead
  // contributor must cost only its own unsent chunks.
  const int nprocs = 4, victim = 3;
  const std::uint64_t block = 32;
  const int nblocks = 16;  // 4 per rank, striped round-robin
  pario::CollectiveConfig cfg;
  cfg.aggregators = 3;
  cfg.buffer_size = 48;  // domain span ~171 -> 4 exchange rounds per domain

  const auto run = [&](pario::VirtualFS& fs, const mpisim::RunOptions& opts) {
    mpisim::run(
        nprocs, altix(),
        [&](mpisim::Process& p) {
          std::vector<pario::Region> mine;
          for (int b = p.rank(); b < nblocks; b += nprocs)
            mine.push_back({static_cast<std::uint64_t>(b) * block, block});
          std::vector<std::uint8_t> data(
              mine.size() * block, static_cast<std::uint8_t>(0xA0 + p.rank()));
          pario::collective_write(p, fs, "out", pario::FileView(mine), data,
                                  cfg);
        },
        opts);
  };

  // Probe: armed detector (same fault-tolerant comm structure, no crash)
  // to locate the victim's second shuffle send.
  mpisim::RunOptions popts;
  popts.faults.arm_detector = true;
  mpisim::Tracer probe;
  popts.tracer = &probe;
  pario::VirtualFS probe_fs(sim::StorageModel::xfs_parallel());
  run(probe_fs, popts);
  for (int b = 0; b < nblocks; ++b) {
    const auto got =
        probe_fs.pread("out", static_cast<std::uint64_t>(b) * block, block);
    EXPECT_EQ(got, std::vector<std::uint8_t>(
                       block, static_cast<std::uint8_t>(0xA0 + b % nprocs)))
        << "probe block " << b;
  }
  // collective_internal_tags()[0] is the shuffle tag.
  const int shuffle_tag = pario::collective_internal_tags()[0];
  std::uint64_t events = 0, crash_at = 0;
  int shuffle_sends = 0;
  for (const auto& e : probe.for_rank(victim)) {
    if (e.kind != mpisim::TraceKind::kSend &&
        e.kind != mpisim::TraceKind::kRecv) {
      continue;
    }
    ++events;
    if (e.kind == mpisim::TraceKind::kSend && e.tag == shuffle_tag) {
      ++shuffle_sends;
      if (shuffle_sends == 2 && crash_at == 0) crash_at = events;
    }
  }
  ASSERT_GT(crash_at, 0u);
  // 4 rounds to each of the 3 aggregators — the exchange really is
  // multi-round, not one batch per aggregator.
  EXPECT_EQ(shuffle_sends, 12);

  mpisim::RunOptions copts;
  copts.faults.at(victim).crash_at = crash_at;
  mpisim::Tracer tracer;
  copts.tracer = &tracer;
  pario::VirtualFS fs(sim::StorageModel::xfs_parallel());
  run(fs, copts);

  // Survivors' blocks all landed byte-exact; each of the victim's blocks
  // either landed (its round was sent before the crash) or stayed a
  // zero-filled hole — never garbage.
  for (int b = 0; b < nblocks; ++b) {
    const int owner = b % nprocs;
    if (owner != victim) {
      const auto got =
          fs.pread("out", static_cast<std::uint64_t>(b) * block, block);
      EXPECT_EQ(got, std::vector<std::uint8_t>(
                         block, static_cast<std::uint8_t>(0xA0 + owner)))
          << "survivor block " << b;
    } else {
      // An unsent trailing chunk may leave the file short — read what's
      // there rather than asserting the block exists at all.
      const auto got =
          fs.pread_upto("out", static_cast<std::uint64_t>(b) * block, block);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i] == 0x00 ||
                    got[i] == static_cast<std::uint8_t>(0xA0 + victim))
            << "victim block " << b << " byte " << i;
      }
    }
  }
  // The liveness snapshot predates the crash, so the collective must NOT
  // have degraded to independent writes — the round loop absorbed it.
  for (const auto& e : tracer.sorted()) {
    if (e.kind == mpisim::TraceKind::kRecovery) {
      EXPECT_EQ(e.detail.find("independent writes"), std::string::npos)
          << e.detail;
    }
  }
}

// ---------- end-to-end driver fault matrix ---------------------------------

struct Tiny {
  std::vector<seqdb::FastaRecord> db;
  std::string queries;
};

const Tiny& tiny() {
  static const Tiny* t = [] {
    auto* out = new Tiny();
    seqdb::GeneratorConfig gen;
    gen.target_residues = 60u << 10;
    gen.seed = 9;
    out->db = seqdb::generate_database(gen);
    out->queries = seqdb::write_fasta(seqdb::sample_queries(out->db, 1024, 3));
    return out;
  }();
  return *t;
}

void stage_queries(pario::ClusterStorage& storage) {
  const std::string& fasta = tiny().queries;
  storage.shared().write_all(
      "queries.fa",
      std::span(reinterpret_cast<const std::uint8_t*>(fasta.data()),
                fasta.size()));
}

blast::JobConfig tiny_job() {
  blast::JobConfig job;
  job.db_base = "db";
  job.db_title = "tiny";
  job.query_path = "queries.fa";
  job.params = blast::SearchParams::blastp_defaults();
  return job;
}

blast::DriverResult run_mpi(pario::ClusterStorage& storage, int nprocs,
                            int nfragments, const mpisim::FaultPlan& faults,
                            mpisim::Tracer* tracer = nullptr,
                            driver::SchedulerKind sched =
                                driver::SchedulerKind::kGreedyDynamic) {
  const auto parts =
      seqdb::mpiformatdb(storage.shared(), tiny().db, "db",
                         seqdb::SeqType::kProtein, "tiny", nfragments);
  mpiblast::MpiBlastOptions opts;
  opts.job = tiny_job();
  opts.job.output_path = "out.mpi.txt";
  opts.fragment_bases = parts.fragment_bases;
  opts.fragment_ranges = parts.ranges;
  opts.global_index = parts.global_index;
  opts.scheduler = sched;
  opts.faults = faults;
  opts.tracer = tracer;
  return mpiblast::run_mpiblast(altix(), nprocs, storage, opts);
}

blast::DriverResult run_pio(pario::ClusterStorage& storage, int nprocs,
                            const mpisim::FaultPlan& faults,
                            mpisim::Tracer* tracer = nullptr,
                            pio::PioBlastOptions opts = {}) {
  seqdb::format_db(storage.shared(), tiny().db, "db", seqdb::SeqType::kProtein,
                   "tiny");
  opts.job = tiny_job();
  opts.job.nfragments = opts.job.nfragments ? opts.job.nfragments : 0;
  opts.job.output_path = "out.pio.txt";
  opts.faults = faults;
  opts.tracer = tracer;
  return pio::run_pioblast(altix(), nprocs, storage, opts);
}

using test_support::nth_work_request_event;

/// The 1-based ordinal of `rank`'s first comm event inside its output
/// phase (0 when the rank has no output-phase communication).
std::uint64_t first_output_phase_event(const mpisim::Tracer& tracer,
                                       int rank) {
  std::uint64_t events = 0;
  bool in_output = false;
  for (const auto& e : tracer.for_rank(rank)) {
    if (e.kind == mpisim::TraceKind::kPhase) {
      in_output = e.detail == "output";
      continue;
    }
    if (e.kind != mpisim::TraceKind::kSend &&
        e.kind != mpisim::TraceKind::kRecv) {
      continue;
    }
    ++events;
    if (in_output) return events;
  }
  return 0;
}

TEST(FaultMatrix, MpiBlastSurvivesCrashWithIdenticalOutput) {
  const int nprocs = 4, nfragments = 6, victim = 2;
  pario::ClusterStorage clean(altix(), nprocs);
  stage_queries(clean);
  run_mpi(clean, nprocs, nfragments, {});
  const auto baseline = clean.shared().read_all("out.mpi.txt");
  ASSERT_FALSE(baseline.empty());

  // Probe: armed detector (same fault-tolerant comm structure as the
  // crash run, no injection) to find a mid-serve-loop crash point.
  mpisim::FaultPlan armed;
  armed.arm_detector = true;
  mpisim::Tracer probe;
  pario::ClusterStorage probe_storage(altix(), nprocs);
  stage_queries(probe_storage);
  run_mpi(probe_storage, nprocs, nfragments, armed, &probe);
  EXPECT_EQ(probe_storage.shared().read_all("out.mpi.txt"), baseline);
  const std::uint64_t crash_at = nth_work_request_event(probe, victim, 2);
  ASSERT_GT(crash_at, 0u);

  mpisim::FaultPlan faults;
  faults.at(victim).crash_at = crash_at;
  pario::ClusterStorage storage(altix(), nprocs);
  stage_queries(storage);
  const auto result = run_mpi(storage, nprocs, nfragments, faults);
  EXPECT_EQ(storage.shared().read_all("out.mpi.txt"), baseline);
  EXPECT_EQ(result.metrics.at("ranks_lost"), 1u);
  EXPECT_GE(result.metrics.at("tasks_reassigned"), 1u);
  // Recorded even when recovery completes in the same virtual instant
  // (a parked survivor absorbing the requeued fragment).
  EXPECT_EQ(result.metrics.count("recovery_usec"), 1u);
}

TEST(FaultMatrix, PioBlastDynamicSurvivesCrashWithIdenticalOutput) {
  const int nprocs = 4, victim = 3;
  pio::PioBlastOptions dyn;
  dyn.scheduler = driver::SchedulerKind::kGreedyDynamic;
  dyn.job.nfragments = 6;

  pario::ClusterStorage clean(altix(), nprocs);
  stage_queries(clean);
  run_pio(clean, nprocs, {}, nullptr, dyn);
  const auto baseline = clean.shared().read_all("out.pio.txt");
  ASSERT_FALSE(baseline.empty());

  mpisim::FaultPlan armed;
  armed.arm_detector = true;
  mpisim::Tracer probe;
  pario::ClusterStorage probe_storage(altix(), nprocs);
  stage_queries(probe_storage);
  run_pio(probe_storage, nprocs, armed, &probe, dyn);
  EXPECT_EQ(probe_storage.shared().read_all("out.pio.txt"), baseline);
  const std::uint64_t crash_at = nth_work_request_event(probe, victim, 2);
  ASSERT_GT(crash_at, 0u);

  mpisim::FaultPlan faults;
  faults.at(victim).crash_at = crash_at;
  pario::ClusterStorage storage(altix(), nprocs);
  stage_queries(storage);
  const auto result = run_pio(storage, nprocs, faults, nullptr, dyn);
  EXPECT_EQ(storage.shared().read_all("out.pio.txt"), baseline);
  EXPECT_EQ(result.metrics.at("ranks_lost"), 1u);
  EXPECT_GE(result.metrics.at("tasks_reassigned"), 1u);
}

TEST(FaultMatrix, BufferedRoundsAndSievingPreserveOutputAcrossCrash) {
  // pario v2 hints (small cb_buffer_size so the collective output write
  // exchanges in many rounds; sieving/list-merging on the input path) must
  // be invisible in the merged report: byte-identical to the naive
  // per-request hints, both fault-free and with a worker crashed
  // mid-search, where the requeue plus the degraded survivor-only
  // collective write carry the output.
  const int nprocs = 4, victim = 3;
  pio::PioBlastOptions v2;
  v2.scheduler = driver::SchedulerKind::kGreedyDynamic;
  v2.hints.cb_buffer_size = 512;  // force several exchange rounds
  pio::PioBlastOptions naive = v2;
  naive.hints.list_io = false;
  naive.hints.ds_read = pario::SieveMode::kDisable;
  naive.hints.cb_buffer_size = 0;  // one unbounded round (pre-v2 shape)

  pario::ClusterStorage clean(altix(), nprocs);
  stage_queries(clean);
  run_pio(clean, nprocs, {}, nullptr, v2);
  const auto baseline = clean.shared().read_all("out.pio.txt");
  ASSERT_FALSE(baseline.empty());

  pario::ClusterStorage naive_storage(altix(), nprocs);
  stage_queries(naive_storage);
  run_pio(naive_storage, nprocs, {}, nullptr, naive);
  EXPECT_EQ(naive_storage.shared().read_all("out.pio.txt"), baseline)
      << "naive hints changed the fault-free report";

  mpisim::FaultPlan armed;
  armed.arm_detector = true;
  mpisim::Tracer probe;
  pario::ClusterStorage probe_storage(altix(), nprocs);
  stage_queries(probe_storage);
  run_pio(probe_storage, nprocs, armed, &probe, v2);
  EXPECT_EQ(probe_storage.shared().read_all("out.pio.txt"), baseline);
  const std::uint64_t crash_at = nth_work_request_event(probe, victim, 2);
  ASSERT_GT(crash_at, 0u);

  mpisim::FaultPlan faults;
  faults.at(victim).crash_at = crash_at;
  pario::ClusterStorage v2_crash(altix(), nprocs);
  stage_queries(v2_crash);
  const auto v2_result = run_pio(v2_crash, nprocs, faults, nullptr, v2);
  EXPECT_EQ(v2_crash.shared().read_all("out.pio.txt"), baseline)
      << "v2 hints + crash changed the report";
  EXPECT_EQ(v2_result.metrics.at("ranks_lost"), 1u);
  EXPECT_GE(v2_result.metrics.at("tasks_reassigned"), 1u);

  pario::ClusterStorage naive_crash(altix(), nprocs);
  stage_queries(naive_crash);
  run_pio(naive_crash, nprocs, faults, nullptr, naive);
  EXPECT_EQ(naive_crash.shared().read_all("out.pio.txt"), baseline)
      << "naive hints + crash changed the report";
}

TEST(FaultMatrix, StragglerPreservesOutputUnderEverySchedulerBothDrivers) {
  const int nprocs = 4;
  mpisim::FaultPlan straggler;
  straggler.at(2).slow = 4.0;
  for (auto kind : {driver::SchedulerKind::kGreedyDynamic,
                    driver::SchedulerKind::kStaticRoundRobin,
                    driver::SchedulerKind::kSpeedWeighted}) {
    pario::ClusterStorage clean(altix(), nprocs);
    stage_queries(clean);
    const auto clean_mpi = run_mpi(clean, nprocs, 6, {}, nullptr, kind);
    const auto mpi_baseline = clean.shared().read_all("out.mpi.txt");
    pio::PioBlastOptions popts;
    popts.scheduler = kind;
    run_pio(clean, nprocs, {}, nullptr, popts);
    const auto pio_baseline = clean.shared().read_all("out.pio.txt");

    pario::ClusterStorage storage(altix(), nprocs);
    stage_queries(storage);
    const auto slow_mpi =
        run_mpi(storage, nprocs, 6, straggler, nullptr, kind);
    EXPECT_EQ(storage.shared().read_all("out.mpi.txt"), mpi_baseline)
        << "mpiblast " << driver::to_string(kind);
    EXPECT_GT(slow_mpi.phases.total, clean_mpi.phases.total)
        << driver::to_string(kind);
    run_pio(storage, nprocs, straggler, nullptr, popts);
    EXPECT_EQ(storage.shared().read_all("out.pio.txt"), pio_baseline)
        << "pioblast " << driver::to_string(kind);
  }
}

TEST(FaultMatrix, PioBlastStaticWriterLostDuringOutputTerminates) {
  // Static pioBLAST with a worker lost at the start of its output phase:
  // its cached result text dies with it, so the report cannot be
  // reproduced byte-for-byte — but the job must still terminate cleanly
  // (degraded collective write, no verifier false positives) with the
  // loss accounted in the metrics.
  const int nprocs = 4, victim = 2;
  mpisim::FaultPlan armed;
  armed.arm_detector = true;
  mpisim::Tracer probe;
  pario::ClusterStorage probe_storage(altix(), nprocs);
  stage_queries(probe_storage);
  run_pio(probe_storage, nprocs, armed, &probe);
  const std::uint64_t crash_at = first_output_phase_event(probe, victim);
  ASSERT_GT(crash_at, 0u);

  mpisim::FaultPlan faults;
  faults.at(victim).crash_at = crash_at;
  pario::ClusterStorage storage(altix(), nprocs);
  stage_queries(storage);
  const auto result = run_pio(storage, nprocs, faults);
  EXPECT_EQ(result.metrics.at("ranks_lost"), 1u);
  EXPECT_FALSE(storage.shared().read_all("out.pio.txt").empty());
}

}  // namespace
}  // namespace pioblast
