// Event-backend tests (ctest label: events).
//
// The contract under test: ExecModel::kEvents (stackful fibers on one
// scheduler thread, mpisim/event_loop.h) is the default backend, and it is
// observationally identical to the thread-per-rank one. That means
// byte-identical virtual clocks, message counters, and driver output
// files, and the protocol verifier, fault injection, and the stuck handler
// behaving the same. A checked run (a ScheduleHook installed) runs on the
// event loop whatever its exec model says.
//
// Also here: correctness of the binomial-tree collectives (barrier, bcast,
// allreduce_max) at non-power-of-two world sizes, on both backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "blast/job.h"
#include "driver/scheduler.h"
#include "driver/work_queue.h"
#include "mpicheck/coop.h"
#include "mpisim/exec.h"
#include "mpisim/fault.h"
#include "mpisim/runtime.h"
#include "pario/env.h"
#include "pioblast/pioblast.h"
#include "seqdb/formatdb.h"
#include "seqdb/generator.h"

namespace pioblast {
namespace {

sim::ClusterConfig altix() { return sim::ClusterConfig::ornl_altix(); }

constexpr auto kThreads = mpisim::ExecModel::kThreads;
constexpr auto kEvents = mpisim::ExecModel::kEvents;

// ---------- cross-backend equivalence --------------------------------------

/// A mixed workload touching every suspension path: point-to-point rings,
/// fan-in at the root, all four collectives, and per-rank compute skew.
/// Deliberately free of any-source receives: with kAnySource the match
/// order — and therefore the receiver's virtual clock — depends on
/// real-time message-arrival order, which no backend guarantees. Exact
/// cross-backend clock equality is only promised for jobs whose virtual
/// time is schedule-independent (driver *output* is byte-identical either
/// way; the checked decision stream is pinned down by the CLI's
/// cli_check_golden case).
void mixed_job(mpisim::Process& p) {
  const int n = p.size();
  p.compute(1e-4 * (p.rank() + 1));
  // Ring: everyone sends right, receives from the left.
  const std::uint8_t byte = static_cast<std::uint8_t>(p.rank());
  p.send((p.rank() + 1) % n, 5, std::span(&byte, 1));
  p.recv((p.rank() - 1 + n) % n, 5);
  // Fan-in at rank 0, matched per source.
  if (p.is_root()) {
    for (int i = 1; i < n; ++i) p.recv(i, 6);
  } else {
    p.send(0, 6, {});
  }
  p.barrier();
  std::vector<std::uint8_t> blob;
  if (p.rank() == 1 % n) blob.assign(64, 0xAB);
  p.bcast(blob, 1 % n);
  p.gather(std::span(&byte, 1), 0);
  p.allreduce_max(static_cast<sim::Time>(p.rank()));
}

mpisim::RunReport run_mixed(int nranks, mpisim::ExecModel exec) {
  mpisim::RunOptions opts;
  opts.exec_model = exec;
  return mpisim::run(nranks, altix(), mixed_job, opts);
}

TEST(EventBackend, ClocksAndCountersMatchThreadsExactly) {
  // Non-power-of-two and power-of-two worlds: the binomial trees take
  // different shapes, the equivalence must hold for both.
  for (int nranks : {2, 3, 5, 7, 8, 13}) {
    const auto threads = run_mixed(nranks, kThreads);
    const auto events = run_mixed(nranks, kEvents);
    ASSERT_EQ(events.ranks.size(), threads.ranks.size()) << nranks;
    for (int r = 0; r < nranks; ++r) {
      const auto& t = threads.ranks[static_cast<std::size_t>(r)];
      const auto& e = events.ranks[static_cast<std::size_t>(r)];
      // Exact, not NEAR: both backends must execute the identical event
      // sequence, so the floating-point clocks agree bit for bit.
      EXPECT_EQ(e.final_clock, t.final_clock) << nranks << " rank " << r;
      EXPECT_EQ(e.bytes_sent, t.bytes_sent) << nranks << " rank " << r;
      EXPECT_EQ(e.messages_sent, t.messages_sent) << nranks << " rank " << r;
    }
    EXPECT_EQ(events.makespan(), threads.makespan()) << nranks;
  }
}

TEST(EventBackend, PioBlastOutputBytesMatchThreads) {
  seqdb::GeneratorConfig gen;
  gen.target_residues = 60u << 10;
  gen.seed = 11;
  const auto db = seqdb::generate_database(gen);
  const std::string queries =
      seqdb::write_fasta(seqdb::sample_queries(db, 1024, 3));
  auto run_one = [&](mpisim::ExecModel exec) {
    pario::ClusterStorage storage(altix(), 4);
    storage.shared().write_all(
        "queries.fa",
        std::span(reinterpret_cast<const std::uint8_t*>(queries.data()),
                  queries.size()));
    seqdb::format_db(storage.shared(), db, "db", seqdb::SeqType::kProtein,
                     "tiny");
    pio::PioBlastOptions opts;
    opts.exec = exec;
    opts.job.db_base = "db";
    opts.job.query_path = "queries.fa";
    opts.job.output_path = "out.txt";
    opts.job.params = blast::SearchParams::blastp_defaults();
    pio::run_pioblast(altix(), 4, storage, opts);
    return storage.shared().read_all("out.txt");
  };
  const auto baseline = run_one(kThreads);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run_one(kEvents), baseline);
}

// ---------- tree collectives at non-power-of-two sizes ---------------------

TEST(TreeCollectives, CorrectAtAwkwardWorldSizes) {
  for (const auto exec : {kThreads, kEvents}) {
    for (int nranks : {2, 3, 5, 6, 7, 9, 12, 17}) {
      const int root = nranks - 1;  // non-zero root exercises renumbering
      std::vector<std::vector<std::uint8_t>> bcast_got(
          static_cast<std::size_t>(nranks));
      std::vector<sim::Time> reduce_got(static_cast<std::size_t>(nranks), -1);
      mpisim::RunOptions opts;
      opts.exec_model = exec;
      mpisim::run(
          nranks, altix(),
          [&](mpisim::Process& p) {
            p.barrier();
            std::vector<std::uint8_t> blob;
            if (p.rank() == root) blob = {1, 2, 3, 4};
            p.bcast(blob, root);
            bcast_got[static_cast<std::size_t>(p.rank())] = blob;
            // Skewed clocks make the max distinctive before the reduce.
            p.compute(1e-3 * (p.rank() + 1));
            reduce_got[static_cast<std::size_t>(p.rank())] =
                p.allreduce_max(static_cast<sim::Time>(100 + p.rank()));
          },
          opts);
      for (int r = 0; r < nranks; ++r) {
        EXPECT_EQ(bcast_got[static_cast<std::size_t>(r)],
                  (std::vector<std::uint8_t>{1, 2, 3, 4}))
            << "bcast " << nranks << " rank " << r;
        EXPECT_EQ(reduce_got[static_cast<std::size_t>(r)],
                  static_cast<sim::Time>(100 + nranks - 1))
            << "allreduce " << nranks << " rank " << r;
      }
    }
  }
}

TEST(TreeCollectives, BarrierSynchronizesSkewedClocks) {
  // After a barrier no rank's clock may precede the latest pre-barrier
  // clock: the slowest rank gates the release on the tree as on the flat
  // topology.
  for (int nranks : {3, 6, 11}) {
    std::vector<sim::Time> before(static_cast<std::size_t>(nranks));
    std::vector<sim::Time> after(static_cast<std::size_t>(nranks));
    mpisim::run(nranks, altix(), [&](mpisim::Process& p) {
      p.compute(1e-3 * (nranks - p.rank()));  // rank 0 is the straggler
      before[static_cast<std::size_t>(p.rank())] = p.now();
      p.barrier();
      after[static_cast<std::size_t>(p.rank())] = p.now();
    });
    const sim::Time slowest = *std::max_element(before.begin(), before.end());
    for (int r = 0; r < nranks; ++r) {
      EXPECT_GE(after[static_cast<std::size_t>(r)], slowest)
          << nranks << " rank " << r;
    }
  }
}

// ---------- verifier, faults, and the stuck path on events -----------------
//
// Default RunOptions: these run on the event loop.

void deadlock_job(mpisim::Process& p) {
  if (p.rank() == 1) p.recv(0, 5);  // nobody ever sends
}

TEST(EventBackend, VerifierReportsDeadlock) {
  EXPECT_THROW(mpisim::run(2, altix(), deadlock_job), mpisim::VerifyError);
}

TEST(EventBackend, StuckHandlerUnwindsWedgeWithVerifierOff) {
  // With the verifier off a wedged job has nobody to call deadlock; the
  // event loop's stuck handler must poison the blocked receives so the
  // job unwinds with a report instead of spinning forever.
  mpisim::RunOptions opts;
  opts.verify.enabled = false;
  try {
    mpisim::run(2, altix(), deadlock_job, opts);
    FAIL() << "wedged job returned";
  } catch (const mpisim::VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("scheduler stuck"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos)
        << e.what();
  }
}

TEST(EventBackend, CrashFaultRetiresRankAndSurvivorsFinish) {
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
  EXPECT_TRUE(report.ranks[2].crashed);
  ASSERT_EQ(gathered.size(), 3u);
  EXPECT_EQ(gathered[1], (std::vector<std::uint8_t>{0x41}));
  EXPECT_TRUE(gathered[2].empty());
}

TEST(EventBackend, FaultRunClocksMatchThreads) {
  auto run_one = [&](mpisim::ExecModel exec) {
    mpisim::RunOptions opts;
    opts.exec_model = exec;
    opts.faults.at(2).crash_at = 2;
    opts.faults.at(1).slow = 3.0;
    return mpisim::run(
        4, altix(),
        [](mpisim::Process& p) {
          p.compute(1e-4);
          p.barrier();
          p.gather({}, 0);
        },
        opts);
  };
  const auto threads = run_one(kThreads);
  const auto events = run_one(kEvents);
  for (int r = 0; r < 4; ++r) {
    const auto& t = threads.ranks[static_cast<std::size_t>(r)];
    const auto& e = events.ranks[static_cast<std::size_t>(r)];
    EXPECT_EQ(e.crashed, t.crashed) << "rank " << r;
    EXPECT_EQ(e.final_clock, t.final_clock) << "rank " << r;
  }
}

// ---------- default and checked runs run on the event loop -----------------

/// Two workers race their messages to an any-source master; every
/// interleaving is legal.
void fan_in_job(mpisim::Process& p) {
  constexpr int kTag = 7;
  if (p.rank() == 0) {
    p.recv(mpisim::kAnySource, kTag);
    p.recv(mpisim::kAnySource, kTag);
  } else {
    p.send(0, kTag, {});
  }
  p.barrier();
}

TEST(DefaultRun, RunsEveryRankOnTheCallingThread) {
  // Default RunOptions pick the event loop, so no rank gets an OS thread
  // of its own and wildcard receives match in a fixed order.
  std::vector<std::thread::id> ids(3);
  mpisim::run(
      3, altix(),
      [&ids](mpisim::Process& p) {
        ids[static_cast<std::size_t>(p.rank())] = std::this_thread::get_id();
        fan_in_job(p);
      },
      mpisim::RunOptions{});
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(ids[static_cast<std::size_t>(r)], std::this_thread::get_id())
        << "rank " << r;
  }
}

TEST(CheckedRun, RunsEveryRankOnTheCallingThreadUnderThreadsExecModel) {
  // A schedule hook sends the job to the event loop whatever exec_model
  // says, so no rank gets an OS thread of its own.
  mpicheck::CoopScheduler coop;
  mpisim::RunOptions opts;
  opts.exec_model = kThreads;
  opts.schedule = &coop;
  std::vector<std::thread::id> ids(3);
  mpisim::run(
      3, altix(),
      [&ids](mpisim::Process& p) {
        ids[static_cast<std::size_t>(p.rank())] = std::this_thread::get_id();
        fan_in_job(p);
      },
      opts);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(ids[static_cast<std::size_t>(r)], std::this_thread::get_id())
        << "rank " << r;
  }
  EXPECT_FALSE(coop.records().empty());
}

}  // namespace
}  // namespace pioblast
