// Large-world smoke tests (ctest label: scale).
//
// These exist to keep the event backend honest at the scale it was built
// for: worlds of 1024+ ranks in one process, where the thread-per-rank
// backend would need more kernel threads than most CI containers allow.
// Kept in their own binary so `ctest -L scale` runs exactly this file —
// CI's scale job pairs it with a 1024-rank fig3a tiny sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "driver/scheduler.h"
#include "driver/work_queue.h"
#include "mpisim/exec.h"
#include "mpisim/runtime.h"
#include "mpisim/verify.h"

namespace pioblast {
namespace {

sim::ClusterConfig altix() { return sim::ClusterConfig::ornl_altix(); }

mpisim::RunOptions event_opts() {
  mpisim::RunOptions opts;
  opts.exec_model = mpisim::ExecModel::kEvents;
  return opts;
}

#define REQUIRE_EVENTS()                                       \
  if (!mpisim::events_supported())                             \
  GTEST_SKIP() << "stackful fibers unavailable on this platform"

TEST(Scale, ThousandRankCollectives) {
  REQUIRE_EVENTS();
  const int nranks = 1024;
  std::vector<sim::Time> reduced(static_cast<std::size_t>(nranks), -1);
  const auto report = mpisim::run(
      nranks, altix(),
      [&](mpisim::Process& p) {
        p.compute(1e-6 * (p.rank() % 17));
        p.barrier();
        std::vector<std::uint8_t> blob;
        if (p.is_root()) blob.assign(32, 0x5A);
        p.bcast(blob, 0);
        ASSERT_EQ(blob.size(), 32u) << "rank " << p.rank();
        reduced[static_cast<std::size_t>(p.rank())] =
            p.allreduce_max(static_cast<sim::Time>(p.rank()));
      },
      event_opts());
  ASSERT_EQ(report.ranks.size(), static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(reduced[static_cast<std::size_t>(r)],
              static_cast<sim::Time>(nranks - 1))
        << "rank " << r;
    EXPECT_GT(report.ranks[static_cast<std::size_t>(r)].final_clock, 0.0);
  }
}

TEST(Scale, ThousandRankWorkQueueDrains) {
  REQUIRE_EVENTS();
  const int nranks = 1024;
  const std::uint32_t ntasks = 4096;
  std::vector<std::vector<std::uint32_t>> served(
      static_cast<std::size_t>(nranks));
  mpisim::run(
      nranks, altix(),
      [&](mpisim::Process& p) {
        if (p.is_root()) {
          auto sched =
              driver::make_scheduler(driver::SchedulerKind::kGreedyDynamic);
          driver::WorkerTopology topo;
          topo.nworkers = nranks - 1;
          topo.speed.assign(static_cast<std::size_t>(nranks - 1), 1.0);
          driver::serve_work(p, *sched, ntasks, topo, {}, nullptr);
        } else {
          while (auto task = driver::request_work<std::uint32_t>(
                     p,
                     [](std::uint32_t id, mpisim::Decoder&) { return id; })) {
            served[static_cast<std::size_t>(p.rank())].push_back(*task);
          }
        }
      },
      event_opts());
  std::set<std::uint32_t> all;
  std::size_t total = 0;
  for (const auto& v : served) {
    all.insert(v.begin(), v.end());
    total += v.size();
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(ntasks));  // every task once
  EXPECT_EQ(total, static_cast<std::size_t>(ntasks));       // no duplicates
}

TEST(Scale, FourThousandRankBarrierTree) {
  REQUIRE_EVENTS();
  // Pure tree traffic at the headline world size: O(P log P) messages on
  // one thread. Completing at all (and quickly) is the assertion.
  const int nranks = 4096;
  const auto report = mpisim::run(
      nranks, altix(), [](mpisim::Process& p) { p.barrier(); }, event_opts());
  EXPECT_EQ(report.ranks.size(), static_cast<std::size_t>(nranks));
  EXPECT_GT(report.makespan(), 0.0);
}

TEST(Scale, VerifierReports4096RankDeadlock) {
  REQUIRE_EVENTS();
  // A ring wait at the headline world size: the verifier skips its full
  // scan until the last live rank blocks, and that one scan must still
  // find and render the whole cycle.
  const int nranks = 4096;
  std::string report;
  try {
    mpisim::run(
        nranks, altix(),
        [](mpisim::Process& p) { p.recv((p.rank() + 1) % p.size(), 5); },
        event_opts());
  } catch (const mpisim::VerifyError& e) {
    report = e.what();
  }
  ASSERT_FALSE(report.empty()) << "the ring wait finished without a report";
  EXPECT_NE(report.find("all 4096 live ranks blocked"), std::string::npos);
  const auto cycle = report.find("wait-for cycle: 0 -> 1 -> 2 -> ");
  ASSERT_NE(cycle, std::string::npos);
  EXPECT_TRUE(report.ends_with(" -> 4095 -> 0\n"))
      << report.substr(report.size() - std::min<std::size_t>(report.size(), 80));
}

}  // namespace
}  // namespace pioblast
