// Unit tests for util: RNG determinism, tables, unit formatting, phase
// accounting, the contract-check macros, and the fork-join pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/fork_join.h"
#include "util/phase_timer.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace pioblast::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ReseedRestoresStream) {
  Rng a(77);
  const auto first = a();
  a.reseed(77);
  EXPECT_EQ(a(), first);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(rng.between(3, 6));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 3u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsPlausible) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(42);
  Rng c0 = parent.fork(0);
  Rng c1 = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (c0() == c1()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(Checks, CheckMsgCarriesContext) {
  try {
    PIOBLAST_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Checks, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(PIOBLAST_CHECK(2 + 2 == 4));
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(format_bytes(5 * kGiB), "5.00 GiB");
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.5e-6), "0.50 us");
  EXPECT_EQ(format_seconds(2.5e-3), "2.50 ms");
  EXPECT_EQ(format_seconds(1.5), "1.50 s");
  EXPECT_EQ(format_seconds(125.0), "2m05.0s");
  EXPECT_EQ(format_seconds(-1.0), "0.00 us");
}

TEST(Units, FormatPercent) {
  EXPECT_EQ(format_percent(0.956), "95.6%");
  EXPECT_EQ(format_percent(0.0), "0.0%");
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"a", "bbb"});
  t.add_row({"xx", "y"});
  t.add_row({"1", "22222"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("a   bbb"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, CsvQuotesSpecialCells) {
  Table t({"name", "value"});
  t.add_row({"with,comma", "with\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"with,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, FixedFormatsPrecision) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(PhaseTimer, AccumulatesAndTotals) {
  PhaseTimer t;
  t.add("search", 1.5);
  t.add("search", 0.5);
  t.add("output", 3.0);
  EXPECT_DOUBLE_EQ(t.get("search"), 2.0);
  EXPECT_DOUBLE_EQ(t.get("output"), 3.0);
  EXPECT_DOUBLE_EQ(t.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(t.total(), 5.0);
}

TEST(PhaseTimer, IgnoresNonPositiveDurations) {
  PhaseTimer t;
  t.add("x", -1.0);
  t.add("x", 0.0);
  EXPECT_DOUBLE_EQ(t.get("x"), 0.0);
}

TEST(PhaseTimer, ClearResets) {
  PhaseTimer t;
  t.add("x", 1.0);
  t.clear();
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
}

// ---------- fork-join pool --------------------------------------------------

/// Runs parallel_for(n) and returns how often each index ran.
std::vector<int> run_counts(std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  std::vector<int> out;
  for (const auto& h : hits) out.push_back(h.load());
  return out;
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 2u, 7u, 1000u})
    EXPECT_EQ(run_counts(n), std::vector<int>(n, 1)) << "n = " << n;
}

TEST(ParallelFor, RethrowsFirstErrorOnlyAfterEveryIndexFinished) {
  const std::size_t n = 32;
  std::atomic<std::size_t> finished{0};
  try {
    parallel_for(n, [&](std::size_t i) {
      if (i == 0) throw RuntimeError("index 0 failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      finished.fetch_add(1);
    });
    FAIL() << "expected the body's exception";
  } catch (const RuntimeError& e) {
    EXPECT_EQ(finished.load(), n - 1);
    EXPECT_EQ(std::string(e.what()), "index 0 failed");
  }
}

TEST(ParallelFor, ConcurrentCallersEachRunTheirOwnIndices) {
  std::vector<std::vector<int>> counts(3);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < counts.size(); ++c)
    callers.emplace_back([&counts, c] { counts[c] = run_counts(500); });
  for (std::thread& t : callers) t.join();
  for (const auto& one : counts) EXPECT_EQ(one, std::vector<int>(500, 1));
}

TEST(ParallelFor, NestedCallRunsInline) {
  std::vector<std::atomic<int>> hits(8 * 8);
  std::atomic<int> moved{0};
  parallel_for(8, [&](std::size_t i) {
    const std::thread::id outer = std::this_thread::get_id();
    parallel_for(8, [&](std::size_t j) {
      if (std::this_thread::get_id() != outer) moved.fetch_add(1);
      hits[i * 8 + j].fetch_add(1);
    });
  });
  EXPECT_EQ(moved.load(), 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace pioblast::util
