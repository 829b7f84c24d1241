// Unit tests for util: RNG determinism, tables, unit formatting, phase
// accounting, the contract-check macros, the value reader, and the
// fork-join pool.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/error.h"
#include "util/fork_join.h"
#include "util/parse.h"
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

// ---------- the value reader (util/parse.h) ---------------------------------

/// T's lowest and highest values as text, then one past each.
template <class T>
std::array<std::string_view, 4> extremes() {
  if constexpr (std::is_same_v<T, std::int8_t>)
    return {"-128", "127", "-129", "128"};
  else if constexpr (std::is_same_v<T, std::int16_t>)
    return {"-32768", "32767", "-32769", "32768"};
  else if constexpr (std::is_same_v<T, std::int32_t>)
    return {"-2147483648", "2147483647", "-2147483649", "2147483648"};
  else if constexpr (std::is_same_v<T, std::int64_t>)
    return {"-9223372036854775808", "9223372036854775807",
            "-9223372036854775809", "9223372036854775808"};
  else if constexpr (std::is_same_v<T, std::uint8_t>)
    return {"0", "255", "-1", "256"};
  else if constexpr (std::is_same_v<T, std::uint16_t>)
    return {"0", "65535", "-1", "65536"};
  else if constexpr (std::is_same_v<T, std::uint32_t>)
    return {"0", "4294967295", "-1", "4294967296"};
  else if constexpr (std::is_same_v<T, std::uint64_t>)
    return {"0", "18446744073709551615", "-1", "18446744073709551616"};
  else
    return {"-1.7976931348623157e308", "1.7976931348623157e308", "-1e309",
            "1e309"};
}

template <class T>
class ReadNumber : public ::testing::Test {};
using NumberTypes =
    ::testing::Types<std::int8_t, std::int16_t, std::int32_t, std::int64_t,
                     std::uint8_t, std::uint16_t, std::uint32_t, std::uint64_t,
                     double>;
TYPED_TEST_SUITE(ReadNumber, NumberTypes);

TYPED_TEST(ReadNumber, ReadsTheExtremesThatFit) {
  using T = TypeParam;
  const auto text = extremes<T>();
  EXPECT_EQ(read_number<T>(text[0]), std::numeric_limits<T>::lowest());
  EXPECT_EQ(read_number<T>(text[1]), std::numeric_limits<T>::max());
  EXPECT_EQ(read_number<T>("0"), T{0});
  EXPECT_EQ(read_number<T>("42"), T{42});
}

TYPED_TEST(ReadNumber, RejectsOnePastEachExtreme) {
  using T = TypeParam;
  const auto text = extremes<T>();
  EXPECT_THROW(read_number<T>(text[2]), RuntimeError) << text[2];
  EXPECT_THROW(read_number<T>(text[3]), RuntimeError) << text[3];
}

// Whole text only: no spaces, no '+', no trailing characters, no hex, and
// nothing non-finite.
TYPED_TEST(ReadNumber, RejectsTextThatIsNotOneNumber) {
  for (const char* text :
       {"", " 1", "1 ", "+1", "1x", "0x10", "1e400", "nan", "inf", "-",
        "--1", "1,2"})
    EXPECT_THROW(read_number<TypeParam>(text), RuntimeError) << text;
}

TYPED_TEST(ReadNumber, SignFollowsTheType) {
  using T = TypeParam;
  if constexpr (std::is_unsigned_v<T>) {
    EXPECT_THROW(read_number<T>("-1"), RuntimeError);
    EXPECT_THROW(read_number<T>("-0"), RuntimeError);
  } else {
    EXPECT_EQ(read_number<T>("-1"), T{-1});
  }
}

TYPED_TEST(ReadNumber, BoundsAreInclusive) {
  using T = TypeParam;
  EXPECT_EQ(read_number<T>("3", T{3}, T{5}), T{3});
  EXPECT_EQ(read_number<T>("5", T{3}, T{5}), T{5});
  EXPECT_THROW(read_number<T>("2", T{3}, T{5}), RuntimeError);
  EXPECT_THROW(read_number<T>("6", T{3}, T{5}), RuntimeError);
}

TEST(ReadNumber, ErrorStatesTheRangeAndTheText) {
  const auto message = [](const auto& read) {
    try {
      read();
    } catch (const RuntimeError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([] { read_number<std::uint8_t>("0", 1); }),
            "expects an integer in [1, 255], got '0'");
  EXPECT_EQ(message([] { read_number<int>(" 7"); }),
            "expects an integer in [-2147483648, 2147483647], got ' 7'");
  EXPECT_EQ(message([] { read_number<double>("nan"); }),
            "expects a finite number, got 'nan'");
  EXPECT_EQ(message([] { read_number<double>("1.5", 0.0, 1.0); }),
            "expects a number in [0, 1], got '1.5'");
  EXPECT_DOUBLE_EQ(read_number<double>("2.5e-3"), 0.0025);
}

TEST(ReadChoice, ReturnsTheIndexOfTheWord) {
  EXPECT_EQ(read_choice("auto", {"auto", "enable", "disable"}), 0u);
  EXPECT_EQ(read_choice("disable", {"auto", "enable", "disable"}), 2u);
}

TEST(ReadChoice, RejectsAnyOtherTextListingTheWords) {
  for (const char* text : {"", "Auto", "auto ", " auto", "enabled", "on"}) {
    try {
      read_choice(text, {"auto", "enable", "disable"});
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const RuntimeError& e) {
      EXPECT_EQ(std::string(e.what()),
                "expects auto | enable | disable, got '" + std::string(text) +
                    "'");
    }
  }
}

// on and off are the one boolean vocabulary.
TEST(ReadSwitch, OnAndOffOnly) {
  EXPECT_TRUE(read_switch("on"));
  EXPECT_FALSE(read_switch("off"));
  for (const char* text : {"", "true", "false", "1", "0", "yes", "ON"})
    EXPECT_THROW(read_switch(text), RuntimeError) << text;
}

TEST(ReadList, SplitsAtTheSeparator) {
  using Items = std::vector<std::string_view>;
  EXPECT_EQ(read_list(""), Items{});
  EXPECT_EQ(read_list("a"), Items{"a"});
  EXPECT_EQ(read_list("a,bc, d"), (Items{"a", "bc", " d"}));
  EXPECT_EQ(read_list("a,b;c", ';'), (Items{"a,b", "c"}));
}

TEST(ReadList, RejectsAnEmptyItem) {
  for (const char* text : {",", "a,", ",a", "a,,b"})
    EXPECT_THROW(read_list(text), RuntimeError) << text;
}

struct Pair {
  int n = 7;
  bool on = false;
};

constexpr Key<Pair> kPairKeys[] = {
    {"n", [](Pair& p, std::string_view v) { p.n = read_number<int>(v, 0); }},
    {"on", [](Pair& p, std::string_view v) { p.on = read_switch(v); }},
};

/// The error `read_fields` throws on `text`, or "no error".
std::string fields_error(std::string_view text, bool empty_keeps_default) {
  Pair p;
  try {
    read_fields(text, ',', kPairKeys, p, empty_keeps_default);
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return "no error";
}

TEST(ReadFields, ReadsEachKeyInOrder) {
  Pair p;
  read_fields("n=3,on=on,n=4", ',', kPairKeys, p);
  EXPECT_EQ(p.n, 4);
  EXPECT_TRUE(p.on);
  Pair q;
  read_fields("", ',', kPairKeys, q);
  EXPECT_EQ(q.n, 7);
}

TEST(ReadFields, ErrorsNameTheKey) {
  EXPECT_EQ(fields_error("n=-1", false),
            "n: expects an integer in [0, 2147483647], got '-1'");
  EXPECT_EQ(fields_error("on=yes", false), "on: expects off | on, got 'yes'");
  EXPECT_EQ(fields_error("m=1", false), "key: expects n | on, got 'm'");
  EXPECT_EQ(fields_error(" n=1", false), "key: expects n | on, got ' n'");
  EXPECT_EQ(fields_error("n", false), "expected key=value, got 'n'");
  EXPECT_EQ(fields_error("n=1,,on=on", false), "empty item in 'n=1,,on=on'");
}

TEST(ReadFields, EmptyValueKeepsTheDefaultOnlyWhenAsked) {
  EXPECT_EQ(fields_error("n=", false),
            "n: expects an integer in [0, 2147483647], got ''");
  EXPECT_EQ(fields_error("n=,on=", true), "no error");
  Pair p;
  read_fields("n=,on=on", ',', kPairKeys, p, /*empty_keeps_default=*/true);
  EXPECT_EQ(p.n, 7);
  EXPECT_TRUE(p.on);
}

TEST(Named, EachLayerPutsItsNameInFront) {
  try {
    named("--fault", [] {
      return named("rank", [] { return read_number<int>("x"); });
    });
    FAIL() << "expected an error";
  } catch (const RuntimeError& e) {
    EXPECT_EQ(std::string(e.what()),
              "--fault: rank: expects an integer in [-2147483648, "
              "2147483647], got 'x'");
  }
  EXPECT_EQ(named("--procs", [] { return read_number<int>("4"); }), 4);
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
