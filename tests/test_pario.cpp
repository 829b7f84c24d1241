// Tests for the parallel I/O layer: virtual file system semantics, timed
// individual I/O, file views, and the two-phase collective read/write —
// including property-style sweeps over rank counts, aggregator counts, and
// exchange-buffer sizes — plus the pario v2 pieces: hint parsing, domain
// splitting, request merging, and data-sieving list reads.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "mpisim/runtime.h"
#include "pario/collective.h"
#include "pario/env.h"
#include "pario/file.h"
#include "pario/vfs.h"
#include "util/error.h"
#include "util/rng.h"

namespace pioblast::pario {
namespace {

sim::ClusterConfig altix() { return sim::ClusterConfig::ornl_altix(); }

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// ---------- VirtualFS -----------------------------------------------------

TEST(Vfs, CreateWriteReadRoundTrip) {
  VirtualFS fs;
  const auto data = pattern(1000, 1);
  fs.write_all("a/b.txt", data);
  EXPECT_TRUE(fs.exists("a/b.txt"));
  EXPECT_EQ(fs.size("a/b.txt"), 1000u);
  EXPECT_EQ(fs.read_all("a/b.txt"), data);
}

TEST(Vfs, PwriteExtendsWithZeroFill) {
  VirtualFS fs;
  const std::vector<std::uint8_t> chunk{9, 9, 9};
  fs.pwrite("f", 5, chunk);
  EXPECT_EQ(fs.size("f"), 8u);
  const auto all = fs.read_all("f");
  EXPECT_EQ(all[0], 0);
  EXPECT_EQ(all[4], 0);
  EXPECT_EQ(all[5], 9);
}

TEST(Vfs, PreadRange) {
  VirtualFS fs;
  fs.write_all("f", pattern(100, 2));
  const auto all = fs.read_all("f");
  const auto mid = fs.pread("f", 10, 20);
  EXPECT_TRUE(std::equal(mid.begin(), mid.end(), all.begin() + 10));
}

TEST(Vfs, PreadPastEofThrows) {
  VirtualFS fs;
  fs.write_all("f", pattern(10, 3));
  EXPECT_THROW(fs.pread("f", 5, 10), util::ContractViolation);
}

TEST(Vfs, PreadUptoShortReadAtEof) {
  VirtualFS fs;
  const auto data = pattern(10, 3);
  fs.write_all("f", data);
  const auto tail = fs.pread_upto("f", 6, 100);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), data.begin() + 6));
  EXPECT_TRUE(fs.pread_upto("f", 10, 5).empty());
  EXPECT_TRUE(fs.pread_upto("f", 42, 5).empty());
  // Fully in-range requests behave exactly like pread.
  EXPECT_EQ(fs.pread_upto("f", 2, 5), fs.pread("f", 2, 5));
}

TEST(Vfs, MissingFileThrows) {
  VirtualFS fs;
  EXPECT_THROW(fs.size("nope"), util::ContractViolation);
  EXPECT_THROW(fs.read_all("nope"), util::ContractViolation);
}

TEST(Vfs, RemoveAndCreateTruncate) {
  VirtualFS fs;
  fs.write_all("f", pattern(10, 4));
  fs.remove("f");
  EXPECT_FALSE(fs.exists("f"));
  fs.write_all("g", pattern(10, 5));
  fs.create("g");
  EXPECT_EQ(fs.size("g"), 0u);
}

TEST(Vfs, ListAndTotalBytes) {
  VirtualFS fs;
  fs.write_all("b", pattern(10, 6));
  fs.write_all("a", pattern(5, 7));
  EXPECT_EQ(fs.list(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(fs.total_bytes(), 15u);
}

// ---------- ClusterStorage -------------------------------------------------

TEST(ClusterStorage, AltixFallsBackToSharedScratch) {
  ClusterStorage storage(altix(), 4);
  EXPECT_FALSE(storage.has_local_disks());
  EXPECT_EQ(&storage.local_for(2), &storage.shared());
}

TEST(ClusterStorage, BladeHasPrivateDisks) {
  ClusterStorage storage(sim::ClusterConfig::ncsu_blade(), 4);
  EXPECT_TRUE(storage.has_local_disks());
  EXPECT_NE(&storage.local_for(1), &storage.shared());
  EXPECT_NE(&storage.local_for(1), &storage.local_for(2));
  // Files on one node's disk are invisible to another's.
  storage.local_for(1).write_all("x", pattern(4, 8));
  EXPECT_FALSE(storage.local_for(2).exists("x"));
}

// ---------- timed individual I/O -------------------------------------------

TEST(TimedIo, ChargesClockAndMovesBytes) {
  VirtualFS fs(sim::StorageModel::xfs_parallel());
  const auto data = pattern(1 << 20, 9);
  fs.write_all("f", data);
  const auto report = mpisim::run(1, altix(), [&](mpisim::Process& p) {
    const auto read = timed_read_all(p, fs, "f", 1);
    EXPECT_EQ(read, data);
    EXPECT_GT(p.now(), 0.0);
  });
  EXPECT_GT(report.makespan(), 0.0);
}

TEST(TimedIo, CopyBetweenFileSystems) {
  VirtualFS src(sim::StorageModel::xfs_parallel());
  VirtualFS dst(sim::StorageModel::local_disk());
  const auto data = pattern(4096, 10);
  src.write_all("f", data);
  mpisim::run(1, altix(), [&](mpisim::Process& p) {
    timed_copy(p, src, "f", dst, "g", 1);
  });
  EXPECT_EQ(dst.read_all("g"), data);
}

// ---------- FileView --------------------------------------------------------

TEST(FileView, ExtentSumsRegions) {
  FileView v({{0, 10}, {20, 5}});
  EXPECT_EQ(v.extent(), 15u);
}

TEST(FileView, RejectsOverlapsAndDisorder) {
  EXPECT_THROW(FileView({{10, 10}, {5, 2}}), util::ContractViolation);
  EXPECT_THROW(FileView({{0, 10}, {5, 10}}), util::ContractViolation);
}

TEST(FileView, AppendEnforcesOrder) {
  FileView v;
  v.append({0, 10});
  v.append({10, 1});  // adjacent is legal
  EXPECT_THROW(v.append({5, 1}), util::ContractViolation);
}

// ---------- collective write -------------------------------------------------

/// Interleaved regions across ranks: rank r owns blocks r, r+P, r+2P, ...
/// of a file of `blocks` fixed-size blocks — the access pattern of
/// pioBLAST's alignment output.
void run_interleaved_collective_write(int nprocs, int blocks, int block_size,
                                      int aggregators,
                                      std::uint64_t buffer_size = 256 * 1024) {
  VirtualFS fs(sim::StorageModel::xfs_parallel());
  const auto expect =
      pattern(static_cast<std::size_t>(blocks) * block_size, 77);
  const auto report = mpisim::run(nprocs, altix(), [&](mpisim::Process& p) {
    FileView view;
    std::vector<std::uint8_t> mine;
    for (int b = p.rank(); b < blocks; b += p.size()) {
      const std::uint64_t off = static_cast<std::uint64_t>(b) * block_size;
      view.append({off, static_cast<std::uint64_t>(block_size)});
      mine.insert(mine.end(), expect.begin() + off,
                  expect.begin() + off + block_size);
    }
    CollectiveConfig cfg;
    cfg.aggregators = aggregators;
    cfg.buffer_size = buffer_size;
    collective_write(p, fs, "out", view, mine, cfg);
  });
  EXPECT_EQ(fs.read_all("out"), expect);
  EXPECT_GT(report.makespan(), 0.0);
}

struct CollectiveCase {
  int nprocs;
  int blocks;
  int block_size;
  int aggregators;
  std::uint64_t buffer_size = 256 * 1024;
};

class CollectiveWriteSweep : public ::testing::TestWithParam<CollectiveCase> {};

TEST_P(CollectiveWriteSweep, ReassemblesInterleavedRegions) {
  const auto c = GetParam();
  run_interleaved_collective_write(c.nprocs, c.blocks, c.block_size,
                                   c.aggregators, c.buffer_size);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CollectiveWriteSweep,
    ::testing::Values(CollectiveCase{2, 8, 100, 1}, CollectiveCase{3, 10, 64, 2},
                      CollectiveCase{4, 16, 256, 4}, CollectiveCase{5, 7, 33, 3},
                      CollectiveCase{8, 64, 128, 4}, CollectiveCase{8, 64, 128, 8},
                      CollectiveCase{6, 5, 1, 4}, CollectiveCase{9, 100, 17, 2}));

// Small cb_buffer_size values force the two-phase exchange into many
// rounds (including buffer sizes that do not divide the domain span, and
// buffer_size=1 — one round per byte of the widest domain). 0 is the
// unbounded single-round legacy shape; a buffer near 2^64 is one round
// too, and must not wrap the round count to 0.
constexpr std::uint64_t kHugeBuffer = std::numeric_limits<std::uint64_t>::max();

INSTANTIATE_TEST_SUITE_P(
    BufferRounds, CollectiveWriteSweep,
    ::testing::Values(CollectiveCase{4, 16, 256, 4, 1},
                      CollectiveCase{4, 16, 256, 4, 100},
                      CollectiveCase{4, 16, 256, 2, 300},
                      CollectiveCase{3, 10, 64, 2, 7},
                      CollectiveCase{8, 64, 128, 4, 1024},
                      CollectiveCase{5, 7, 33, 3, 0},
                      CollectiveCase{9, 100, 17, 2, 64},
                      CollectiveCase{4, 16, 256, 4, kHugeBuffer}));

TEST(CollectiveWrite, EmptyViewsEverywhereIsANoOp) {
  VirtualFS fs(sim::StorageModel::xfs_parallel());
  mpisim::run(3, altix(), [&](mpisim::Process& p) {
    collective_write(p, fs, "out", FileView{}, {}, {});
  });
  // The file may or may not exist, but it must hold no data.
  if (fs.exists("out")) {
    EXPECT_EQ(fs.size("out"), 0u);
  }
}

TEST(CollectiveWrite, SingleRankHoldsAllData) {
  VirtualFS fs(sim::StorageModel::xfs_parallel());
  const auto data = pattern(1000, 12);
  mpisim::run(4, altix(), [&](mpisim::Process& p) {
    if (p.rank() == 2) {
      collective_write(p, fs, "out", FileView({{0, 1000}}), data, {});
    } else {
      collective_write(p, fs, "out", FileView{}, {}, {});
    }
  });
  EXPECT_EQ(fs.read_all("out"), data);
}

TEST(CollectiveWrite, MismatchedBufferThrows) {
  VirtualFS fs;
  EXPECT_THROW(
      mpisim::run(2, altix(),
                  [&](mpisim::Process& p) {
                    collective_write(p, fs, "out", FileView({{0, 10}}),
                                     std::vector<std::uint8_t>(5), {});
                  }),
      util::ContractViolation);
}

TEST(CollectiveWrite, WritesAtLargeOffsets) {
  VirtualFS fs(sim::StorageModel::xfs_parallel());
  const std::uint64_t base = 1ull << 22;
  const auto data = pattern(100, 13);
  mpisim::run(2, altix(), [&](mpisim::Process& p) {
    if (p.rank() == 0) {
      collective_write(p, fs, "out", FileView({{base, 100}}), data, {});
    } else {
      collective_write(p, fs, "out", FileView{}, {}, {});
    }
  });
  EXPECT_EQ(fs.size("out"), base + 100);
  EXPECT_EQ(fs.pread("out", base, 100), data);
}

// ---------- collective read ---------------------------------------------------

class CollectiveReadSweep : public ::testing::TestWithParam<CollectiveCase> {};

TEST_P(CollectiveReadSweep, EachRankReadsItsInterleavedBlocks) {
  const auto c = GetParam();
  VirtualFS fs(sim::StorageModel::xfs_parallel());
  const auto file =
      pattern(static_cast<std::size_t>(c.blocks) * c.block_size, 99);
  fs.write_all("db", file);
  mpisim::run(c.nprocs, altix(), [&](mpisim::Process& p) {
    FileView view;
    std::vector<std::uint8_t> expect;
    for (int b = p.rank(); b < c.blocks; b += p.size()) {
      const std::uint64_t off = static_cast<std::uint64_t>(b) * c.block_size;
      view.append({off, static_cast<std::uint64_t>(c.block_size)});
      expect.insert(expect.end(), file.begin() + off,
                    file.begin() + off + c.block_size);
    }
    CollectiveConfig cfg;
    cfg.aggregators = c.aggregators;
    cfg.buffer_size = c.buffer_size;
    const auto got = collective_read(p, fs, "db", view, cfg);
    EXPECT_EQ(got, expect);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CollectiveReadSweep,
    ::testing::Values(CollectiveCase{2, 8, 100, 1}, CollectiveCase{3, 9, 50, 2},
                      CollectiveCase{4, 32, 64, 4}, CollectiveCase{7, 13, 21, 3},
                      CollectiveCase{8, 40, 512, 8}));

INSTANTIATE_TEST_SUITE_P(
    BufferRounds, CollectiveReadSweep,
    ::testing::Values(CollectiveCase{4, 32, 64, 4, 1},
                      CollectiveCase{4, 32, 64, 4, 100},
                      CollectiveCase{3, 9, 50, 2, 7},
                      CollectiveCase{8, 40, 512, 8, 1000},
                      CollectiveCase{7, 13, 21, 3, 0},
                      CollectiveCase{4, 32, 64, 4, kHugeBuffer}));

TEST(CollectiveRead, ContiguousRangePerRank) {
  // The pioBLAST input pattern: each rank reads one contiguous slice.
  VirtualFS fs(sim::StorageModel::xfs_parallel());
  const auto file = pattern(10000, 21);
  fs.write_all("db", file);
  mpisim::run(5, altix(), [&](mpisim::Process& p) {
    const std::uint64_t chunk = 2000;
    const std::uint64_t off = static_cast<std::uint64_t>(p.rank()) * chunk;
    const auto got = collective_read(p, fs, "db", FileView({{off, chunk}}), {});
    EXPECT_TRUE(std::equal(got.begin(), got.end(), file.begin() + off));
  });
}

// ---------- domain split + effective aggregators (v2 regressions) ------------

TEST(DomainSplit, SpreadsRemainderAcrossLeadingDomains) {
  // Non-power-of-two span: 101 bytes over 4 domains -> 26,25,25,25, never
  // a division-rounded runt last domain.
  const auto b = domain_split(0, 101, 4);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 101u);
  std::vector<std::uint64_t> widths;
  for (std::size_t d = 0; d + 1 < b.size(); ++d) widths.push_back(b[d + 1] - b[d]);
  EXPECT_EQ(widths, (std::vector<std::uint64_t>{26, 25, 25, 25}));
}

TEST(DomainSplit, NonPow2SpansCoverExactlyAndDifferByAtMostOne) {
  for (const std::uint64_t span : {1ull, 7ull, 97ull, 1000ull, 12345ull}) {
    for (const int n : {1, 2, 3, 4, 7, 16}) {
      const std::uint64_t lo = 1000;
      const auto b = domain_split(lo, lo + span, n);
      ASSERT_EQ(b.size(), static_cast<std::size_t>(n) + 1);
      EXPECT_EQ(b.front(), lo);
      EXPECT_EQ(b.back(), lo + span);
      std::uint64_t wmin = ~0ull, wmax = 0;
      for (int d = 0; d < n; ++d) {
        ASSERT_LE(b[static_cast<std::size_t>(d)],
                  b[static_cast<std::size_t>(d) + 1]);
        const std::uint64_t w = b[static_cast<std::size_t>(d) + 1] -
                                b[static_cast<std::size_t>(d)];
        wmin = std::min(wmin, w);
        wmax = std::max(wmax, w);
      }
      EXPECT_LE(wmax - wmin, 1u) << "span=" << span << " n=" << n;
    }
  }
}

TEST(DomainSplit, SpanSmallerThanDomainCountLeavesTrailingDomainsEmpty) {
  // The old division-based split degenerated here; now the first `span`
  // domains get one byte each and the rest are zero-width.
  const auto b = domain_split(10, 13, 8);
  ASSERT_EQ(b.size(), 9u);
  EXPECT_EQ(b, (std::vector<std::uint64_t>{10, 11, 12, 13, 13, 13, 13, 13, 13}));
}

TEST(DomainSplit, RejectsBadArguments) {
  EXPECT_THROW(domain_split(0, 10, 0), util::ContractViolation);
  EXPECT_THROW(domain_split(10, 5, 2), util::ContractViolation);
}

TEST(EffectiveAggregators, ClampsToWorldSizeAndRejectsNonPositive) {
  CollectiveConfig cfg;
  cfg.aggregators = 8;
  EXPECT_EQ(effective_aggregators(cfg, 4), 4);
  EXPECT_EQ(effective_aggregators(cfg, 16), 8);
  cfg.aggregators = 0;
  EXPECT_THROW(effective_aggregators(cfg, 4), util::ContractViolation);
  cfg.aggregators = -3;
  EXPECT_THROW(effective_aggregators(cfg, 4), util::ContractViolation);
}

// A collective whose byte span is smaller than the aggregator count used
// to produce degenerate domains; it must still round-trip.
TEST(CollectiveWrite, SpanSmallerThanAggregatorCount) {
  run_interleaved_collective_write(/*nprocs=*/6, /*blocks=*/3, /*block_size=*/1,
                                   /*aggregators=*/5);
}

// ---------- Hints parsing ----------------------------------------------------

TEST(Hints, ParsesFullSpecWithSizeSuffixes) {
  const auto h = Hints::parse(
      "cb_nodes=8,cb_buffer_size=1m,ds_read=enable,ds_buffer_size=4k,"
      "ds_density=0.5,list=off");
  EXPECT_EQ(h.cb_nodes, 8);
  EXPECT_EQ(h.cb_buffer_size, 1u << 20);
  EXPECT_EQ(h.ds_read, SieveMode::kEnable);
  EXPECT_EQ(h.ds_buffer_size, 4u << 10);
  EXPECT_DOUBLE_EQ(h.ds_density, 0.5);
  EXPECT_FALSE(h.list_io);
  // The largest sizes that fit in 64 bits, with and without a suffix.
  EXPECT_EQ(Hints::parse("cb_buffer_size=17179869183g").cb_buffer_size,
            17179869183ull << 30);
  EXPECT_EQ(Hints::parse("cb_buffer_size=18446744073709551615").cb_buffer_size,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Hints, EmptySpecKeepsDefaults) {
  const auto h = Hints::parse("");
  EXPECT_EQ(h.cb_nodes, 4);
  EXPECT_EQ(h.cb_buffer_size, 256u << 10);
  EXPECT_EQ(h.ds_read, SieveMode::kAuto);
  EXPECT_TRUE(h.list_io);
}

TEST(Hints, DescribeRoundTrips) {
  Hints h;
  h.cb_nodes = 3;
  h.cb_buffer_size = 123;  // no exact suffix
  h.ds_read = SieveMode::kDisable;
  h.ds_buffer_size = 2u << 30;
  h.ds_density = 0.25;
  const auto back = Hints::parse(h.describe());
  EXPECT_EQ(back.cb_nodes, h.cb_nodes);
  EXPECT_EQ(back.cb_buffer_size, h.cb_buffer_size);
  EXPECT_EQ(back.ds_read, h.ds_read);
  EXPECT_EQ(back.ds_buffer_size, h.ds_buffer_size);
  EXPECT_DOUBLE_EQ(back.ds_density, h.ds_density);
  EXPECT_EQ(back.list_io, h.list_io);
}

TEST(Hints, RejectsMalformedSpecs) {
  EXPECT_THROW(Hints::parse("wat=1"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("cb_nodes"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("cb_nodes=zero"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("cb_nodes=0"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("cb_buffer_size=1q"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("cb_buffer_size=-1"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("ds_buffer_size=-1"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("cb_buffer_size=+1"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("cb_buffer_size= 1"), util::RuntimeError);
  // 2^34 GiB is 2^64 bytes.
  EXPECT_THROW(Hints::parse("cb_buffer_size=17179869184g"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("cb_buffer_size=18446744073709551616"),
               util::RuntimeError);
  EXPECT_THROW(Hints::parse("ds_density=1.5"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("ds_density=nan"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("ds_read=sometimes"), util::RuntimeError);
  EXPECT_THROW(Hints::parse("list=maybe"), util::RuntimeError);
}

// Every value is read whole by the shared reader, and each error names its
// key; on|off is the one boolean vocabulary.
TEST(Hints, ReadsEachValueWholeAndNamesTheKey) {
  for (const char* spec :
       {"cb_nodes= +8", "cb_nodes=+8", "cb_nodes=8 ", "cb_nodes=4294967297",
        "list=true", "list=1", "list_io=off", "ds_read=on", "ds_read=off",
        "ds_density=inf", "ds_buffer_size=0", "cb_nodes=8,", ",cb_nodes=8",
        "cb_nodes=8,,list=on", "cb_buffer_size=k", "cb_buffer_size=1kk"})
    EXPECT_THROW(Hints::parse(spec), util::RuntimeError) << spec;
  try {
    Hints::parse("list=on,cb_nodes= +8");
    FAIL() << "expected an error";
  } catch (const util::RuntimeError& e) {
    EXPECT_EQ(std::string(e.what()),
              "cb_nodes: expects an integer in [1, 2147483647], got ' +8'");
  }
  EXPECT_EQ(Hints::parse("cb_buffer_size=2K").cb_buffer_size, 2048u);
  EXPECT_EQ(Hints::parse("cb_buffer_size=0").cb_buffer_size, 0u);
}

// ---------- merge_regions ----------------------------------------------------

TEST(MergeRegions, CoalescesAdjacentAndOverlappingUnsortedInput) {
  const std::vector<Region> in{{30, 10}, {0, 10}, {10, 5}, {35, 10}, {100, 1}};
  const auto runs = merge_regions(in);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[0].length, 15u);  // {0,10} + adjacent {10,5}
  EXPECT_EQ(runs[1].offset, 30u);
  EXPECT_EQ(runs[1].length, 15u);  // {30,10} + overlapping {35,10}
  EXPECT_EQ(runs[2].offset, 100u);
}

TEST(MergeRegions, DropsZeroLengthAndHandlesContainment) {
  const std::vector<Region> in{{10, 100}, {20, 5}, {50, 0}};
  const auto runs = merge_regions(in);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 10u);
  EXPECT_EQ(runs[0].length, 100u);
  EXPECT_TRUE(merge_regions(std::vector<Region>{}).empty());
}

// ---------- list_read --------------------------------------------------------

/// Runs list_read single-rank against `file` staged on an NFS-model FS and
/// returns (buffers, stats, virtual seconds).
struct ListReadRun {
  std::vector<std::vector<std::uint8_t>> bufs;
  ListIoStats stats;
  double seconds = 0;
};

ListReadRun run_list_read(const std::vector<std::uint8_t>& file,
                          const std::vector<Region>& regions,
                          const Hints& hints) {
  VirtualFS fs(sim::StorageModel::nfs_server());
  fs.write_all("f", file);
  ListReadRun out;
  const auto report =
      mpisim::run(1, sim::ClusterConfig::ncsu_blade(), [&](mpisim::Process& p) {
        out.bufs = list_read(p, fs, "f", regions, hints, 1, &out.stats);
      });
  out.seconds = report.makespan();
  return out;
}

std::vector<std::uint8_t> slice(const std::vector<std::uint8_t>& file,
                                const Region& r) {
  return {file.begin() + static_cast<std::ptrdiff_t>(r.offset),
          file.begin() + static_cast<std::ptrdiff_t>(r.offset + r.length)};
}

TEST(ListRead, NaiveAndV2ReturnIdenticalBytes) {
  const auto file = pattern(4096, 51);
  // Unsorted, overlapping, hole-y request list.
  const std::vector<Region> regions{{512, 64}, {0, 128}, {600, 64},
                                    {540, 80}, {3000, 100}, {128, 64}};
  Hints naive;
  naive.list_io = false;
  Hints v2;
  v2.ds_read = SieveMode::kEnable;
  const auto a = run_list_read(file, regions, naive);
  const auto b = run_list_read(file, regions, v2);
  ASSERT_EQ(a.bufs.size(), regions.size());
  EXPECT_EQ(a.bufs, b.bufs);
  for (std::size_t i = 0; i < regions.size(); ++i)
    EXPECT_EQ(a.bufs[i], slice(file, regions[i])) << "region " << i;
  EXPECT_EQ(a.stats.reads_issued, regions.size());
  EXPECT_LT(b.stats.reads_issued, a.stats.reads_issued);
  // Fewer NFS round trips must show up as less virtual I/O time.
  EXPECT_LT(b.seconds, a.seconds);
}

TEST(ListRead, MergesAdjacentRequestsWithoutSieving) {
  const auto file = pattern(1024, 52);
  const std::vector<Region> regions{{0, 100}, {100, 100}, {200, 56}};
  Hints h;
  h.ds_read = SieveMode::kDisable;
  const auto r = run_list_read(file, regions, h);
  EXPECT_EQ(r.stats.reads_issued, 1u);
  EXPECT_EQ(r.stats.merged_runs, 2u);
  EXPECT_EQ(r.stats.sieved_reads, 0u);
  EXPECT_EQ(r.stats.bytes_read, 256u);
  EXPECT_EQ(r.stats.bytes_wanted, 256u);
}

TEST(ListRead, SievesAcrossSmallHoles) {
  const auto file = pattern(4096, 53);
  // 4 x 256-byte blocks with 256-byte holes: density 0.5 >= default 0.3.
  std::vector<Region> regions;
  for (int b = 0; b < 4; ++b)
    regions.push_back({static_cast<std::uint64_t>(b) * 512, 256});
  Hints h;  // auto sieving
  const auto r = run_list_read(file, regions, h);
  EXPECT_EQ(r.stats.reads_issued, 1u);
  EXPECT_EQ(r.stats.sieved_reads, 1u);
  EXPECT_EQ(r.stats.bytes_wanted, 1024u);
  EXPECT_EQ(r.stats.bytes_read, 1792u);  // covering span bridges 3 holes
  for (std::size_t i = 0; i < regions.size(); ++i)
    EXPECT_EQ(r.bufs[i], slice(file, regions[i]));
}

TEST(ListRead, AutoModeFallsBackOnSparseRequests) {
  const auto file = pattern(1 << 16, 54);
  // 64-byte blocks 4 KiB apart: density ~1.6%, far below ds_density.
  std::vector<Region> regions;
  for (int b = 0; b < 8; ++b)
    regions.push_back({static_cast<std::uint64_t>(b) * 4096, 64});
  Hints h;  // auto
  const auto r = run_list_read(file, regions, h);
  EXPECT_EQ(r.stats.reads_issued, 8u);  // no bridging
  EXPECT_EQ(r.stats.sieved_reads, 0u);
  EXPECT_EQ(r.stats.bytes_read, r.stats.bytes_wanted);
  // Forced sieving bridges anyway (the window still fits the buffer).
  Hints force;
  force.ds_read = SieveMode::kEnable;
  const auto f = run_list_read(file, regions, force);
  EXPECT_EQ(f.stats.reads_issued, 1u);
  EXPECT_EQ(f.bufs, r.bufs);
}

TEST(ListRead, SieveBufferCapSplitsWindows) {
  const auto file = pattern(8192, 55);
  std::vector<Region> regions;
  for (int b = 0; b < 8; ++b)
    regions.push_back({static_cast<std::uint64_t>(b) * 1024, 512});
  Hints h;
  h.ds_read = SieveMode::kEnable;
  h.ds_buffer_size = 2048;  // at most two strided blocks per window
  const auto r = run_list_read(file, regions, h);
  EXPECT_EQ(r.stats.reads_issued, 4u);
  for (std::size_t i = 0; i < regions.size(); ++i)
    EXPECT_EQ(r.bufs[i], slice(file, regions[i]));
}

TEST(ListRead, OverReachingRequestGetsShortBufferAndHonestCharge) {
  const auto file = pattern(1000, 56);
  Hints h;
  const std::vector<Region> over{{900, 500}};
  const auto r = run_list_read(file, over, h);
  ASSERT_EQ(r.bufs.size(), 1u);
  EXPECT_EQ(r.bufs[0], slice(file, {900, 100}));
  EXPECT_EQ(r.stats.bytes_read, 100u);  // billed for transferred bytes only
  // The virtual-clock charge matches a 100-byte read, not a 500-byte one.
  const auto exact = run_list_read(file, {{900, 100}}, h);
  EXPECT_DOUBLE_EQ(r.seconds, exact.seconds);
}

TEST(ListRead, ZeroLengthRegionsYieldEmptyBuffers) {
  const auto file = pattern(100, 57);
  Hints h;
  const auto r = run_list_read(file, {{10, 0}, {20, 10}, {50, 0}}, h);
  ASSERT_EQ(r.bufs.size(), 3u);
  EXPECT_TRUE(r.bufs[0].empty());
  EXPECT_EQ(r.bufs[1], slice(file, {20, 10}));
  EXPECT_TRUE(r.bufs[2].empty());
  EXPECT_EQ(r.stats.requests, 1u);
}

TEST(TimedIo, ReadUptoChargesActualBytes) {
  VirtualFS fs(sim::StorageModel::nfs_server());
  fs.write_all("f", pattern(1000, 58));
  double t_over = 0, t_exact = 0;
  mpisim::run(1, sim::ClusterConfig::ncsu_blade(), [&](mpisim::Process& p) {
    const double t0 = p.now();
    const auto got = timed_read_upto(p, fs, "f", 900, 500, 1);
    EXPECT_EQ(got.size(), 100u);
    t_over = p.now() - t0;
    const double t1 = p.now();
    (void)timed_read_upto(p, fs, "f", 900, 100, 1);
    t_exact = p.now() - t1;
  });
  EXPECT_DOUBLE_EQ(t_over, t_exact);
}

TEST(Collective, WriteThenReadRoundTripsThroughSharedFile) {
  VirtualFS fs(sim::StorageModel::nfs_server());
  const auto data = pattern(3000, 31);
  mpisim::run(3, sim::ClusterConfig::ncsu_blade(), [&](mpisim::Process& p) {
    const std::uint64_t chunk = 1000;
    const std::uint64_t off = static_cast<std::uint64_t>(p.rank()) * chunk;
    std::vector<std::uint8_t> mine(data.begin() + off,
                                   data.begin() + off + chunk);
    collective_write(p, fs, "f", FileView({{off, chunk}}), mine, {});
    const auto back = collective_read(p, fs, "f", FileView({{off, chunk}}), {});
    EXPECT_EQ(back, mine);
  });
  EXPECT_EQ(fs.read_all("f"), data);
}

}  // namespace
}  // namespace pioblast::pario
