// The paper's evaluation from one table of configurations: Tables 1 and 2
// and Figures 1(a), 1(b), 3(a), 3(b) and 4 of Lin et al. (IPDPS'05), the
// formatdb cost of §3.1 and the output write of §3.3, the pioBLAST
// ablations of §5, Figure 3(a) past the paper's 62 processes, and what
// recovering from a lost or slow worker costs both drivers.
//
//   paper [figure...]    figures: fig1a fig1b table1 table2 fig3a fig3b
//                        fig4 ablation scale sec31 sec33 fault
//                        (default: all of them)
//
// Each distinct configuration runs once, on the event backend, so its
// virtual seconds repeat bit-for-bit and one run serves every figure that
// shows it: Table 1's two runs are also Figure 3(a)'s 32-process rows,
// Figure 1(b)'s 31-fragment row and the ablation baseline. Every run
// prints one `ROW {...}` line as it finishes; tools/bench_to_json.py folds
// them into BENCH_paper.json, and its --check fails on any drift from that
// file. After each figure's table, the figure's "Expected shapes" from
// DESIGN.md are checked, one `SHAPE` line each; a failed one makes the
// exit status 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "driver/metrics.h"
#include "driver/tags.h"
#include "mpisim/runtime.h"
#include "mpisim/trace.h"
#include "pario/collective.h"
#include "pario/env.h"
#include "pario/file.h"
#include "util/error.h"
#include "util/parse.h"
#include "util/table.h"
#include "util/units.h"
#include "workloads.h"

using namespace pioblast;

namespace {

/// One run: everything that decides its virtual seconds.
struct Config {
  const char* figures;  ///< space-separated names of the figures showing it
  const char* cluster;  ///< altix | nt-altix | blade
  const char* db;       ///< nr | nt ("" for the pario sweep and the write)
  /// A driver run's query-set sample target (FASTA bytes), the volume of
  /// an output write, or the raw database size formatdb is priced at.
  std::uint64_t bytes;
  int procs;
  /// mpiBLAST's physical fragments; pioBLAST's virtual ones (0 = one per
  /// worker).
  int fragments;
  const char* program;  ///< mpiblast | pioblast | pario | write | formatdb
  /// A driver run's options (pioBLAST's, see pio_options; mpiBLAST has
  /// only "default"), then in the fault figure a space and a fault
  /// condition: armed, crash or straggler. The pario sweep's access mode;
  /// the output write's mode, serial or cb_nodes=N.
  const char* variant;

  bool in(std::string_view figure) const {
    const auto names = util::read_list(figures, ' ');
    return std::find(names.begin(), names.end(), figure) != names.end();
  }
  bool is(std::string_view p) const { return program == p; }

  // The variant's options and its fault condition ("" for a clean run).
  std::string_view options() const {
    const std::string_view v = variant;
    return v.substr(0, v.find(' '));
  }
  std::string_view fault() const {
    const std::string_view v = variant;
    return v.substr(std::min(options().size() + 1, v.size()));
  }
};

constexpr std::uint64_t kS = bench::QuerySizes::kSmall;
constexpr std::uint64_t kM = bench::QuerySizes::kMedium;
constexpr std::uint64_t kD = bench::QuerySizes::kDefault;
constexpr std::uint64_t kL = bench::QuerySizes::kLarge;
constexpr std::uint64_t kMiB = 1ull << 20;
constexpr std::uint64_t kGiB = 1ull << 30;

// Runs go in this order, and each figure prints its rows in this order.
// clang-format off
const Config kConfigs[] = {
  // figures                 cluster     db    bytes procs frags program     variant
  {"fig1a",                  "nt-altix", "nt", kL,   16,   15,   "mpiblast", "default"},
  {"fig1a",                  "nt-altix", "nt", kL,   32,   31,   "mpiblast", "default"},
  {"fig1a",                  "nt-altix", "nt", kL,   64,   63,   "mpiblast", "default"},
  {"table2",                 "altix",    "nr", kS,   16,    0,   "pioblast", "default"},
  {"table2",                 "altix",    "nr", kM,   16,    0,   "pioblast", "default"},
  {"fig3a",                  "altix",    "nr", kD,    4,    3,   "mpiblast", "default"},
  {"fig3a",                  "altix",    "nr", kD,    4,    0,   "pioblast", "default"},
  {"fig3a",                  "altix",    "nr", kD,    8,    7,   "mpiblast", "default"},
  {"fig3a",                  "altix",    "nr", kD,    8,    0,   "pioblast", "default"},
  {"fig3a",                  "altix",    "nr", kD,   16,   15,   "mpiblast", "default"},
  {"fig3a table2",           "altix",    "nr", kD,   16,    0,   "pioblast", "default"},
  {"table2",                 "altix",    "nr", kL,   16,    0,   "pioblast", "default"},
  {"fig1b table1 fig3a",     "altix",    "nr", kD,   32,   31,   "mpiblast", "default"},
  {"table1 fig3a ablation",  "altix",    "nr", kD,   32,    0,   "pioblast", "default"},
  {"fig1b",                  "altix",    "nr", kD,   32,   61,   "mpiblast", "default"},
  {"fig1b",                  "altix",    "nr", kD,   32,   96,   "mpiblast", "default"},
  {"fig1b",                  "altix",    "nr", kD,   32,  167,   "mpiblast", "default"},
  {"fig3b",                  "altix",    "nr", kS,   62,   61,   "mpiblast", "default"},
  {"fig3b",                  "altix",    "nr", kS,   62,    0,   "pioblast", "default"},
  {"fig3b",                  "altix",    "nr", kM,   62,   61,   "mpiblast", "default"},
  {"fig3b",                  "altix",    "nr", kM,   62,    0,   "pioblast", "default"},
  {"fig3a fig3b",            "altix",    "nr", kD,   62,   61,   "mpiblast", "default"},
  {"fig3a fig3b",            "altix",    "nr", kD,   62,    0,   "pioblast", "default"},
  {"fig3b",                  "altix",    "nr", kL,   62,   61,   "mpiblast", "default"},
  {"fig3b",                  "altix",    "nr", kL,   62,    0,   "pioblast", "default"},
  {"ablation",               "altix",    "nr", kD,   32,    0,   "pioblast", "early-score-broadcast"},
  {"ablation",               "altix",    "nr", kD,   32,    0,   "pioblast", "collective-input"},
  {"ablation",               "altix",    "nr", kD,   32,   62,   "pioblast", "default"},
  {"ablation",               "altix",    "nr", kD,   32,  124,   "pioblast", "default"},
  {"ablation",               "altix",    "nr", kD,   32,    0,   "pioblast", "cb_nodes=1"},
  {"ablation",               "altix",    "nr", kD,   32,    0,   "pioblast", "cb_nodes=2"},
  {"ablation",               "altix",    "nr", kD,   32,    0,   "pioblast", "cb_nodes=8"},
  {"ablation",               "altix",    "nr", kD,   32,    0,   "pioblast", "cb_nodes=16"},
  {"ablation",               "altix",    "nr", kD,   32,   93,   "pioblast", "dynamic"},
  {"ablation",               "altix",    "nr", kD,   32,    0,   "pioblast", "query_batch=4"},
  {"ablation",               "altix",    "nr", kD,   32,    0,   "pioblast", "query_batch=16"},
  {"fig4",                   "blade",    "nr", kD,    4,    3,   "mpiblast", "default"},
  {"fig4",                   "blade",    "nr", kD,    4,    0,   "pioblast", "default"},
  {"fig4",                   "blade",    "nr", kD,    8,    7,   "mpiblast", "default"},
  {"fig4",                   "blade",    "nr", kD,    8,    0,   "pioblast", "default"},
  {"fig4",                   "blade",    "nr", kD,   16,   15,   "mpiblast", "default"},
  {"fig4",                   "blade",    "nr", kD,   16,    0,   "pioblast", "default"},
  {"fig4",                   "blade",    "nr", kD,   32,   31,   "mpiblast", "default"},
  {"fig4",                   "blade",    "nr", kD,   32,    0,   "pioblast", "default"},
  {"fig4",                   "blade",    "",   0,     4,    0,   "pario",    "naive"},
  {"fig4",                   "blade",    "",   0,     4,    0,   "pario",    "sieve"},
  {"fig4",                   "blade",    "",   0,     4,    0,   "pario",    "cbuf"},
  {"fig4",                   "blade",    "",   0,     8,    0,   "pario",    "naive"},
  {"fig4",                   "blade",    "",   0,     8,    0,   "pario",    "sieve"},
  {"fig4",                   "blade",    "",   0,     8,    0,   "pario",    "cbuf"},
  {"fig4",                   "blade",    "",   0,    16,    0,   "pario",    "naive"},
  {"fig4",                   "blade",    "",   0,    16,    0,   "pario",    "sieve"},
  {"fig4",                   "blade",    "",   0,    16,    0,   "pario",    "cbuf"},
  {"fig4",                   "blade",    "",   0,    32,    0,   "pario",    "naive"},
  {"fig4",                   "blade",    "",   0,    32,    0,   "pario",    "sieve"},
  {"fig4",                   "blade",    "",   0,    32,    0,   "pario",    "cbuf"},
  {"scale",                  "altix",    "nr", kD,   64,   63,   "mpiblast", "default"},
  {"scale",                  "altix",    "nr", kD,   64,    0,   "pioblast", "default"},
  {"scale",                  "altix",    "nr", kD,  128,  127,   "mpiblast", "default"},
  {"scale",                  "altix",    "nr", kD,  128,    0,   "pioblast", "default"},
  {"scale",                  "altix",    "nr", kD,  512,  511,   "mpiblast", "default"},
  {"scale",                  "altix",    "nr", kD,  512,    0,   "pioblast", "default"},
  {"scale",                  "altix",    "nr", kD, 1024, 1023,   "mpiblast", "default"},
  {"scale",                  "altix",    "nr", kD, 1024,    0,   "pioblast", "default"},
  {"scale",                  "altix",    "nr", kD, 4096, 4095,   "mpiblast", "default"},
  {"scale",                  "altix",    "nr", kD, 4096,    0,   "pioblast", "default"},
  // §3.1: formatdb at the paper's database sizes, on the Altix head node
  {"sec31",                  "altix",    "nr", kGiB,      1, 0, "formatdb", "default"},
  {"sec31",                  "altix",    "nt", 11 * kGiB, 1, 0, "formatdb", "default"},
  // §3.3: per storage, ranks and volume, serial then 4-aggregator output;
  // at 32 ranks and 4 MiB on XFS, the other aggregator counts
  {"sec33",                  "altix",    "",   kMiB,      4, 0, "write", "serial"},
  {"sec33",                  "altix",    "",   kMiB,      4, 0, "write", "cb_nodes=4"},
  {"sec33",                  "altix",    "",   4 * kMiB,  4, 0, "write", "serial"},
  {"sec33",                  "altix",    "",   4 * kMiB,  4, 0, "write", "cb_nodes=4"},
  {"sec33",                  "altix",    "",   kMiB,     16, 0, "write", "serial"},
  {"sec33",                  "altix",    "",   kMiB,     16, 0, "write", "cb_nodes=4"},
  {"sec33",                  "altix",    "",   4 * kMiB, 16, 0, "write", "serial"},
  {"sec33",                  "altix",    "",   4 * kMiB, 16, 0, "write", "cb_nodes=4"},
  {"sec33",                  "altix",    "",   kMiB,     32, 0, "write", "serial"},
  {"sec33",                  "altix",    "",   kMiB,     32, 0, "write", "cb_nodes=4"},
  {"sec33",                  "altix",    "",   4 * kMiB, 32, 0, "write", "serial"},
  {"sec33",                  "altix",    "",   4 * kMiB, 32, 0, "write", "cb_nodes=4"},
  {"sec33",                  "altix",    "",   4 * kMiB, 32, 0, "write", "cb_nodes=1"},
  {"sec33",                  "altix",    "",   4 * kMiB, 32, 0, "write", "cb_nodes=2"},
  {"sec33",                  "altix",    "",   4 * kMiB, 32, 0, "write", "cb_nodes=8"},
  {"sec33",                  "altix",    "",   4 * kMiB, 32, 0, "write", "cb_nodes=16"},
  {"sec33",                  "altix",    "",   4 * kMiB, 32, 0, "write", "cb_nodes=31"},
  {"sec33",                  "blade",    "",   kMiB,      4, 0, "write", "serial"},
  {"sec33",                  "blade",    "",   kMiB,      4, 0, "write", "cb_nodes=4"},
  {"sec33",                  "blade",    "",   4 * kMiB,  4, 0, "write", "serial"},
  {"sec33",                  "blade",    "",   4 * kMiB,  4, 0, "write", "cb_nodes=4"},
  {"sec33",                  "blade",    "",   kMiB,     16, 0, "write", "serial"},
  {"sec33",                  "blade",    "",   kMiB,     16, 0, "write", "cb_nodes=4"},
  {"sec33",                  "blade",    "",   4 * kMiB, 16, 0, "write", "serial"},
  {"sec33",                  "blade",    "",   4 * kMiB, 16, 0, "write", "cb_nodes=4"},
  {"sec33",                  "blade",    "",   kMiB,     32, 0, "write", "serial"},
  {"sec33",                  "blade",    "",   kMiB,     32, 0, "write", "cb_nodes=4"},
  {"sec33",                  "blade",    "",   4 * kMiB, 32, 0, "write", "serial"},
  {"sec33",                  "blade",    "",   4 * kMiB, 32, 0, "write", "cb_nodes=4"},
  // fault recovery: each driver clean, armed, with a crash, with a straggler
  {"fault",                  "altix",    "nr", kM,    8,   14,   "mpiblast", "default"},
  {"fault",                  "altix",    "nr", kM,    8,   14,   "mpiblast", "default armed"},
  {"fault",                  "altix",    "nr", kM,    8,   14,   "mpiblast", "default crash"},
  {"fault",                  "altix",    "nr", kM,    8,   14,   "mpiblast", "default straggler"},
  {"fault",                  "altix",    "nr", kM,    8,   14,   "pioblast", "dynamic"},
  {"fault",                  "altix",    "nr", kM,    8,   14,   "pioblast", "dynamic armed"},
  {"fault",                  "altix",    "nr", kM,    8,   14,   "pioblast", "dynamic crash"},
  {"fault",                  "altix",    "nr", kM,    8,   14,   "pioblast", "dynamic straggler"},
};
// clang-format on

// ---- pario sweep ------------------------------------------------------------
//
// The Thakur/Gropp/Lusk experiment shape: every rank owns a band of kBlocks
// useful blocks of kBlock bytes separated by kHole-byte holes (50% useful
// density, above the default ds_density) in a shared file, and fetches it
// one of three ways —
//   naive  one exact device read per block (list=off): every op pays the
//          NFS per-request setup, which the single server multiplies by
//          the client count;
//   sieve  pario v2 defaults: requests merge into runs and data sieving
//          bridges the holes, so each rank issues one covering read;
//   cbuf   collective read with the default cb_nodes aggregators and
//          cb_buffer_size exchange rounds: few clients, large reads.

constexpr std::uint64_t kBlock = 4096;
constexpr std::uint64_t kHole = 4096;
constexpr std::uint64_t kBlocks = 48;
constexpr std::uint64_t kBandSpan = kBlocks * (kBlock + kHole);

std::uint8_t fill(std::uint64_t offset) {
  return static_cast<std::uint8_t>((offset / kBlock) * 131 + offset);
}

/// Stages the shared file and reads it one way across `nranks` ranks,
/// returning the virtual makespan of the I/O and adding the ranks' list-I/O
/// counts (none for cbuf) to `reads`. The file lives on an *unscaled* NFS
/// model (sim::StorageModel::nfs_server()) so the sweep measures the
/// storage regime of Figure 4, not the bench's additional database-size
/// scaling.
double run_sweep(const sim::ClusterConfig& cluster, int nranks,
                 std::string_view mode, pario::ListIoStats& reads) {
  pario::VirtualFS fs(sim::StorageModel::nfs_server());
  std::vector<std::uint8_t> file(static_cast<std::size_t>(nranks) *
                                 kBandSpan);
  for (std::size_t i = 0; i < file.size(); ++i) file[i] = fill(i);
  fs.write_all("db", file);

  std::vector<pario::ListIoStats> per_rank(static_cast<std::size_t>(nranks));
  const auto report = mpisim::run(nranks, cluster, [&](mpisim::Process& p) {
    std::vector<pario::Region> band;
    for (std::uint64_t b = 0; b < kBlocks; ++b)
      band.push_back({static_cast<std::uint64_t>(p.rank()) * kBandSpan +
                          b * (kBlock + kHole),
                      kBlock});
    pario::Hints h;  // defaults: cb_nodes=4, cb_buffer_size=256k, ds auto
    std::vector<std::uint8_t> got;
    if (mode == "cbuf") {
      got = pario::collective_read(p, fs, "db", pario::FileView(band),
                                   h.collective());
    } else {
      h.list_io = mode != "naive";
      for (const auto& piece :
           pario::list_read(p, fs, "db", band, h, p.size(),
                            &per_rank[static_cast<std::size_t>(p.rank())]))
        got.insert(got.end(), piece.begin(), piece.end());
      p.barrier();  // the collective mode ends on a barrier; match it
    }
    PIOBLAST_CHECK_MSG(got.size() == kBlocks * kBlock,
                       "sweep read came back short");
    std::size_t at = 0;
    for (const pario::Region& r : band)
      for (std::uint64_t b = 0; b < r.length; ++b)
        PIOBLAST_CHECK_MSG(got[at++] == fill(r.offset + b),
                           "sweep read returned wrong bytes");
  });

  for (const pario::ListIoStats& s : per_rank) reads.add(s);
  return report.makespan();
}

// ---- §3.3 output write -----------------------------------------------------

constexpr std::uint64_t kRecord = 1536;  ///< an alignment-sized record

/// Writes `total` bytes of interleaved records to one file on the
/// cluster's shared storage and returns the virtual makespan. `serial` is
/// mpiBLAST's pattern: rank 0 fetches record i from worker i mod (P-1) + 1
/// and writes it. `cb_nodes=N` is pioBLAST's: record i lives on rank
/// i mod P, and all ranks write in one two-phase collective write through
/// N aggregators.
double run_write(const sim::ClusterConfig& cluster, int nranks,
                 std::uint64_t total, std::string_view mode) {
  pario::VirtualFS fs(cluster.shared_storage);
  const std::uint64_t records = total / kRecord;
  constexpr int kTag = 1;
  const auto report = mpisim::run(nranks, cluster, [&](mpisim::Process& p) {
    const auto size = static_cast<std::uint64_t>(p.size());
    if (mode != "serial") {
      pario::FileView view;
      std::vector<std::uint8_t> data;
      for (auto r = static_cast<std::uint64_t>(p.rank()); r < records;
           r += size) {
        view.append({r * kRecord, kRecord});
        data.insert(data.end(), kRecord, static_cast<std::uint8_t>(r));
      }
      pario::collective_write(p, fs, "out", view, data,
                              pario::Hints::parse(mode).collective());
      return;
    }
    if (p.rank() == 0) {
      for (std::uint64_t r = 0; r < records; ++r) {
        const int owner = static_cast<int>(r % (size - 1)) + 1;
        p.send_value<std::uint64_t>(owner, kTag, r);
        pario::timed_write(p, fs, "out", r * kRecord,
                           p.recv(owner, kTag).payload, 1);
      }
      for (int w = 1; w < p.size(); ++w)
        p.send_value<std::uint64_t>(w, kTag, ~0ull);
    } else {
      for (auto r = p.recv_value<std::uint64_t>(0, kTag); r != ~0ull;
           r = p.recv_value<std::uint64_t>(0, kTag))
        p.send(0, kTag, std::vector<std::uint8_t>(
                            kRecord, static_cast<std::uint8_t>(r)));
    }
    p.barrier();
  });
  return report.makespan();
}

// ---- fault recovery ---------------------------------------------------------
//
// Not a paper figure. Each driver runs clean; with the failure detector
// armed (the fault-tolerant machinery alone); with worker procs/2
// crashing at its kCrashRequest-th work request, so the survivors
// re-search what it banked; and with that worker kStraggle times slower.
// The armed run's trace is the probe that finds the crash point; on the
// event backend it repeats.

constexpr int kCrashRequest = 3;
constexpr double kStraggle = 4.0;

/// 1-based comm-event ordinal of `rank`'s `nth` work-request send in a
/// probe trace; 0 when the rank sent fewer requests.
std::uint64_t nth_work_request_event(const mpisim::Tracer& tracer, int rank,
                                     int nth) {
  std::uint64_t events = 0;
  int requests = 0;
  for (const mpisim::TraceEvent& e : tracer.for_rank(rank)) {
    const bool send = e.kind == mpisim::TraceKind::kSend;
    events += send || e.kind == mpisim::TraceKind::kRecv;
    if (send && e.tag == driver::kTagWorkReq && ++requests == nth)
      return events;
  }
  return 0;
}

/// A driver run's structured counter; 0 when the run never counted it.
std::uint64_t metric(const blast::DriverResult& d, const char* name) {
  const auto it = d.metrics.find(name);
  return it == d.metrics.end() ? 0 : it->second;
}

// ---- runs -------------------------------------------------------------------

struct Run {
  const Config* config = nullptr;
  std::size_t query_bytes = 0;  ///< the sampled query set's FASTA bytes
  std::size_t queries = 0;
  blast::DriverResult result;  ///< driver runs
  double seconds = 0;          ///< pario sweep, output-write and formatdb runs
  pario::ListIoStats reads;    ///< pario sweep runs
  /// Fault-figure runs: the report the job wrote, whether it equals the
  /// clean run's, and (armed runs) the crash point the probe found.
  std::vector<std::uint8_t> report;
  bool identical = false;
  std::uint64_t crash_at = 0;
};
using Rows = std::vector<const Run*>;

/// The run in `done` of `c`'s job under fault condition `fault` ("" for
/// the clean run).
const Run& sibling(const std::vector<Run>& done, const Config& c,
                   std::string_view fault) {
  for (const Run& r : done) {
    const Config& o = *r.config;
    if (std::string_view(o.cluster) == c.cluster && o.bytes == c.bytes &&
        std::string_view(o.db) == c.db && o.procs == c.procs &&
        o.fragments == c.fragments && o.is(c.program) &&
        o.options() == c.options() && o.fault() == fault)
      return r;
  }
  throw util::RuntimeError(std::string(c.variant) + " has no '" +
                           std::string(fault) + "' run before it");
}

sim::ClusterConfig cluster_of(std::string_view name) {
  if (name == "nt-altix") return bench::nt_altix();
  if (name == "blade") return bench::blade();
  PIOBLAST_CHECK_MSG(name == "altix", "unknown cluster " << name);
  return bench::altix();
}

/// The pioBLAST options a variant name stands for.
pio::PioBlastOptions pio_options(std::string_view variant) {
  pio::PioBlastOptions o;
  if (variant == "early-score-broadcast") {
    o.early_score_broadcast = true;
  } else if (variant == "collective-input") {
    o.collective_input = true;
  } else if (variant == "dynamic") {
    o.scheduler = driver::SchedulerKind::kGreedyDynamic;
  } else if (variant.starts_with("cb_nodes=")) {
    o.hints = pario::Hints::parse(variant);
  } else if (variant.starts_with("query_batch=")) {
    o.query_batch = util::read_number<std::uint32_t>(
        variant.substr(variant.find('=') + 1));
  } else {
    PIOBLAST_CHECK_MSG(variant == "default", "unknown variant " << variant);
  }
  return o;
}

/// Runs `c`; `done` holds the runs before it, where a fault run finds
/// its clean run and a crash run its armed probe.
Run run(const Config& c, const std::vector<Run>& done) {
  Run r;
  r.config = &c;
  const auto cluster = cluster_of(c.cluster);
  if (c.is("pario") || c.is("write") || c.is("formatdb")) {
    r.seconds =
        c.is("pario")   ? run_sweep(cluster, c.procs, c.variant, r.reads)
        : c.is("write") ? run_write(cluster, c.procs, c.bytes, c.variant)
                        : cluster.cost.formatdb_seconds(c.bytes);
    return r;
  }
  const bool nt = std::string_view(c.db) == "nt";
  const auto& db = nt ? bench::nt_database() : bench::nr_database();
  auto job = nt ? bench::nt_job() : bench::nr_job();
  const auto queries = bench::make_query_set(db, c.bytes);
  r.query_bytes = queries.size();
  r.queries = static_cast<std::size_t>(
      std::count(queries.begin(), queries.end(), '>'));

  const std::string_view fault = c.fault();
  const int victim = c.procs / 2;
  mpisim::Tracer probe;
  const auto inject = [&](driver::RunConfig& o) {
    if (fault == "armed") {
      o.faults.arm_detector = true;
      o.tracer = &probe;
    } else if (fault == "crash") {
      o.faults.at(victim).crash_at = sibling(done, c, "armed").crash_at;
    } else if (fault == "straggler") {
      o.faults.at(victim).slow = kStraggle;
    } else {
      PIOBLAST_CHECK_MSG(fault.empty(), "unknown fault " << fault);
    }
  };
  std::vector<std::uint8_t>* report = c.in("fault") ? &r.report : nullptr;
  if (c.is("mpiblast")) {
    mpiblast::MpiBlastOptions o;
    inject(o);
    r.result = bench::run_mpiblast_job(cluster, c.procs, db, queries, job,
                                       c.fragments, o, report);
  } else {
    job.nfragments = c.fragments;
    pio::PioBlastOptions o = pio_options(c.options());
    inject(o);
    r.result =
        bench::run_pioblast_job(cluster, c.procs, db, queries, job, o, report);
  }
  if (fault == "armed") {
    // crash_at = 0 would inject nothing and show a clean run as a crash.
    r.crash_at = nth_work_request_event(probe, victim, kCrashRequest);
    if (r.crash_at == 0)
      throw util::RuntimeError(std::string(c.variant) + ": rank " +
                               std::to_string(victim) +
                               " sent too few work requests");
  }
  if (report)
    r.identical = fault.empty() || r.report == sibling(done, c, "").report;
  return r;
}

/// Bytes rank 1 sent: a worker's result submissions to the master.
unsigned long long worker_bytes(const blast::DriverResult& d) {
  return d.report.ranks.size() > 1 ? d.report.ranks[1].bytes_sent : 0;
}

void emit_row(const Run& r) {
  const Config& c = *r.config;
  using ull = unsigned long long;
  std::printf("ROW {\"figures\":\"%s\",\"cluster\":\"%s\",\"procs\":%d,"
              "\"program\":\"%s\",\"variant\":\"%s\"",
              c.figures, c.cluster, c.procs, c.program, c.variant);
  if (c.is("pario")) {
    std::printf(",\"io_s\":%.6f,\"device_reads\":%llu,\"bytes_wanted\":%llu,"
                "\"bytes_read\":%llu}\n",
                r.seconds, ull{r.reads.reads_issued},
                ull{r.reads.bytes_wanted}, ull{r.reads.bytes_read});
  } else if (c.is("write")) {
    std::printf(",\"bytes\":%llu,\"io_s\":%.6f}\n", ull{c.bytes}, r.seconds);
  } else if (c.is("formatdb")) {
    std::printf(",\"db\":\"%s\",\"bytes\":%llu,\"formatdb_s\":%.6f}\n", c.db,
                ull{c.bytes}, r.seconds);
  } else {
    const blast::DriverResult& d = r.result;
    const blast::PhaseBreakdown& p = d.phases;
    std::printf(
        ",\"db\":\"%s\",\"query_target\":%llu,\"fragments\":%d,"
        "\"query_bytes\":%zu,\"queries\":%zu,\"copy_input_s\":%.6f,"
        "\"search_s\":%.6f,\"output_s\":%.6f,\"other_s\":%.6f,"
        "\"total_s\":%.6f,\"candidates\":%llu,\"alignments\":%llu,"
        "\"output_bytes\":%llu,\"rank1_bytes_sent\":%llu",
        c.db, ull{c.bytes}, c.fragments, r.query_bytes, r.queries,
        p.copy_input, p.search, p.output, p.other, p.total,
        ull{d.candidates_merged}, ull{d.alignments_reported},
        ull{d.output_bytes}, worker_bytes(d));
    if (c.in("fault"))
      std::printf(",\"tasks_reassigned\":%llu,\"ranks_lost\":%llu,"
                  "\"report_identical\":%s",
                  ull{metric(d, "tasks_reassigned")},
                  ull{metric(d, "ranks_lost")}, r.identical ? "true" : "false");
    std::printf("}\n");
  }
  std::fflush(stdout);  // one line per run as it lands, through `| tee`
}

// ---- tables and shape checks ------------------------------------------------

/// DESIGN.md's "Expected shapes (pass criteria)": one `SHAPE` line per
/// criterion; the failed ones are kept for the exit status.
struct Shapes {
  std::vector<std::string> failed;

  void check(const char* figure, const std::string& criterion, bool ok,
             const std::string& measured) {
    std::printf("SHAPE %s %s: %s; measured %s\n", figure, ok ? "ok" : "FAIL",
                criterion.c_str(), measured.c_str());
    if (!ok) failed.push_back(std::string(figure) + ": " + criterion);
  }
};

std::string secs(double s) { return util::fixed(s, 2); }
std::string pct(double fraction) { return util::format_percent(fraction); }
std::string times(double ratio) { return util::fixed(ratio, 2) + "x"; }

double share(const blast::PhaseBreakdown& p) { return p.search_fraction(); }
double total(const blast::PhaseBreakdown& p) { return p.total; }
double nonsearch(const blast::PhaseBreakdown& p) { return p.nonsearch(); }

/// The rows of one program, in table order.
Rows of(const Rows& rows, std::string_view program) {
  Rows out;
  for (const Run* r : rows)
    if (r->config->is(program)) out.push_back(r);
  return out;
}

template <class F>
std::vector<double> series(const Rows& rows, F value) {
  std::vector<double> out;
  for (const Run* r : rows) out.push_back(value(r->result.phases));
  return out;
}

bool rises(const std::vector<double>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) ==
         v.end();
}
bool falls(const std::vector<double>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::less_equal<>()) ==
         v.end();
}
/// Whether a[i] < b[i] at every i, the two of one length.
bool below(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), std::less<>());
}

/// "a -> b -> c", each value formatted by `fmt`.
std::string path(const std::vector<double>& v, std::string (*fmt)(double)) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : " -> ") + fmt(x);
  return out;
}

/// One row per driver run: a label, search, non-search and total seconds,
/// and one more column.
void phase_table(const Rows& rows, const char* key,
                 std::string (*label)(const Run&), const char* last,
                 std::string (*extra)(const Run&)) {
  util::Table t({key, "Search (s)", "Other (s)", "Total (s)", last});
  for (const Run* r : rows) {
    if (r->config->is("pario")) continue;
    const blast::PhaseBreakdown& p = r->result.phases;
    t.add_row({label(*r), secs(p.search), secs(p.nonsearch()), secs(p.total),
               extra(*r)});
  }
  t.print(std::cout);
}

std::string program_procs(const Run& r) {
  return (r.config->is("mpiblast") ? "mpi-" : "pio-") +
         std::to_string(r.config->procs);
}
std::string search_pct(const Run& r) { return pct(share(r.result.phases)); }

// ---- figures ----------------------------------------------------------------

void fig1a(const Rows& rows, Shapes& shapes) {
  phase_table(rows, "Program-Procs", program_procs, "Search %", search_pct);
  const auto s = series(rows, share);
  shapes.check("fig1a",
               "mpiBLAST's search share falls as processes grow (paper: "
               "95.6% at 16 to 70.7% at 64)",
               falls(s), path(s, pct));
}

void fig1b(const Rows& rows, Shapes& shapes) {
  phase_table(
      rows, "Fragments",
      [](const Run& r) { return std::to_string(r.config->fragments); },
      "Candidates screened",
      [](const Run& r) { return std::to_string(r.result.candidates_merged); });
  const auto tot = series(rows, total), other = series(rows, nonsearch);
  shapes.check("fig1b",
               "mpiBLAST's total time rises with the fragment count at 32 "
               "processes",
               rises(tot), path(tot, secs) + " s");
  shapes.check("fig1b",
               "mpiBLAST's non-search time rises with the fragment count",
               rises(other), path(other, secs) + " s");
}

void table1(const Rows& rows, Shapes& shapes) {
  const blast::DriverResult& mpi = of(rows, "mpiblast").at(0)->result;
  const blast::DriverResult& pio = of(rows, "pioblast").at(0)->result;
  util::Table t({"Program", "Copy/Input", "Search", "Output", "Other",
                 "Total", "Search %"});
  for (const auto* d : {&mpi, &pio}) {
    const blast::PhaseBreakdown& p = d->phases;
    t.add_row({d == &mpi ? "mpiBLAST" : "pioBLAST", secs(p.copy_input),
               secs(p.search), secs(p.output), secs(p.other), secs(p.total),
               pct(share(p))});
  }
  t.print(std::cout);
  const double speedup = mpi.phases.total / pio.phases.total;
  const double output = mpi.phases.output / std::max(pio.phases.output, 1e-9);
  const double input =
      mpi.phases.copy_input / std::max(pio.phases.copy_input, 1e-9);
  const double search = pio.phases.search / mpi.phases.search;
  std::printf("\noutput: %s, alignments: %llu\n"
              "candidates screened: mpiBLAST=%llu pioBLAST=%llu\n"
              "result-submission bytes to master: mpiBLAST=%llu "
              "pioBLAST=%llu\n"
              "speedup (total): %.2fx; output-phase speedup: %.2fx\n",
              util::format_bytes(pio.output_bytes).c_str(),
              static_cast<unsigned long long>(pio.alignments_reported),
              static_cast<unsigned long long>(mpi.candidates_merged),
              static_cast<unsigned long long>(pio.candidates_merged),
              worker_bytes(mpi), worker_bytes(pio), speedup, output);
  for (const auto* d : {&mpi, &pio})
    std::printf("METRICS %s %s\n", d == &mpi ? "mpiblast" : "pioblast",
                driver::metrics_json(d->metrics).c_str());

  shapes.check("table1",
               "search times comparable: within 15% (paper: 281.7 vs 318.5 "
               "s)",
               search > 0.85 && search < 1 / 0.85,
               secs(pio.phases.search) + " vs " + secs(mpi.phases.search) +
                   " s");
  shapes.check("table1",
               "parallel input at least 10x faster than the copy stage "
               "(paper: 0.4 vs 17.1 s)",
               input >= 10, times(input));
  shapes.check("table1", "output phase more than 10x smaller (paper: 65x)",
               output > 10, times(output));
  shapes.check("table1", "total several (3x or more) lower (paper: 4.4x)",
               speedup >= 3, times(speedup));
}

void table2(const Rows& rows, Shapes& shapes) {
  util::Table t({"Query size", "Queries", "Output size", "Output/query"});
  std::vector<double> out, ratio;
  for (const Run* r : rows) {
    out.push_back(static_cast<double>(r->result.output_bytes));
    ratio.push_back(out.back() / static_cast<double>(r->query_bytes));
    t.add_row({util::format_bytes(r->query_bytes), std::to_string(r->queries),
               util::format_bytes(r->result.output_bytes),
               util::fixed(ratio.back(), 1)});
  }
  t.print(std::cout);
  shapes.check("table2", "output grows with the query set", rises(out),
               path(out, [](double b) {
                 return util::format_bytes(static_cast<std::uint64_t>(b));
               }));
  const auto [lo, hi] = std::minmax_element(ratio.begin(), ratio.end());
  shapes.check("table2",
               "output per query byte stays within a 1.5x band (paper: 0.42 "
               "to 0.61 MB per KB, 1.45x)",
               *hi <= 1.5 * *lo,
               path(ratio, [](double x) { return util::fixed(x, 1); }));
}

void fig3a(const Rows& rows, Shapes& shapes) {
  phase_table(rows, "Program-Procs", program_procs, "Search %", search_pct);
  const Rows mpi = of(rows, "mpiblast"), pio = of(rows, "pioblast");
  const auto mt = series(mpi, total), pt = series(pio, total);
  const auto lowest = static_cast<std::size_t>(
      std::min_element(mt.begin(), mt.end()) - mt.begin());
  shapes.check("fig3a",
               "mpiBLAST's total is lowest at 32 processes and rises at 62 "
               "(paper: rises past ~32)",
               mpi[lowest]->config->procs == 32 && mt.back() > mt[lowest],
               path(mt, secs) + " s");
  shapes.check("fig3a", "pioBLAST's total falls at every step", falls(pt),
               path(pt, secs) + " s");
  const double ps = share(pio.back()->result.phases);
  const double ms = share(mpi.back()->result.phases);
  shapes.check("fig3a",
               "at 62 processes pioBLAST's search share is at least 90% "
               "(paper: 92.4%)",
               ps >= 0.90, pct(ps));
  shapes.check("fig3a",
               "at 62 processes mpiBLAST's search share is at most 15% "
               "(paper: 10.3%)",
               ms <= 0.15, pct(ms));
}

void fig3b(const Rows& rows, Shapes& shapes) {
  phase_table(
      rows, "Program-Output",
      [](const Run& r) {
        return (r.config->is("mpiblast") ? "mpi-" : "pio-") +
               util::format_bytes(r.result.output_bytes);
      },
      "Output size",
      [](const Run& r) { return util::format_bytes(r.result.output_bytes); });
  const Rows mpi = of(rows, "mpiblast"), pio = of(rows, "pioblast");
  const auto mo = series(mpi, nonsearch), po = series(pio, nonsearch);
  const double mg = mo.back() / std::max(mo.front(), 1e-9);
  const double pg = po.back() / std::max(po.front(), 1e-9);
  std::printf("\nnon-search growth smallest->largest output: mpiBLAST %.2fx, "
              "pioBLAST %.2fx\n",
              mg, pg);
  const auto mt = series(mpi, total), pt = series(pio, total);
  shapes.check("fig3b", "both totals grow with the output size",
               rises(mt) && rises(pt),
               "mpiBLAST " + path(mt, secs) + " s, pioBLAST " +
                   path(pt, secs) + " s");
  const auto out = series(mpi, [](const blast::PhaseBreakdown& p) {
    return p.output / p.total;
  });
  shapes.check("fig3b", "mpiBLAST is dominated by output at every size",
               *std::min_element(out.begin(), out.end()) > 0.5,
               path(out, pct));
  const auto ps = series(pio, share);
  shapes.check("fig3b", "pioBLAST is dominated by search at every size",
               *std::min_element(ps.begin(), ps.end()) > 0.5, path(ps, pct));
  shapes.check("fig3b",
               "pioBLAST's non-search time grows slower than mpiBLAST's "
               "(paper: less than doubles while mpiBLAST's grows much "
               "faster)",
               pg < mg, times(pg) + " vs " + times(mg));
}

void fig4(const Rows& rows, Shapes& shapes) {
  phase_table(rows, "Program-Procs", program_procs, "Search %", search_pct);
  const Rows mpi = of(rows, "mpiblast"), pio = of(rows, "pioblast");
  const auto mt = series(mpi, total), pt = series(pio, total);
  shapes.check("fig4", "pioBLAST is faster at every process count",
               below(pt, mt),
               "pioBLAST " + path(pt, secs) + " s vs mpiBLAST " +
                   path(mt, secs) + " s");
  const auto ps = series(pio, share);
  shapes.check("fig4",
               "pioBLAST's search share falls from 4 to 32 processes "
               "(paper: 93% to 64%)",
               falls(ps), path(ps, pct));

  std::printf("\n--- pario v2 noncontiguous-read sweep (NFS, strided 4 KiB "
              "blocks, 50%% density) ---\n");
  util::Table sweep({"Ranks", "Naive (s)", "Sieve (s)", "Cbuf (s)",
                     "Naive/Sieve", "Naive/Cbuf"});
  const Rows io = of(rows, "pario");  // naive, sieve, cbuf per world size
  bool v2_clear = true;
  std::string measured;
  for (std::size_t i = 0; i + 2 < io.size(); i += 3) {
    const int n = io[i]->config->procs;
    const double naive = io[i]->seconds, sieve = io[i + 1]->seconds,
                 cbuf = io[i + 2]->seconds;
    sweep.add_row({std::to_string(n), util::fixed(naive, 3),
                   util::fixed(sieve, 3), util::fixed(cbuf, 3),
                   util::fixed(naive / sieve, 1) + "x",
                   util::fixed(naive / cbuf, 1) + "x"});
    if (n < 32) continue;
    v2_clear &= naive >= 2 * sieve && naive >= 2 * cbuf;
    measured += (measured.empty() ? "" : ", ") + std::to_string(n) +
                " ranks: sieve " + util::fixed(naive / sieve, 1) +
                "x, cbuf " + util::fixed(naive / cbuf, 1) + "x";
  }
  sweep.print(std::cout);
  shapes.check("fig4",
               "pario v2 (sieve and cbuf) at least 2x faster than naive "
               "reads at 32 ranks or more",
               v2_clear, measured);
}

void ablation(const Rows& rows, Shapes& shapes) {
  util::Table t({"Variant", "Fragments", "Input (s)", "Search (s)",
                 "Output (s)", "Total (s)", "Candidates"});
  for (const Run* r : rows) {
    const blast::PhaseBreakdown& p = r->result.phases;
    const int f = r->config->fragments;
    t.add_row({r->config->variant,
               std::to_string(f > 0 ? f : r->config->procs - 1),
               util::fixed(p.copy_input, 3), secs(p.search),
               util::fixed(p.output, 3), secs(p.total),
               std::to_string(r->result.candidates_merged)});
  }
  t.print(std::cout);
  // Table order: the baseline, then early-score broadcast.
  const blast::DriverResult& base = rows.at(0)->result;
  PIOBLAST_CHECK(rows[0]->config->variant == std::string_view("default") &&
                 rows.at(1)->config->variant ==
                     std::string_view("early-score-broadcast"));
  const auto same = std::count_if(rows.begin(), rows.end(), [&](const Run* r) {
    return r->result.output_bytes == base.output_bytes &&
           r->result.alignments_reported == base.alignments_reported;
  });
  shapes.check("ablation",
               "every variant writes the baseline's output bytes and "
               "alignment count (DESIGN key decisions 2, 5 and 7)",
               same == static_cast<long>(rows.size()),
               std::to_string(same) + " of " + std::to_string(rows.size()) +
                   " at " + std::to_string(base.output_bytes) + " bytes, " +
                   std::to_string(base.alignments_reported) + " alignments");
  const std::uint64_t early = rows[1]->result.candidates_merged;
  shapes.check("ablation",
               "early-score broadcast screens fewer candidates than the "
               "baseline",
               early < base.candidates_merged,
               std::to_string(early) + " vs " +
                   std::to_string(base.candidates_merged));
}

void scale(const Rows& rows, Shapes& shapes) {
  phase_table(rows, "Program-Procs", program_procs, "Search %", search_pct);
  const auto mt = series(of(rows, "mpiblast"), total);
  const auto pt = series(of(rows, "pioblast"), total);
  shapes.check("scale", "pioBLAST's total is below mpiBLAST's at every "
               "process count", below(pt, mt),
               "pioBLAST " + path(pt, secs) + " s vs mpiBLAST " +
                   path(mt, secs) + " s");
}

void sec31(const Rows& rows, Shapes& shapes) {
  // Table order: nr, then nt; the paper's Altix head node took ~6 and ~22
  // minutes.
  const double nr = rows.at(0)->seconds / 60, nt = rows.at(1)->seconds / 60;
  util::Table t({"Database", "Raw size", "formatdb (min)", "Paper (~min)"});
  for (const Run* r : rows)
    t.add_row({r->config->db, util::format_bytes(r->config->bytes),
               util::fixed(r->seconds / 60, 1), r == rows[0] ? "6" : "22"});
  t.print(std::cout);
  shapes.check("sec31", "nr's formatdb cost rounds to the paper's ~6 minutes",
               std::lround(nr) == 6, util::fixed(nr, 1) + " min");
  shapes.check("sec31", "nt's costs more than nr's (paper: ~22 vs ~6 min)",
               nt > nr, util::fixed(nt, 1) + " vs " + util::fixed(nr, 1));
}

void sec33(const Rows& rows, Shapes& shapes) {
  util::Table t({"Storage", "Ranks", "Volume", "Serial (s)", "Collective (s)",
                 "Speedup"});
  std::map<std::string, std::vector<double>> gain;  // per cell, by storage
  std::map<int, double> sweep;  // XFS, 32 ranks, 4 MiB: aggregators -> s
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Config& c = *rows[i]->config;
    const std::string storage = cluster_of(c.cluster).shared_storage.name();
    if (c.variant != std::string_view("serial")) {
      if (storage == "xfs" && c.procs == 32 && c.bytes == 4 * kMiB)
        sweep[pario::Hints::parse(c.variant).cb_nodes] = rows[i]->seconds;
      continue;
    }
    // Each cell's serial row comes right before its 4-aggregator one.
    const Run& col = *rows.at(i + 1);
    PIOBLAST_CHECK(col.config->variant == std::string_view("cb_nodes=4") &&
                   col.config->procs == c.procs &&
                   col.config->bytes == c.bytes);
    gain[storage].push_back(rows[i]->seconds / col.seconds);
    t.add_row({storage, std::to_string(c.procs), util::format_bytes(c.bytes),
               util::fixed(rows[i]->seconds, 3), util::fixed(col.seconds, 3),
               util::fixed(gain[storage].back(), 1) + "x"});
  }
  t.print(std::cout);
  std::printf("\naggregator sweep (xfs, 32 ranks, 4 MiB):\n");
  util::Table agg({"Aggregators", "Collective (s)"});
  for (const auto& [n, io_s] : sweep)
    agg.add_row({std::to_string(n), util::fixed(io_s, 3)});
  agg.print(std::cout);

  // Both storages list their cells in one order.
  const std::vector<double>& xfs = gain["xfs"];
  const std::vector<double>& nfs = gain["nfs"];
  const std::string measured = "serial/collective XFS " + path(xfs, times) +
                               "; NFS " + path(nfs, times);
  const std::vector<double> even(xfs.size(), 1.0);
  shapes.check("sec33",
               "the collective write beats serial output in every cell",
               below(even, xfs) && below(even, nfs), measured);
  shapes.check("sec33",
               "its advantage persists but degrades on NFS: smaller there "
               "than on XFS in every cell (DESIGN: Figure 4's reading)",
               below(nfs, xfs), measured);
}

void fault_recovery(const Rows& rows, Shapes& shapes) {
  util::Table t({"Driver", "Condition", "Total (s)", "Overhead",
                 "Reassigned", "Lost ranks", "Report identical"});
  std::size_t identical = 0;
  bool recovered = true, intact = true;
  std::string counts;  // lost ranks / reassigned tasks per run
  double clean = 0;    // each driver's clean run comes first in the table
  for (const Run* r : rows) {
    const std::string_view fault = r->config->fault();
    const double total = r->result.phases.total;
    const std::uint64_t lost = metric(r->result, "ranks_lost");
    const std::uint64_t moved = metric(r->result, "tasks_reassigned");
    if (fault.empty()) clean = total;
    t.add_row({r->config->is("mpiblast") ? "mpiBLAST" : "pioBLAST",
               fault.empty() ? "clean" : std::string(fault), secs(total),
               pct(total / clean - 1.0), std::to_string(moved),
               std::to_string(lost), r->identical ? "yes" : "NO"});
    identical += r->identical;
    if (fault == "crash") recovered &= lost == 1 && moved >= 1;
    else intact &= lost == 0;
    counts += (counts.empty() ? "lost/reassigned " : ", ") +
              std::to_string(lost) + "/" + std::to_string(moved);
  }
  t.print(std::cout);
  shapes.check("fault",
               "every armed, crash and straggler report is byte-identical "
               "to its driver's clean report (DESIGN: fault model, scope)",
               identical == rows.size(),
               std::to_string(identical) + " of " +
                   std::to_string(rows.size()) + " identical");
  shapes.check("fault",
               "each crash run loses 1 rank and reassigns at least 1 task",
               recovered, counts);
  shapes.check("fault", "no other run loses a rank", intact, counts);
}

struct Figure {
  const char* name;
  const char* title;
  void (*show)(const Rows&, Shapes&);
};

const Figure kFigures[] = {
    {"fig1a", "Figure 1(a): mpiBLAST search vs non-search time (nt)", fig1a},
    {"fig1b", "Figure 1(b): mpiBLAST vs number of fragments (nr, 32 procs)",
     fig1b},
    {"table1", "Table 1: phase breakdown (nr, 32 procs)", table1},
    {"table2", "Table 2: query size vs output size (pioBLAST, 16 procs)",
     table2},
    {"fig3a", "Figure 3(a): node scalability (nr, Altix)", fig3a},
    {"fig3b", "Figure 3(b): output scalability (nr, 62 procs)", fig3b},
    {"fig4", "Figure 4: process scalability on the NFS blade cluster", fig4},
    {"ablation", "Ablation: pioBLAST variants (nr, 32 procs)", ablation},
    {"scale", "Figure 3(a) past the paper: 64 to 4096 procs", scale},
    {"sec31", "§3.1: formatdb cost at paper scale", sec31},
    {"sec33", "§3.3: collective vs serial output (1.5 KiB records)", sec33},
    {"fault", "Fault recovery (nr, 8 procs, 14 fragments)", fault_recovery},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Figure*> figures;
  for (int i = 1; i < argc; ++i) {
    const Figure* f = std::find_if(
        std::begin(kFigures), std::end(kFigures),
        [&](const Figure& fig) { return argv[i] == std::string_view(fig.name); });
    if (f == std::end(kFigures)) {
      std::string names;
      for (const Figure& fig : kFigures) names += std::string(" ") + fig.name;
      std::fprintf(stderr, "usage: paper [figure...]\nfigures:%s (default: "
                   "all)\n", names.c_str());
      return std::string_view(argv[i]) == "--help" ? 0 : 2;
    }
    figures.push_back(f);
  }
  if (figures.empty())
    for (const Figure& f : kFigures) figures.push_back(&f);

  // Every configuration a chosen figure shows, once, in table order.
  std::vector<Run> runs;
  try {
    for (const Config& c : kConfigs) {
      if (std::none_of(figures.begin(), figures.end(),
                       [&](const Figure* f) { return c.in(f->name); }))
        continue;
      runs.push_back(run(c, runs));
      emit_row(runs.back());
    }
  } catch (const util::RuntimeError& e) {
    std::fprintf(stderr, "paper: %s\n", e.what());
    return 1;
  }

  Shapes shapes;
  for (const Figure* f : figures) {
    Rows rows;
    for (const Run& r : runs)
      if (r.config->in(f->name)) rows.push_back(&r);
    std::printf("\n=== %s ===\n", f->title);
    f->show(rows, shapes);
  }
  for (const std::string& f : shapes.failed)
    std::fprintf(stderr, "shape check failed: %s\n", f.c_str());
  return shapes.failed.empty() ? 0 : 1;
}
