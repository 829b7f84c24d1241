// The paper's evaluation from one table of configurations: Tables 1 and 2
// and Figures 1(a), 1(b), 3(a), 3(b) and 4 of Lin et al. (IPDPS'05), the
// pioBLAST ablations of §5, and Figure 3(a) past the paper's 62 processes.
//
//   paper [figure...]    figures: fig1a fig1b table1 table2 fig3a fig3b
//                        fig4 ablation scale (default: all of them)
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
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "mpisim/runtime.h"
#include "pario/env.h"
#include "pario/file.h"
#include "util/error.h"
#include "util/table.h"
#include "util/units.h"
#include "workloads.h"

using namespace pioblast;

namespace {

/// One run: everything that decides its virtual seconds.
struct Config {
  const char* figures;  ///< space-separated names of the figures showing it
  const char* cluster;  ///< altix | nt-altix | blade
  const char* db;       ///< nr | nt ("" for the pario sweep)
  std::uint64_t query;  ///< query-set sample target, FASTA bytes
  int procs;
  /// mpiBLAST's physical fragments; pioBLAST's virtual ones (0 = one per
  /// worker).
  int fragments;
  const char* program;  ///< mpiblast | pioblast | pario
  /// pioBLAST's option set (see pio_options), or the pario sweep's access
  /// mode.
  const char* variant;

  bool in(std::string_view figure) const {
    for (std::string_view names = figures; !names.empty();) {
      const std::size_t end = std::min(names.find(' '), names.size());
      if (names.substr(0, end) == figure) return true;
      names.remove_prefix(std::min(end + 1, names.size()));
    }
    return false;
  }
  bool is(std::string_view p) const { return program == p; }
};

constexpr std::uint64_t kS = bench::QuerySizes::kSmall;
constexpr std::uint64_t kM = bench::QuerySizes::kMedium;
constexpr std::uint64_t kD = bench::QuerySizes::kDefault;
constexpr std::uint64_t kL = bench::QuerySizes::kLarge;

// Runs go in this order, and each figure prints its rows in this order.
// clang-format off
const Config kConfigs[] = {
  // figures                 cluster     db    query procs frags program     variant
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

struct SweepResult {
  double io_s = 0;
  pario::ListIoStats stats;  ///< zero for the collective mode
};

/// Stages the shared file and reads it one way across `nranks` ranks,
/// returning the virtual makespan of the I/O. The file lives on an
/// *unscaled* NFS model (sim::StorageModel::nfs_server()) so the sweep
/// measures the storage regime of Figure 4, not the bench's additional
/// database-size scaling.
SweepResult run_sweep(const sim::ClusterConfig& cluster, int nranks,
                      std::string_view mode) {
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

  SweepResult out;
  out.io_s = report.makespan();
  for (const pario::ListIoStats& s : per_rank) out.stats.add(s);
  return out;
}

// ---- runs -------------------------------------------------------------------

struct Run {
  const Config* config = nullptr;
  std::size_t query_bytes = 0;  ///< the sampled query set's FASTA bytes
  std::size_t queries = 0;
  blast::DriverResult result;  ///< driver runs
  SweepResult io;              ///< pario sweep runs
};
using Rows = std::vector<const Run*>;

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
    o.hints = pario::Hints::parse(std::string(variant));
  } else if (variant.starts_with("query_batch=")) {
    o.query_batch = static_cast<std::uint32_t>(
        std::stoul(std::string(variant.substr(variant.find('=') + 1))));
  } else {
    PIOBLAST_CHECK_MSG(variant == "default", "unknown variant " << variant);
  }
  return o;
}

Run run(const Config& c) {
  Run r;
  r.config = &c;
  const auto cluster = cluster_of(c.cluster);
  if (c.is("pario")) {
    r.io = run_sweep(cluster, c.procs, c.variant);
    return r;
  }
  const bool nt = std::string_view(c.db) == "nt";
  const auto& db = nt ? bench::nt_database() : bench::nr_database();
  auto job = nt ? bench::nt_job() : bench::nr_job();
  const auto queries = bench::make_query_set(db, c.query);
  r.query_bytes = queries.size();
  r.queries = static_cast<std::size_t>(
      std::count(queries.begin(), queries.end(), '>'));
  if (c.is("mpiblast")) {
    r.result = bench::run_mpiblast_job(cluster, c.procs, db, queries, job,
                                       c.fragments);
  } else {
    job.nfragments = c.fragments;
    r.result = bench::run_pioblast_job(cluster, c.procs, db, queries, job,
                                       pio_options(c.variant));
  }
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
                r.io.io_s, ull{r.io.stats.reads_issued},
                ull{r.io.stats.bytes_wanted}, ull{r.io.stats.bytes_read});
  } else {
    const blast::DriverResult& d = r.result;
    const blast::PhaseBreakdown& p = d.phases;
    std::printf(
        ",\"db\":\"%s\",\"query_target\":%llu,\"fragments\":%d,"
        "\"query_bytes\":%zu,\"queries\":%zu,\"copy_input_s\":%.6f,"
        "\"search_s\":%.6f,\"output_s\":%.6f,\"other_s\":%.6f,"
        "\"total_s\":%.6f,\"candidates\":%llu,\"alignments\":%llu,"
        "\"output_bytes\":%llu,\"rank1_bytes_sent\":%llu}\n",
        c.db, ull{c.query}, c.fragments, r.query_bytes, r.queries,
        p.copy_input, p.search, p.output, p.other, p.total,
        ull{d.candidates_merged}, ull{d.alignments_reported},
        ull{d.output_bytes}, worker_bytes(d));
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
  bench::emit_metrics("mpiblast", mpi);
  bench::emit_metrics("pioblast", pio);

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
  bool faster = true;
  for (std::size_t i = 0; i < pt.size(); ++i) faster &= pt[i] < mt[i];
  shapes.check("fig4", "pioBLAST is faster at every process count", faster,
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
    const double naive = io[i]->io.io_s, sieve = io[i + 1]->io.io_s,
                 cbuf = io[i + 2]->io.io_s;
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

void ablation(const Rows& rows, Shapes&) {
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
}

void scale(const Rows& rows, Shapes&) {
  phase_table(rows, "Program-Procs", program_procs, "Search %", search_pct);
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
  for (const Config& c : kConfigs) {
    if (std::none_of(figures.begin(), figures.end(),
                     [&](const Figure* f) { return c.in(f->name); }))
      continue;
    runs.push_back(run(c));
    emit_row(runs.back());
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
