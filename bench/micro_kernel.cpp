// Micro-benchmark (real wall time) of the search kernel against the scalar
// reference oracle the tests keep (tests/support/scalar_oracle.h): the
// oracle's per-query loop vs the production kernel (per-assignment
// fragment indexing, one word table per query batch, batched query
// processing, SWAR/arena extension loops). Both produce bit-identical HSPs
// and counters — the kernel differential suite enforces that — so this
// bench measures pure host-side throughput on identical work. The word
// tables, the oracle's per-query ones included, are built before any
// timed pass. The fast kernel splits the fragment across every
// core (the oracle runs on one), so its row and the speedup depend on the
// `nproc` each row carries.
//
// Reported rates use the engine's own deterministic counters: "cells" are
// extension DP cells (ungapped + gapped + traceback) and "seeds" are word
// hits examined, both identical across kernels by construction. One
// machine-readable `ROW {...}` line per (type, kernel) plus a summary row
// per type; tools/bench_to_json.py folds them into BENCH_kernel.json.
// Every rate row carries `vs_oracle`, its cells/s over the same run's
// scalar row of its type: the host's speed moves both rates together, so
// this ratio, unlike a raw rate, compares across runs and host states.
//
// Each type gets two more rows: the same database cut into fragments of
// about kCutResidues residues, every one searched with the same prepared
// batch. That is pioBLAST's regime at thousands of ranks (its dynamic
// partitioning hands each worker a few hundred residues). The "fast" cut
// row makes one search_fragment_batch call per fragment, each on one core,
// where what a call costs besides the scan shows as microseconds per call;
// the "flat" row searches them all in one search_fragments call, which
// spreads the fragments over every core (what the drivers' search memo
// does before the ranks start).
//
// The rows check each other: the exit status is 1 when the fast row's
// cells, seeds or HSPs differ from the scalar row's on the same fragment,
// or the flat row's from the fast cut row's.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "blast/engine.h"
#include "blast/query_set.h"
#include "pario/vfs.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "support/scalar_oracle.h"
#include "util/args.h"
#include "util/parse.h"
#include "util/table.h"
#include "util/units.h"
#include "workloads.h"

using namespace pioblast;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Fragment size of the cut rows.
constexpr std::uint64_t kCutResidues = 512;

struct KernelRun {
  std::size_t calls = 0;  ///< fragment searches per pass
  double wall = 0;
  std::uint64_t cells = 0;
  std::uint64_t seeds = 0;
  std::uint64_t hsps = 0;
};

/// Runs `search` (the whole query batch against every fragment of the span
/// it is given, one result list per fragment) over `frags` `repeats` times,
/// either one fragment per call or all of them in one call, and
/// accumulates wall time per pass; counters are taken from one pass (they
/// are per-pass deterministic).
template <class Search>
KernelRun run_kernel(std::span<const seqdb::LoadedFragment> frags,
                     const Search& search, int repeats, bool one_call) {
  KernelRun out;
  out.calls = frags.size();
  std::vector<std::vector<blast::FragmentSearchResult>> results;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) {
    const std::size_t per_call = one_call ? frags.size() : 1;
    for (std::size_t f = 0; f < frags.size(); f += per_call) {
      results = search(frags.subspan(f, per_call));
      if (r > 0) continue;
      for (const auto& fragment_results : results) {
        for (const auto& res : fragment_results) {
          out.cells += res.counters.ungapped_cells +
                       res.counters.gapped_cells + res.counters.traceback_cells;
          out.seeds += res.counters.seed_hits;
          out.hsps += res.counters.hsps_found;
        }
      }
    }
  }
  out.wall = seconds_since(t0) / repeats;
  return out;
}

double us_per_call(const KernelRun& r) {
  return r.wall / static_cast<double>(r.calls) * 1e6;
}

double cells_per_s(const KernelRun& r) {
  return static_cast<double>(r.cells) / r.wall;
}

/// One row; `oracle` is the same run's scalar row of this type.
void emit_row(const char* type, const char* kernel, const KernelRun& r,
              const KernelRun& oracle) {
  std::printf(
      "ROW {\"bench\":\"micro_kernel\",\"type\":\"%s\",\"kernel\":\"%s\","
      "\"nproc\":%u,\"fragments\":%zu,\"wall_s\":%.6f,\"us_per_call\":%.1f,"
      "\"cells\":%llu,\"cells_per_s\":%.0f,\"seeds\":%llu,"
      "\"seeds_per_s\":%.0f,\"hsps\":%llu,\"vs_oracle\":%.3f}\n",
      type, kernel, std::thread::hardware_concurrency(), r.calls, r.wall,
      us_per_call(r), static_cast<unsigned long long>(r.cells),
      cells_per_s(r), static_cast<unsigned long long>(r.seeds),
      static_cast<double>(r.seeds) / r.wall,
      static_cast<unsigned long long>(r.hsps),
      cells_per_s(r) / cells_per_s(oracle));
}

/// True when `got` did the work `want` did: equal cells, seeds and HSPs.
/// Otherwise says what differs on stderr.
bool same_work(const char* type, const char* what, const KernelRun& want,
               const KernelRun& got) {
  if (want.cells == got.cells && want.seeds == got.seeds &&
      want.hsps == got.hsps)
    return true;
  std::fprintf(stderr,
               "micro_kernel: %s %s: cells %llu vs %llu, seeds %llu vs %llu, "
               "hsps %llu vs %llu\n",
               type, what, static_cast<unsigned long long>(want.cells),
               static_cast<unsigned long long>(got.cells),
               static_cast<unsigned long long>(want.seeds),
               static_cast<unsigned long long>(got.seeds),
               static_cast<unsigned long long>(want.hsps),
               static_cast<unsigned long long>(got.hsps));
  return false;
}

void add_table_row(util::Table& table, const char* type, const char* kernel,
                   const KernelRun& r, const std::string& speedup) {
  table.add_row(
      {type, kernel, std::to_string(r.calls), util::fixed(r.wall * 1e3, 1),
       util::fixed(us_per_call(r), 1),
       util::fixed(cells_per_s(r) / 1e6, 1),
       util::fixed(static_cast<double>(r.seeds) / r.wall / 1e6, 1),
       std::to_string(r.hsps), speedup});
}

/// Runs every row of one sequence type; false when the rows' work differs
/// (see same_work).
bool bench_type(seqdb::SeqType type, std::uint64_t residues,
                std::uint64_t query_bytes, std::uint64_t query_chunk,
                int repeats, util::Table& table) {
  const char* name = type == seqdb::SeqType::kProtein ? "protein" : "dna";

  seqdb::GeneratorConfig gen;
  gen.type = type;
  gen.target_residues = residues;
  gen.seed = type == seqdb::SeqType::kProtein ? 42 : 43;
  gen.family_fraction = 0.55;
  const auto db = seqdb::generate_database(gen);
  auto queries = seqdb::sample_queries(db, query_bytes, 7);
  if (query_chunk > 0) {
    // Slice the sampled records into fixed-length queries: the batched
    // kernel's target regime is many short queries against one fragment
    // (EST/read-style searches), where the scalar path re-scans the
    // fragment once per query. Chunks stay substrings of database family
    // members, so hit lists remain rich.
    std::vector<seqdb::FastaRecord> chunked;
    for (const auto& q : queries) {
      for (std::size_t off = 0; off < q.sequence.size(); off += query_chunk) {
        seqdb::FastaRecord rec;
        rec.id = "query_" + std::to_string(chunked.size());
        rec.sequence = q.sequence.substr(off, query_chunk);
        chunked.push_back(std::move(rec));
      }
    }
    queries = std::move(chunked);
  }

  pario::VirtualFS fs;
  seqdb::format_db(fs, db, "db", type, "bench");
  const auto frag = seqdb::load_volumes(fs, "db", type, 0);

  blast::GlobalDbStats stats;
  stats.num_seqs = db.size();
  for (const auto& r : db) stats.total_residues += r.sequence.size();

  auto params = type == seqdb::SeqType::kProtein
                    ? blast::SearchParams::blastp_defaults()
                    : blast::SearchParams::blastn_defaults();
  const auto matrix = blast::make_matrix(params);
  std::vector<blast::QueryContext> contexts;
  for (const auto& q : queries) {
    contexts.emplace_back(
        static_cast<std::uint32_t>(contexts.size()),
        seqdb::encode_sequence(type, q.sequence), params, matrix, stats);
  }
  const blast::PreparedBatch batch(std::move(contexts));
  const blast::oracle::ScalarBatch reference(batch);
  using PerFragment = std::vector<std::vector<blast::FragmentSearchResult>>;
  auto scalar_search = [&](std::span<const seqdb::LoadedFragment> f) {
    return PerFragment{reference.search(f.front())};
  };
  auto fast_search = [&](std::span<const seqdb::LoadedFragment> f) {
    return PerFragment{blast::search_fragment_batch(batch, f.front())};
  };
  auto flat_search = [&](std::span<const seqdb::LoadedFragment> f) {
    return blast::search_fragments(batch, f);
  };

  // Warm-up pass (page in the fragment, size the scratch), then timed runs.
  (void)fast_search({&frag, 1});
  const auto scalar = run_kernel({&frag, 1}, scalar_search, repeats, false);
  const auto fast = run_kernel({&frag, 1}, fast_search, repeats, false);
  const double speedup = scalar.wall / fast.wall;

  emit_row(name, "scalar", scalar, scalar);
  add_table_row(table, name, "scalar", scalar, "1.00x");
  emit_row(name, "fast", fast, scalar);
  add_table_row(table, name, "fast", fast, util::fixed(speedup, 2) + "x");
  std::printf(
      "ROW {\"bench\":\"micro_kernel\",\"type\":\"%s\",\"kernel\":\"speedup\","
      "\"nproc\":%u,\"speedup\":%.3f}\n",
      name, std::thread::hardware_concurrency(), speedup);

  const auto cut_db = seqdb::mpiformatdb(
      fs, db, "cut", type, "bench",
      static_cast<int>(std::min<std::uint64_t>(
          db.size(),
          std::max<std::uint64_t>(1, stats.total_residues / kCutResidues))));
  std::vector<seqdb::LoadedFragment> cut;
  for (std::size_t i = 0; i < cut_db.fragment_bases.size(); ++i)
    cut.push_back(seqdb::load_volumes(fs, cut_db.fragment_bases[i], type,
                                      cut_db.ranges[i].first));
  const auto cut_fast = run_kernel(cut, fast_search, repeats, false);
  emit_row(name, "fast", cut_fast, scalar);
  add_table_row(table, name, "fast", cut_fast, "");
  const auto cut_flat = run_kernel(cut, flat_search, repeats, true);
  emit_row(name, "flat", cut_flat, scalar);
  add_table_row(table, name, "flat", cut_flat,
                util::fixed(cut_fast.wall / cut_flat.wall, 2) + "x");
  const bool fast_ok = same_work(name, "fast vs scalar", scalar, fast);
  return same_work(name, "flat vs fast cut", cut_fast, cut_flat) && fast_ok;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("micro_kernel",
                       "search-kernel throughput: scalar reference oracle vs "
                       "the kernel (fragment indexing + batched SWAR "
                       "extension)");
  args.add("residues", "1048576", "database residues per sequence type")
      .add("query-bytes", "16384", "query-set FASTA bytes")
      .add("query-chunk", "64",
           "split sampled queries into chunks of this many residues "
           "(0 = whole records)")
      .add("repeats", "3", "timed repetitions per kernel (mean reported)")
      .add("types", "both", "both | protein | dna");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error();
    return args.error().rfind("usage:", 0) == 0 ? 0 : 2;
  }
  // Option `name`'s whole number, at least `min`.
  const auto number = [&args](const std::string& name, auto min) {
    return util::named("--" + name,
                       [&] { return util::read_number(args.get(name), min); });
  };
  std::uint64_t residues = 0, query_bytes = 0, query_chunk = 0;
  int repeats = 0;
  const std::string types = args.get("types");
  try {
    residues = number("residues", std::uint64_t{1});
    query_bytes = number("query-bytes", std::uint64_t{1});
    query_chunk = number("query-chunk", std::uint64_t{0});
    repeats = number("repeats", 1);
    util::named("--types", [&] {
      return util::read_choice(types, {"both", "protein", "dna"});
    });
  } catch (const util::RuntimeError& e) {
    std::cerr << "micro_kernel: " << e.what() << '\n';
    return 2;
  }

  util::Table table({"Type", "Kernel", "Fragments", "Wall (ms)", "us/call",
                     "Mcells/s", "Mseeds/s", "HSPs", "Speedup"});
  bool ok = true;
  if (types == "both" || types == "protein")
    ok &= bench_type(seqdb::SeqType::kProtein, residues, query_bytes,
                     query_chunk, repeats, table);
  if (types == "both" || types == "dna")
    ok &= bench_type(seqdb::SeqType::kNucleotide, residues, query_bytes,
                     query_chunk, repeats, table);
  table.print(std::cout);
  return ok ? 0 : 1;
}
