// Micro-benchmark (real wall time) of the search kernels: the scalar
// reference engine vs the fast path (per-assignment fragment indexing,
// flat offset-compacted neighborhood table, batched query processing,
// SWAR/arena extension loops). Both kernels produce bit-identical HSPs
// and counters — the kernel differential suite enforces that — so this
// bench measures pure host-side throughput on identical work. The fast
// kernel splits the fragment across every core (the scalar one runs on
// one), so its row and the speedup depend on the `nproc` each row carries.
//
// Reported rates use the engine's own deterministic counters: "cells" are
// extension DP cells (ungapped + gapped + traceback) and "seeds" are word
// hits examined, both identical across kernels by construction. One
// machine-readable `ROW {...}` line per (type, kernel) plus a summary row
// per type; tools/bench_to_json.py folds them into BENCH_kernel.json.
//
// Protein gets one more fast row: the same database cut into fragments of
// about kCutResidues residues, every one searched with the same prepared
// batch. That is pioBLAST's regime at thousands of ranks (its dynamic
// partitioning hands each worker a few hundred residues), where what a
// call costs besides the scan shows as microseconds per call.
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
#include "util/args.h"
#include "util/table.h"
#include "util/units.h"
#include "workloads.h"

using namespace pioblast;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Fragment size of the protein cut row.
constexpr std::uint64_t kCutResidues = 512;

struct KernelRun {
  std::size_t calls = 0;  ///< fragment searches per pass
  double wall = 0;
  std::uint64_t cells = 0;
  std::uint64_t seeds = 0;
  std::uint64_t hsps = 0;
};

/// Runs the whole query batch against every fragment `repeats` times with
/// the given kernel and accumulates wall time per pass; counters are taken
/// from one pass (they are per-pass deterministic).
KernelRun run_kernel(const blast::PreparedBatch& batch,
                     std::span<const seqdb::LoadedFragment> frags,
                     blast::KernelKind kernel, int repeats) {
  KernelRun out;
  out.calls = frags.size();
  std::vector<blast::FragmentSearchResult> results;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const seqdb::LoadedFragment& frag : frags) {
      results = blast::search_fragment_batch(batch, frag, kernel);
      if (r > 0) continue;
      for (const auto& res : results) {
        out.cells += res.counters.ungapped_cells + res.counters.gapped_cells +
                     res.counters.traceback_cells;
        out.seeds += res.counters.seed_hits;
        out.hsps += res.counters.hsps_found;
      }
    }
  }
  out.wall = seconds_since(t0) / repeats;
  return out;
}

double us_per_call(const KernelRun& r) {
  return r.wall / static_cast<double>(r.calls) * 1e6;
}

void emit_row(const char* type, const char* kernel, const KernelRun& r) {
  std::printf(
      "ROW {\"bench\":\"micro_kernel\",\"type\":\"%s\",\"kernel\":\"%s\","
      "\"nproc\":%u,\"fragments\":%zu,\"wall_s\":%.6f,\"us_per_call\":%.1f,"
      "\"cells\":%llu,\"cells_per_s\":%.0f,\"seeds\":%llu,"
      "\"seeds_per_s\":%.0f,\"hsps\":%llu}\n",
      type, kernel, std::thread::hardware_concurrency(), r.calls, r.wall,
      us_per_call(r), static_cast<unsigned long long>(r.cells),
      static_cast<double>(r.cells) / r.wall,
      static_cast<unsigned long long>(r.seeds),
      static_cast<double>(r.seeds) / r.wall,
      static_cast<unsigned long long>(r.hsps));
}

void add_table_row(util::Table& table, const char* type, const char* kernel,
                   const KernelRun& r, const std::string& speedup) {
  table.add_row(
      {type, kernel, std::to_string(r.calls), util::fixed(r.wall * 1e3, 1),
       util::fixed(us_per_call(r), 1),
       util::fixed(static_cast<double>(r.cells) / r.wall / 1e6, 1),
       util::fixed(static_cast<double>(r.seeds) / r.wall / 1e6, 1),
       std::to_string(r.hsps), speedup});
}

void bench_type(seqdb::SeqType type, std::uint64_t residues,
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

  // Warm-up pass (page in the fragment, size the scratch), then timed runs.
  (void)blast::search_fragment_batch(batch, frag, blast::KernelKind::kFast);
  const auto scalar =
      run_kernel(batch, {&frag, 1}, blast::KernelKind::kScalar, repeats);
  const auto fast =
      run_kernel(batch, {&frag, 1}, blast::KernelKind::kFast, repeats);
  const double speedup = scalar.wall / fast.wall;

  emit_row(name, "scalar", scalar);
  add_table_row(table, name, "scalar", scalar, "1.00x");
  emit_row(name, "fast", fast);
  add_table_row(table, name, "fast", fast, util::fixed(speedup, 2) + "x");
  std::printf(
      "ROW {\"bench\":\"micro_kernel\",\"type\":\"%s\",\"kernel\":\"speedup\","
      "\"nproc\":%u,\"speedup\":%.3f}\n",
      name, std::thread::hardware_concurrency(), speedup);

  if (type != seqdb::SeqType::kProtein) return;
  const auto cut_db = seqdb::mpiformatdb(
      fs, db, "cut", type, "bench",
      static_cast<int>(std::min<std::uint64_t>(
          db.size(),
          std::max<std::uint64_t>(1, stats.total_residues / kCutResidues))));
  std::vector<seqdb::LoadedFragment> cut;
  for (std::size_t i = 0; i < cut_db.fragment_bases.size(); ++i)
    cut.push_back(seqdb::load_volumes(fs, cut_db.fragment_bases[i], type,
                                      cut_db.ranges[i].first));
  const auto cut_fast =
      run_kernel(batch, cut, blast::KernelKind::kFast, repeats);
  emit_row(name, "fast", cut_fast);
  add_table_row(table, name, "fast", cut_fast, "");
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("micro_kernel",
                       "search-kernel throughput: scalar reference vs fast "
                       "path (fragment indexing + batched SWAR extension)");
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
  const auto residues = static_cast<std::uint64_t>(args.get_int("residues"));
  const auto query_bytes =
      static_cast<std::uint64_t>(args.get_int("query-bytes"));
  const auto query_chunk =
      static_cast<std::uint64_t>(args.get_int("query-chunk"));
  const int repeats = args.get_int("repeats");
  const std::string types = args.get("types");

  util::Table table({"Type", "Kernel", "Fragments", "Wall (ms)", "us/call",
                     "Mcells/s", "Mseeds/s", "HSPs", "Speedup"});
  if (types == "both" || types == "protein")
    bench_type(seqdb::SeqType::kProtein, residues, query_bytes, query_chunk,
               repeats, table);
  if (types == "both" || types == "dna")
    bench_type(seqdb::SeqType::kNucleotide, residues, query_bytes, query_chunk,
               repeats, table);
  table.print(std::cout);
  return 0;
}
