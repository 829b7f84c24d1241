// Micro-benchmarks of the BLAST engine stages (google-benchmark, real wall
// time): neighborhood-table construction, ungapped and gapped extension,
// and whole fragment searches in both protein and DNA modes, each through
// the code production runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>

#include "blast/engine.h"
#include "blast/format.h"
#include "pario/vfs.h"
#include "seqdb/generator.h"
#include "workloads.h"

using namespace pioblast;
using blast::ScoringMatrix;
using blast::SearchParams;

namespace {

/// A one-query batch, the kernel's query argument.
blast::PreparedBatch one_query(const blast::QueryContext& ctx) {
  return blast::PreparedBatch({ctx});
}

struct ProteinFixture {
  std::vector<seqdb::FastaRecord> db;
  seqdb::LoadedFragment frag;
  blast::GlobalDbStats stats;
  ScoringMatrix matrix = ScoringMatrix::blosum62();
  SearchParams params = SearchParams::blastp_defaults();

  static const ProteinFixture& get() {
    static const ProteinFixture* f = [] {
      seqdb::GeneratorConfig cfg;
      cfg.target_residues = 256u << 10;
      cfg.seed = 7;
      cfg.family_fraction = 0.5;
      auto* fx = new ProteinFixture{
          seqdb::generate_database(cfg),
          [&cfg] {
            pario::VirtualFS fs;
            auto db2 = seqdb::generate_database(cfg);
            seqdb::format_db(fs, db2, "db", seqdb::SeqType::kProtein, "t");
            return seqdb::load_volumes(fs, "db", seqdb::SeqType::kProtein, 0);
          }(),
          {},
      };
      for (const auto& r : fx->db) fx->stats.total_residues += r.sequence.size();
      fx->stats.num_seqs = fx->db.size();
      return fx;
    }();
    return *f;
  }
};

/// A one-query PreparedBatch: the query context's copy and the blastp
/// word table built from its residues.
void BM_NeighborhoodBuild(benchmark::State& state) {
  const auto& fx = ProteinFixture::get();
  const auto query =
      seqdb::encode_sequence(seqdb::SeqType::kProtein, fx.db[0].sequence);
  const blast::QueryContext ctx(0, query, fx.params, fx.matrix, fx.stats);
  for (auto _ : state) {
    const auto batch = one_query(ctx);
    benchmark::DoNotOptimize(batch.merged()[0].entries.size());
  }
  state.counters["query_len"] = static_cast<double>(query.size());
}
BENCHMARK(BM_NeighborhoodBuild);

void BM_FragmentSearchProtein(benchmark::State& state) {
  const auto& fx = ProteinFixture::get();
  const auto query = seqdb::encode_sequence(
      seqdb::SeqType::kProtein, fx.db[static_cast<std::size_t>(state.range(0))]
                                    .sequence);
  const auto batch = one_query(
      blast::QueryContext(0, query, fx.params, fx.matrix, fx.stats));
  std::uint64_t residues = 0;
  for (auto _ : state) {
    auto results = blast::search_fragment_batch(batch, fx.frag);
    residues = results[0].counters.db_residues_scanned;
    benchmark::DoNotOptimize(results[0].hsps.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(residues) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FragmentSearchProtein)->Arg(0)->Arg(5)->Arg(17);

void BM_UngappedExtension(benchmark::State& state) {
  const auto& fx = ProteinFixture::get();
  const auto q =
      seqdb::encode_sequence(seqdb::SeqType::kProtein, fx.db[1].sequence);
  const blast::SelfScoreProfile self(q, fx.matrix);
  for (auto _ : state) {
    auto ext =
        blast::extend_ungapped_fast(q, q, 10, 10, 3, fx.matrix, 16, self);
    benchmark::DoNotOptimize(ext.score);
  }
}
BENCHMARK(BM_UngappedExtension);

/// One gapped extension's inputs: two members of one generated family,
/// the first derived record of at least 300 residues and the record it was
/// mutated from (substitutions and 1-8 residue indels), so the X-drop band
/// has to follow the shifted diagonals instead of staying on one. The
/// anchor is the parent's midpoint and the child position within 16
/// residues of it that agrees with it best over a 24-residue window.
struct GappedPair {
  std::vector<std::uint8_t> q, s;
  std::uint32_t anchor_q = 0;
  std::uint64_t anchor_s = 0;
  SearchParams params;
  ScoringMatrix matrix;
};

GappedPair family_pair(const std::vector<seqdb::FastaRecord>& db,
                       const SearchParams& params) {
  const auto derived = std::find_if(db.begin(), db.end(), [](const auto& r) {
    return r.description.starts_with("homolog of ") && r.sequence.size() >= 300;
  });
  const auto parent = std::find_if(db.begin(), db.end(), [&](const auto& r) {
    return "homolog of " + r.id == derived->description;
  });
  GappedPair p{seqdb::encode_sequence(params.type, parent->sequence),
               seqdb::encode_sequence(params.type, derived->sequence),
               0,
               0,
               params,
               blast::make_matrix(params)};
  const std::size_t anchor_q = p.q.size() / 2;
  p.anchor_q = static_cast<std::uint32_t>(anchor_q);
  int best_window = -1;
  for (std::size_t c = anchor_q - 16; c <= anchor_q + 16; ++c) {
    int same = 0;
    for (std::size_t k = 0; k < 24 && c + k < p.s.size(); ++k)
      same += p.q[anchor_q - 12 + k] == p.s[c - 12 + k];
    if (same > best_window) {
      best_window = same;
      p.anchor_s = c;
    }
  }
  return p;
}

/// Arg 0: a blastp pair (BLOSUM62, 11/1, X-drop 38) from the protein
/// fixture. Arg 1: a blastn pair (+1/-3, 5/2, X-drop 30) from a generated
/// nucleotide database.
void BM_GappedExtension(benchmark::State& state) {
  static const GappedPair protein =
      family_pair(ProteinFixture::get().db, SearchParams::blastp_defaults());
  static const GappedPair dna = [] {
    seqdb::GeneratorConfig cfg;
    cfg.type = seqdb::SeqType::kNucleotide;
    cfg.target_residues = 256u << 10;
    cfg.seed = 8;
    cfg.family_fraction = 0.5;
    return family_pair(seqdb::generate_database(cfg),
                       SearchParams::blastn_defaults());
  }();
  const GappedPair& p = state.range(0) == 0 ? protein : dna;
  blast::GappedScratch scratch;
  std::uint64_t cells = 0;
  for (auto _ : state) {
    auto ext = blast::extend_gapped_fast(
        p.q, p.s, p.anchor_q, p.anchor_s, p.matrix, p.params.gap_open,
        p.params.gap_extend, p.params.xdrop_gapped, scratch);
    cells = ext.cells;
    benchmark::DoNotOptimize(ext.score);
  }
  state.counters["dp_cells"] = static_cast<double>(cells);
  state.counters["cells_per_s"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kIsIterationInvariantRate);
  // Seconds per 10^9 cells: nanoseconds per cell.
  state.counters["ns_per_cell"] = benchmark::Counter(
      static_cast<double>(cells) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_GappedExtension)->Arg(0)->Arg(1);

void BM_FragmentSearchDna(benchmark::State& state) {
  static const auto* setup = [] {
    seqdb::GeneratorConfig cfg;
    cfg.type = seqdb::SeqType::kNucleotide;
    cfg.target_residues = 512u << 10;
    cfg.seed = 8;
    cfg.family_fraction = 0.5;
    auto db = seqdb::generate_database(cfg);
    pario::VirtualFS fs;
    seqdb::format_db(fs, db, "nt", seqdb::SeqType::kNucleotide, "t");
    auto* pair = new std::pair<std::vector<seqdb::FastaRecord>,
                               seqdb::LoadedFragment>{
        db, seqdb::load_volumes(fs, "nt", seqdb::SeqType::kNucleotide, 0)};
    return pair;
  }();
  blast::GlobalDbStats stats;
  for (const auto& r : setup->first) stats.total_residues += r.sequence.size();
  stats.num_seqs = setup->first.size();
  const auto params = SearchParams::blastn_defaults();
  const auto matrix = blast::make_matrix(params);
  const auto query = seqdb::encode_sequence(seqdb::SeqType::kNucleotide,
                                            setup->first[2].sequence);
  const auto batch =
      one_query(blast::QueryContext(0, query, params, matrix, stats));
  for (auto _ : state) {
    auto results = blast::search_fragment_batch(batch, setup->second);
    benchmark::DoNotOptimize(results[0].hsps.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(stats.total_residues) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FragmentSearchDna);

/// The top self-hit of database sequence 5: BM_FormatAlignment renders it,
/// BM_AlignmentSize only sizes it.
struct TopHit {
  std::vector<std::uint8_t> query;
  blast::Hsp hsp;
};

std::optional<TopHit> top_hit() {
  const auto& fx = ProteinFixture::get();
  TopHit hit;
  hit.query =
      seqdb::encode_sequence(seqdb::SeqType::kProtein, fx.db[5].sequence);
  auto result = blast::search_fragment_batch(
      one_query(
          blast::QueryContext(0, hit.query, fx.params, fx.matrix, fx.stats)),
      fx.frag)[0];
  if (result.hsps.empty()) return std::nullopt;
  hit.hsp = std::move(result.hsps.front());
  return hit;
}

void BM_FormatAlignment(benchmark::State& state) {
  const auto& fx = ProteinFixture::get();
  const auto hit = top_hit();
  if (!hit) {
    state.SkipWithError("no HSPs to format");
    return;
  }
  const auto local = hit->hsp.subject_global_id;
  for (auto _ : state) {
    auto text = blast::format_alignment(
        hit->hsp, seqdb::SeqType::kProtein, hit->query,
        fx.frag.sequence(local), fx.frag.defline(local),
        fx.frag.sequence(local).size(), fx.matrix);
    benchmark::DoNotOptimize(text.size());
  }
}
BENCHMARK(BM_FormatAlignment);

void BM_AlignmentSize(benchmark::State& state) {
  const auto& fx = ProteinFixture::get();
  const auto hit = top_hit();
  if (!hit) {
    state.SkipWithError("no HSPs to size");
    return;
  }
  const auto local = hit->hsp.subject_global_id;
  for (auto _ : state) {
    benchmark::DoNotOptimize(blast::alignment_size(
        hit->hsp, seqdb::SeqType::kProtein, hit->query,
        fx.frag.sequence(local), fx.frag.defline(local),
        fx.frag.sequence(local).size(), fx.matrix));
  }
}
BENCHMARK(BM_AlignmentSize);

}  // namespace

BENCHMARK_MAIN();
