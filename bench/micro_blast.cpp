// Micro-benchmarks of the BLAST engine stages (google-benchmark, real wall
// time): neighborhood-table construction, ungapped and gapped extension,
// and whole fragment searches in both protein and DNA modes, each through
// the code production runs.
#include <benchmark/benchmark.h>

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

void BM_NeighborhoodBuild(benchmark::State& state) {
  const auto& fx = ProteinFixture::get();
  const auto query =
      seqdb::encode_sequence(seqdb::SeqType::kProtein, fx.db[0].sequence);
  for (auto _ : state) {
    const blast::FlatNeighborhood idx(query, fx.matrix, fx.params);
    benchmark::DoNotOptimize(idx.total_entries());
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

void BM_GappedExtension(benchmark::State& state) {
  const auto& fx = ProteinFixture::get();
  const auto q =
      seqdb::encode_sequence(seqdb::SeqType::kProtein, fx.db[1].sequence);
  blast::GappedScratch scratch;
  std::uint64_t cells = 0;
  for (auto _ : state) {
    auto ext = blast::extend_gapped_fast(
        q, q, static_cast<std::uint32_t>(q.size() / 2), q.size() / 2,
        fx.matrix, 11, 1, 38, scratch);
    cells = ext.cells;
    benchmark::DoNotOptimize(ext.score);
  }
  state.counters["dp_cells"] = static_cast<double>(cells);
}
BENCHMARK(BM_GappedExtension);

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

void BM_FormatAlignment(benchmark::State& state) {
  const auto& fx = ProteinFixture::get();
  const auto query =
      seqdb::encode_sequence(seqdb::SeqType::kProtein, fx.db[5].sequence);
  const auto result = blast::search_fragment_batch(
      one_query(blast::QueryContext(0, query, fx.params, fx.matrix, fx.stats)),
      fx.frag)[0];
  if (result.hsps.empty()) {
    state.SkipWithError("no HSPs to format");
    return;
  }
  const auto& hsp = result.hsps.front();
  const auto local = hsp.subject_global_id;
  for (auto _ : state) {
    auto text = blast::format_alignment(
        hsp, seqdb::SeqType::kProtein, query, fx.frag.sequence(local),
        fx.frag.defline(local), fx.frag.sequence(local).size(), fx.matrix);
    benchmark::DoNotOptimize(text.size());
  }
}
BENCHMARK(BM_FormatAlignment);

}  // namespace

BENCHMARK_MAIN();
