// Micro-benchmark: database formatting and partitioning (google-benchmark,
// real wall time). The §3.1 formatdb cost at paper scale is virtual time:
// `bench/paper sec31`.
#include <benchmark/benchmark.h>

#include "pario/vfs.h"
#include "seqdb/formatdb.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"

using namespace pioblast;

namespace {

const std::vector<seqdb::FastaRecord>& small_db() {
  static const auto* db = [] {
    seqdb::GeneratorConfig cfg;
    cfg.target_residues = 256u << 10;
    cfg.seed = 99;
    return new std::vector<seqdb::FastaRecord>(seqdb::generate_database(cfg));
  }();
  return *db;
}

void BM_FormatDb(benchmark::State& state) {
  const auto& db = small_db();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    pario::VirtualFS fs;
    const auto r = seqdb::format_db(fs, db, "db", seqdb::SeqType::kProtein, "t");
    bytes = r.formatted_bytes;
    benchmark::DoNotOptimize(r.index.num_seqs);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FormatDb);

void BM_Mpiformatdb(benchmark::State& state) {
  const auto& db = small_db();
  const int fragments = static_cast<int>(state.range(0));
  for (auto _ : state) {
    pario::VirtualFS fs;
    const auto r = seqdb::mpiformatdb(fs, db, "db", seqdb::SeqType::kProtein,
                                      "t", fragments);
    benchmark::DoNotOptimize(r.bytes_written);
  }
  state.counters["fragments"] = fragments;
}
BENCHMARK(BM_Mpiformatdb)->Arg(8)->Arg(31)->Arg(61);

void BM_VirtualPartition(benchmark::State& state) {
  const auto& db = small_db();
  pario::VirtualFS fs;
  const auto fmt = seqdb::format_db(fs, db, "db", seqdb::SeqType::kProtein, "t");
  const int fragments = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto ranges = seqdb::virtual_partition(fmt.index, fragments);
    benchmark::DoNotOptimize(ranges.size());
  }
  state.counters["fragments"] = fragments;
}
BENCHMARK(BM_VirtualPartition)->Arg(31)->Arg(167);

void BM_LoadFragmentFromSlices(benchmark::State& state) {
  const auto& db = small_db();
  pario::VirtualFS fs;
  const auto fmt = seqdb::format_db(fs, db, "db", seqdb::SeqType::kProtein, "t");
  const auto names = seqdb::volume_names("db", seqdb::SeqType::kProtein);
  const auto ranges = seqdb::virtual_partition(fmt.index, 8);
  const auto& fr = ranges[3];
  for (auto _ : state) {
    seqdb::DbIndex hdr;
    hdr.type = seqdb::SeqType::kProtein;
    auto frag = seqdb::fragment_from_slices(
        hdr, fr, fs.pread(names.index, fr.pin_seq_off.offset, fr.pin_seq_off.length),
        fs.pread(names.index, fr.pin_hdr_off.offset, fr.pin_hdr_off.length),
        fs.pread(names.sequence, fr.psq.offset, fr.psq.length),
        fs.pread(names.header, fr.phr.offset, fr.phr.length));
    benchmark::DoNotOptimize(frag.num_seqs());
  }
}
BENCHMARK(BM_LoadFragmentFromSlices);

}  // namespace

BENCHMARK_MAIN();
