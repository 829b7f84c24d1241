#include "mpiblast/mpiblast.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "blast/engine.h"
#include "blast/format.h"
#include "blast/query_set.h"
#include "blast/serialize.h"
#include "driver/channel.h"
#include "driver/master_worker.h"
#include "driver/messages.h"
#include "driver/search_stage.h"
#include "driver/tags.h"
#include "driver/work_queue.h"
#include "mpisim/wire.h"
#include "pario/file.h"
#include "protospec/conform.h"
#include "protospec/spec.h"
#include "util/error.h"

namespace pioblast::mpiblast {

namespace {

constexpr driver::Channel<driver::FetchRequest> kFetchReq{driver::kTagFetchReq};
constexpr driver::Channel<driver::FetchResponse> kFetchResp{
    driver::kTagFetchResp};

class MpiBlastApp final : public driver::MasterWorkerApp {
 public:
  MpiBlastApp(const sim::ClusterConfig& cluster, int nprocs,
              pario::ClusterStorage& storage, const MpiBlastOptions& opts,
              std::shared_ptr<const blast::QuerySet> queries,
              const blast::GlobalDbStats& db_stats)
      : MasterWorkerApp(cluster, nprocs, storage, opts, std::move(queries)),
        opts_(opts),
        db_stats_(db_stats),
        scheduler_(driver::make_scheduler(opts.scheduler)) {}

 private:
  void master(mpisim::Process& p) override;
  void worker(mpisim::Process& p) override;

  const MpiBlastOptions& opts_;
  blast::GlobalDbStats db_stats_;
  std::unique_ptr<driver::Scheduler> scheduler_;
};

void MpiBlastApp::master(mpisim::Process& p) {
  const auto nfragments =
      static_cast<std::uint32_t>(opts_.fragment_bases.size());
  const auto& qset = queries();
  const auto& query_list = qset.queries();
  const auto& contexts = qset.contexts();
  const seqdb::SeqType type = opts_.job.params.type;

  // Fragment scheduler (paper §2.2): by default greedy — assign the next
  // un-searched fragment to whichever worker asks first.
  p.set_phase("search");
  driver::serve_work(p, *scheduler_, nfragments, topology(), {}, &metrics());

  // Serialized result merging and output (paper Figure 2, right).
  p.set_phase("output");
  std::uint64_t out_offset = 0;
  std::uint64_t merged = 0;
  std::uint64_t reported = 0;
  for (std::uint32_t q = 0; q < qset.size(); ++q) {
    auto gathered = p.gather({}, 0);
    // Decode every worker's full local result list for this query.
    struct Candidate {
      blast::Hsp hsp;
      int owner;
      std::uint32_t local_index;
    };
    std::vector<Candidate> candidates;
    std::uint64_t submitted_bytes = 0;
    for (int w = 1; w < nprocs(); ++w) {
      // A crashed worker's gather slot is empty (live workers always send
      // at least the u32 hit count).
      if (gathered[static_cast<std::size_t>(w)].empty()) continue;
      submitted_bytes += gathered[static_cast<std::size_t>(w)].size();
      mpisim::Decoder dec(gathered[static_cast<std::size_t>(w)]);
      const auto count = dec.get<std::uint32_t>();
      for (std::uint32_t i = 0; i < count; ++i) {
        Candidate c;
        c.hsp = blast::decode_hsp(dec);
        c.owner = w;
        c.local_index = i;
        candidates.push_back(std::move(c));
      }
    }
    merged += candidates.size();
    p.compute(p.cost().merge_seconds(candidates.size(), submitted_bytes));
    // Every submitted record is a full alignment that must be threaded
    // through the master's NCBI result structures before screening.
    p.compute(p.cost().hsp_result_seconds(candidates.size()));
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return blast::Hsp::better(a.hsp, b.hsp);
              });
    if (candidates.size() >
        static_cast<std::size_t>(opts_.job.params.hitlist_size)) {
      candidates.resize(static_cast<std::size_t>(opts_.job.params.hitlist_size));
    }
    reported += candidates.size();

    const bool tabular = opts_.job.output_format == blast::OutputFormat::kTabular;
    std::string buffer =
        tabular ? blast::format_tabular_query_header(
                      query_list[q], opts_.job.db_title, candidates.size())
                : blast::format_query_header(query_list[q], opts_.job.db_title,
                                             db_stats_, candidates.size());
    p.compute(p.cost().format_seconds(buffer.size()));
    if (candidates.empty() && !tabular) buffer += blast::format_no_hits();
    const auto query_residues = contexts[q].residues();

    // Per-alignment synchronous fetch of sequence data from the owner. An
    // owner lost mid-loop costs its remaining alignments (the sequence
    // data died with it) but not the job: the fetch fails fast with
    // PeerLostError and the survivors' alignments still go out.
    for (const Candidate& c : candidates) {
      try {
        kFetchReq.send(p, c.owner, driver::FetchRequest{c.local_index});
        const driver::FetchResponse resp = kFetchResp.recv(p, c.owner);
        p.compute(p.cost().fetch_handling_seconds(1));
        const std::string text =
            tabular ? blast::format_tabular_line(c.hsp, query_list[q].id,
                                                 resp.defline)
                    : blast::format_alignment(c.hsp, type, query_residues,
                                              resp.residues, resp.defline,
                                              resp.subject_len, qset.matrix());
        p.compute(p.cost().format_seconds(text.size()));
        buffer += text;
      } catch (const mpisim::PeerLostError&) {
        // Impossible without fault injection; the alignment is dropped.
      }
    }
    // Release the workers from this query's serving loop.
    for (int w = 1; w < nprocs(); ++w)
      kFetchReq.send(p, w, driver::FetchRequest{driver::kEndOfQuery});

    // Serial write of this query's report section.
    pario::timed_write(
        p, shared(), opts_.job.output_path, out_offset,
        std::span(reinterpret_cast<const std::uint8_t*>(buffer.data()),
                  buffer.size()),
        1);
    out_offset += buffer.size();
  }
  metrics().set(driver::kMetricCandidatesMerged, merged);
  metrics().set(driver::kMetricAlignmentsReported, reported);
  metrics().set(driver::kMetricOutputBytes, out_offset);
}

void MpiBlastApp::worker(mpisim::Process& p) {
  const seqdb::SeqType type = opts_.job.params.type;
  driver::SearchStage stage(queries(), &metrics());
  pario::VirtualFS& local = storage().local_for(p.rank());

  p.set_phase("search");
  while (true) {
    const auto assignment = driver::request_work<std::uint32_t>(
        p, [](std::uint32_t task_id, mpisim::Decoder&) { return task_id; });
    if (!assignment) break;
    const std::string& frag_base =
        opts_.fragment_bases[static_cast<std::size_t>(*assignment)];
    const seqdb::VolumeNames names = seqdb::volume_names(frag_base, type);

    // Copy stage: fragment volumes from shared storage to local scratch.
    p.set_phase("copy");
    for (const std::string& file : {names.index, names.sequence, names.header}) {
      pario::timed_copy(p, shared(), file, local, file, nworkers());
    }

    // Search stage. NCBI BLAST maps the volumes into memory, so the
    // input I/O is embedded in the search phase. The reads go through the
    // pario list-I/O entry point so --pario-hints tunes both drivers; a
    // whole-file read is a single contiguous request, so merging/sieving
    // are no-ops and the charge matches the historical timed_read_all.
    p.set_phase("search");
    pario::ListIoStats io_stats;
    for (const std::string& file : {names.index, names.sequence, names.header}) {
      const pario::Region whole{0, local.size(file)};
      (void)pario::list_read(p, local, file, std::span(&whole, 1), opts_.hints,
                             storage().has_local_disks() ? 1 : nworkers(),
                             &io_stats);
    }
    metrics().add(driver::kMetricParioListRequests, io_stats.requests);
    metrics().add(driver::kMetricParioDeviceReads, io_stats.reads_issued);
    metrics().add(driver::kMetricParioBytesWanted, io_stats.bytes_wanted);
    metrics().add(driver::kMetricParioBytesRead, io_stats.bytes_read);
    const std::uint64_t first_seq =
        opts_.fragment_ranges[static_cast<std::size_t>(*assignment)].first;
    stage.add_fragment(seqdb::load_volumes(local, frag_base, type, first_seq));
    stage.search_latest(p);
  }

  // Result submission + fetch serving, one query at a time. Sorting keeps
  // local indices deterministic regardless of fragment arrival order.
  p.set_phase("output");
  stage.sort_hits();
  for (std::uint32_t q = 0; q < queries().size(); ++q) {
    const auto& hits = stage.hits(q);
    mpisim::Encoder enc;
    enc.put(static_cast<std::uint32_t>(hits.size()));
    for (const driver::CachedHit& hit : hits) blast::encode_hsp(enc, hit.hsp);
    p.gather(enc.bytes(), 0);

    // Serve the master's per-alignment sequence-data fetches.
    while (true) {
      const driver::FetchRequest req = kFetchReq.recv(p, 0);
      if (req.end_of_query()) break;
      PIOBLAST_CHECK(req.local_index < hits.size());
      const driver::CachedHit& hit = hits[req.local_index];
      const seqdb::LoadedFragment& frag = stage.fragment(hit.frag_slot);
      const auto subject = frag.sequence(hit.local_id);
      driver::FetchResponse resp;
      resp.defline = std::string(frag.defline(hit.local_id));
      resp.subject_len = subject.size();
      resp.residues.assign(subject.begin(), subject.end());
      p.compute(p.cost().memcpy_seconds(driver::wire_size(resp)));
      kFetchResp.send(p, 0, resp);
    }
  }
}

}  // namespace

blast::DriverResult run_mpiblast(const sim::ClusterConfig& cluster, int nprocs,
                                 pario::ClusterStorage& storage,
                                 const MpiBlastOptions& opts) {
  PIOBLAST_CHECK_MSG(nprocs >= 2, "mpiBLAST needs a master and >= 1 worker");
  PIOBLAST_CHECK_MSG(!opts.fragment_bases.empty(), "no fragments to search");
  PIOBLAST_CHECK(opts.fragment_ranges.size() == opts.fragment_bases.size());

  const blast::GlobalDbStats db_stats{opts.global_index.total_residues,
                                      opts.global_index.num_seqs};

  // Query parsing and context construction are identical on every rank, so
  // they are prepared once and shared read-only across the rank threads
  // (host-side optimization; virtual-time charges are unchanged).
  const auto query_text_raw = storage.shared().read_all(opts.job.query_path);
  auto shared_queries = blast::QuerySet::build(
      std::string(query_text_raw.begin(), query_text_raw.end()),
      opts.job.params, db_stats);
  const auto nqueries = static_cast<int>(shared_queries->size());

  MpiBlastApp app(cluster, nprocs, storage, opts, std::move(shared_queries),
                  db_stats);
  blast::DriverResult result = app.run();
  if (opts.conformance) {
    protospec::SpecParams sp;
    sp.nranks = nprocs;
    sp.tasks = static_cast<int>(opts.fragment_bases.size());
    sp.queries = nqueries;
    sp.fetch_cap = -1;  // per-query fetch count is data-dependent
    sp.fault_tolerant = opts.faults.active();
    result.conformance = protospec::enforce_conformance(
        *protospec::spec_by_name("mpiblast"), sp, app.tracer()->sorted());
  }
  return result;
}

}  // namespace pioblast::mpiblast
