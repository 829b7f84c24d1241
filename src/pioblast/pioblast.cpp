#include "pioblast/pioblast.h"

#include <algorithm>
#include <limits>
#include <memory>
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
#include "driver/range_reader.h"
#include "driver/search_stage.h"
#include "driver/tags.h"
#include "driver/work_queue.h"
#include "mpisim/wire.h"
#include "pario/file.h"
#include "protospec/conform.h"
#include "protospec/spec.h"
#include "seqdb/partition.h"
#include "util/error.h"

namespace pioblast::pio {

namespace {

constexpr driver::Channel<driver::RangeAssignment> kRanges{driver::kTagRanges};
constexpr driver::Channel<driver::OutputSelection> kSelect{driver::kTagSelect};

class PioBlastApp final : public driver::MasterWorkerApp {
 public:
  PioBlastApp(const sim::ClusterConfig& cluster, int nprocs,
              pario::ClusterStorage& storage, const PioBlastOptions& opts,
              std::shared_ptr<const blast::QuerySet> queries,
              std::vector<seqdb::LoadedFragment> fragments)
      : MasterWorkerApp(cluster, nprocs, storage, opts, std::move(queries),
                        std::move(fragments)),
        opts_(opts),
        scheduler_(driver::make_scheduler(opts.scheduler)),
        dynamic_(opts.scheduler == driver::SchedulerKind::kGreedyDynamic) {}

 private:
  // The protocol interleaves master and worker steps around shared
  // collectives, so the whole thing is one body() — keeping the collective
  // call order textually in one place.
  void body(mpisim::Process& p) override;

  void output_stage(mpisim::Process& p, driver::SearchStage& stage,
                    const blast::GlobalDbStats& db_stats);

  const PioBlastOptions& opts_;
  std::unique_ptr<driver::Scheduler> scheduler_;
  bool dynamic_;
};

void PioBlastApp::body(mpisim::Process& p) {
  const seqdb::SeqType type = opts_.job.params.type;
  const seqdb::VolumeNames names = seqdb::volume_names(opts_.job.db_base, type);

  // ---- dynamic partitioning (still in the init "other" phase) ------------
  blast::GlobalDbStats db_stats;
  std::vector<seqdb::FragmentRange> my_ranges;   // static assignment
  std::vector<seqdb::FragmentRange> all_ranges;  // master, greedy mode
  std::uint32_t rounds = 0;  // collective-input rounds (static mode)

  if (p.is_root()) {
    // The master reads the global index and computes the per-worker file
    // ranges ("virtual fragments") — paper §3.1.
    const auto pin = pario::timed_read_all(p, shared(), names.index, 1);
    const seqdb::DbIndex index = seqdb::DbIndex::deserialize(pin);
    db_stats = {index.total_residues, index.num_seqs};
    auto ranges =
        seqdb::virtual_partition(index, opts_.job.fragments_for(nworkers()));
    const auto total = static_cast<std::uint32_t>(ranges.size());

    if (dynamic_) {
      // §5 extension: ranges are handed out greedily during the run.
      all_ranges = std::move(ranges);
    } else {
      // Static assignment of virtual fragments to workers, planned by the
      // configured scheduler (round-robin or speed-weighted).
      const auto plans = scheduler_->plan(total, topology());
      for (const auto& plan : plans)
        rounds = std::max(rounds, static_cast<std::uint32_t>(plan.size()));
      for (int w = 0; w < nworkers(); ++w) {
        driver::RangeAssignment assignment;
        assignment.total_fragments = total;
        assignment.rounds = rounds;
        for (const std::uint32_t t : plans[static_cast<std::size_t>(w)])
          assignment.ranges.push_back(ranges[t]);
        kRanges.send(p, w + 1, assignment);
      }
      metrics().add(driver::kMetricTasksAssigned, total);
    }
  } else if (!dynamic_) {
    driver::RangeAssignment assignment = kRanges.recv(p, 0);
    my_ranges = std::move(assignment.ranges);
    rounds = assignment.rounds;
  }

  {
    // Database statistics ride the broadcast channel.
    std::vector<std::uint8_t> stats_buf;
    if (p.is_root()) {
      mpisim::Encoder enc;
      enc.put(db_stats.total_residues).put(db_stats.num_seqs);
      stats_buf = enc.take();
    }
    p.bcast(stats_buf, 0);
    mpisim::Decoder dec(stats_buf);
    db_stats.total_residues = dec.get<std::uint64_t>();
    db_stats.num_seqs = dec.get<std::uint64_t>();
  }

  // ---- parallel input stage ("input") ------------------------------------
  p.set_phase("input");
  driver::SearchStage stage(queries(), memo(), &metrics());
  // A header-only index view is enough to rebuild fragments from slices.
  seqdb::DbIndex header_view;
  header_view.type = type;

  // Reads one virtual fragment's byte ranges with individual MPI-IO
  // reads from every shared database file (paper §4.1 / §5), all workers
  // in parallel. The v2 list-I/O path merges and sieves the per-file
  // request lists; with the naive hints it is the historical one read per
  // range.
  auto read_range = [&](const seqdb::FragmentRange& range) {
    auto frags = driver::read_fragment_ranges(p, shared(), names, header_view,
                                              std::span(&range, 1), opts_.hints,
                                              nworkers(), &metrics());
    return std::move(frags.front());
  };

  if (dynamic_) {
    if (p.is_root()) {
      // Greedy range scheduler: identical protocol shape to mpiBLAST's
      // fragment scheduler, but handing out *file ranges*, not files.
      p.set_phase("search");
      driver::serve_work(
          p, *scheduler_, static_cast<std::uint32_t>(all_ranges.size()),
          topology(),
          [&](mpisim::Encoder& enc, std::uint32_t task) {
            enc.put_obj(all_ranges[task]);
          },
          &metrics());
    } else {
      // A worker waits for work in "search", as mpiBLAST's does (a fault
      // plan can park it there until the search ends); reading is input.
      p.set_phase("search");
      while (true) {
        const auto range = driver::request_work<seqdb::FragmentRange>(
            p, [](std::uint32_t, mpisim::Decoder& dec) {
              return dec.get_obj<seqdb::FragmentRange>();
            });
        if (!range) break;
        p.set_phase("input");
        stage.add_fragment(read_range(*range));
        p.set_phase("search");
        stage.search_latest(p);
      }
    }
  } else if (opts_.collective_input) {
    // Collective-input extension: all ranks participate in the same
    // number of collective rounds (workers with fewer fragments — and
    // the master — join with empty views). The round count travels in the
    // RangeAssignment: it is the maximum per-worker range count, which for
    // uneven (e.g. speed-weighted) plans can exceed ceil(total/nworkers).
    for (std::uint32_t r = 0; r < rounds; ++r) {
      const bool have = !p.is_root() && r < my_ranges.size();
      const seqdb::FragmentRange* range = have ? &my_ranges[r] : nullptr;
      auto read_part = [&](const std::string& file, const pario::Region& reg) {
        return pario::collective_read(
            p, shared(), file,
            have ? pario::FileView(std::vector<pario::Region>{reg})
                 : pario::FileView{},
            opts_.hints.collective());
      };
      const pario::Region none{};
      auto pin_seq = read_part(names.index, have ? range->pin_seq_off : none);
      auto pin_hdr = read_part(names.index, have ? range->pin_hdr_off : none);
      auto psq = read_part(names.sequence, have ? range->psq : none);
      auto phr = read_part(names.header, have ? range->phr : none);
      if (have) {
        stage.add_fragment(seqdb::fragment_from_slices(
            header_view, *range, std::move(pin_seq), std::move(pin_hdr),
            std::move(psq), std::move(phr)));
      }
    }
  } else if (!p.is_root()) {
    // Static assignment: load every assigned range up front with one
    // request list per volume file, so ranges that are adjacent in the
    // volumes coalesce into single device reads. In greedy mode input and
    // search interleave per assignment above instead.
    for (auto& frag : driver::read_fragment_ranges(
             p, shared(), names, header_view, my_ranges, opts_.hints,
             nworkers(), &metrics()))
      stage.add_fragment(std::move(frag));
  }

  // ---- search stage ("search"): pure in-memory compute --------------------
  p.set_phase("search");
  if (!p.is_root() && !dynamic_) {
    for (std::size_t slot = 0; slot < stage.fragment_count(); ++slot)
      stage.search_slot(p, slot);
  }
  if (!p.is_root()) stage.sort_hits();

  // All ranks (including the otherwise idle master) attribute the wait
  // for the slowest searcher to the search phase, as the paper's
  // instrumentation does.
  p.barrier();

  output_stage(p, stage, db_stats);
}

void PioBlastApp::output_stage(mpisim::Process& p, driver::SearchStage& stage,
                               const blast::GlobalDbStats& db_stats) {
  const seqdb::SeqType type = opts_.job.params.type;
  const auto& qset = queries();
  const auto& query_list = qset.queries();
  const auto& contexts = qset.contexts();
  const std::uint32_t nqueries = qset.size();

  // ---- result merging + parallel output ("output") ------------------------
  p.set_phase("output");
  const int hitlist = opts_.job.params.hitlist_size;
  std::uint64_t out_offset = 0;
  std::uint64_t merged = 0;
  std::uint64_t reported = 0;
  // Accumulated (offset, data) regions for the next collective write.
  std::vector<pario::Region> my_regions;
  std::vector<std::uint8_t> my_data;

  auto add_region = [&](std::uint64_t offset, std::string_view text) {
    my_regions.push_back({offset, text.size()});
    my_data.insert(my_data.end(), text.begin(), text.end());
  };

  // A cached hit's output block: its alignment panels, or one tabular line.
  const bool tabular = opts_.job.output_format == blast::OutputFormat::kTabular;
  auto render = [&](std::uint32_t q, const driver::CachedHit& hit) {
    const seqdb::LoadedFragment& frag = stage.fragment(hit.frag_slot);
    return tabular ? blast::format_tabular_line(hit.hsp, query_list[q].id,
                                                frag.defline(hit.local_id))
                   : blast::format_alignment(
                         hit.hsp, type, contexts[q].residues(),
                         frag.sequence(hit.local_id),
                         frag.defline(hit.local_id),
                         frag.sequence(hit.local_id).size(), qset.matrix());
  };
  auto block_size = [&](std::uint32_t q,
                        const driver::CachedHit& hit) -> std::uint64_t {
    if (tabular) return render(q, hit).size();
    const seqdb::LoadedFragment& frag = stage.fragment(hit.frag_slot);
    return blast::alignment_size(hit.hsp, type, contexts[q].residues(),
                                 frag.sequence(hit.local_id),
                                 frag.defline(hit.local_id),
                                 frag.sequence(hit.local_id).size(),
                                 qset.matrix());
  };

  // §5 extension: query batching. Queries are merged and flushed in
  // batches of `query_batch` (0 = everything at once), bounding the
  // cached-output memory footprint — "adaptive approaches, such as query
  // batching ... that adjust to the amount of available memory".
  const std::uint32_t batch =
      opts_.query_batch > 0 ? opts_.query_batch : std::max(nqueries, 1u);

  for (std::uint32_t batch_start = 0; batch_start < nqueries;
       batch_start += batch) {
    const std::uint32_t batch_end = std::min(nqueries, batch_start + batch);

    // Workers format this batch's cached candidates into memory buffers
    // — the "modified NCBI BLAST output routine that redirects formatted
    // result data from file output to memory buffers" (§3.2). This is
    // the bulk of output preparation and it runs in parallel. Every block
    // is charged at its formatted size, but on the host a worker only
    // sizes it here and renders it once the master selects it below.
    if (!p.is_root()) {
      for (std::uint32_t q = batch_start; q < batch_end; ++q) {
        for (driver::CachedHit& hit : stage.hits(q)) {
          hit.output_size = block_size(q, hit);
          p.compute(p.cost().format_seconds(hit.output_size));
        }
      }
    }

    for (std::uint32_t q = batch_start; q < batch_end; ++q) {
      // §5 extension: agree on a global score threshold before submitting.
      std::int32_t threshold = std::numeric_limits<std::int32_t>::min();
      if (opts_.early_score_broadcast) {
        // An empty hit list has no k-th score: it contributes no threshold.
        std::int32_t local_kth = std::numeric_limits<std::int32_t>::min();
        if (!p.is_root() && hitlist > 0 &&
            stage.hits(q).size() >= static_cast<std::size_t>(hitlist)) {
          local_kth =
              stage.hits(q)[static_cast<std::size_t>(hitlist) - 1].hsp.score;
        }
        mpisim::Encoder enc;
        enc.put(local_kth);
        auto gathered = p.gather(enc.bytes(), 0);
        std::vector<std::uint8_t> tbuf;
        if (p.is_root()) {
          std::int32_t best = std::numeric_limits<std::int32_t>::min();
          for (int w = 1; w < nprocs(); ++w) {
            // A crashed worker's gather slot is empty: no contribution.
            if (gathered[static_cast<std::size_t>(w)].empty()) continue;
            mpisim::Decoder dec(gathered[static_cast<std::size_t>(w)]);
            best = std::max(best, dec.get<std::int32_t>());
          }
          mpisim::Encoder tenc;
          tenc.put(best);
          tbuf = tenc.take();
        }
        p.bcast(tbuf, 0);
        mpisim::Decoder dec(tbuf);
        threshold = dec.get<std::int32_t>();
      }

      // Submit metadata-only candidate records.
      mpisim::Encoder enc;
      std::uint32_t submitted = 0;
      mpisim::Encoder body;
      if (!p.is_root()) {
        const auto& hits = stage.hits(q);
        for (std::uint32_t i = 0; i < hits.size(); ++i) {
          const driver::CachedHit& hit = hits[i];
          if (opts_.early_score_broadcast && hit.hsp.score < threshold)
            continue;
          blast::CandidateMeta meta;
          meta.query_id = q;
          meta.local_index = i;
          meta.subject_global_id = hit.hsp.subject_global_id;
          meta.score = hit.hsp.score;
          meta.owner = p.rank();
          meta.evalue = hit.hsp.evalue;
          meta.output_size = hit.output_size;
          meta.qstart = hit.hsp.qstart;
          meta.sstart32 = static_cast<std::uint32_t>(hit.hsp.sstart);
          body.put_obj(meta);
          ++submitted;
        }
      }
      enc.put(submitted);
      const auto& body_bytes = body.bytes();
      enc.put_bytes(std::span(body_bytes.data(), body_bytes.size()));
      auto gathered = p.gather(enc.bytes(), 0);

      if (p.is_root()) {
        std::vector<blast::CandidateMeta> candidates;
        std::uint64_t submitted_bytes = 0;
        for (int w = 1; w < nprocs(); ++w) {
          // A crashed worker's gather slot is empty (live workers always
          // send at least the u32 submission count).
          if (gathered[static_cast<std::size_t>(w)].empty()) continue;
          submitted_bytes += gathered[static_cast<std::size_t>(w)].size();
          mpisim::Decoder dec(gathered[static_cast<std::size_t>(w)]);
          const auto count = dec.get<std::uint32_t>();
          const auto raw = dec.get_bytes();
          mpisim::Decoder body_dec(raw);
          for (std::uint32_t i = 0; i < count; ++i)
            candidates.push_back(body_dec.get_obj<blast::CandidateMeta>());
        }
        merged += candidates.size();
        p.compute(p.cost().merge_seconds(candidates.size(), submitted_bytes));
        std::sort(candidates.begin(), candidates.end(),
                  blast::CandidateMeta::better);
        if (candidates.size() > static_cast<std::size_t>(hitlist))
          candidates.resize(static_cast<std::size_t>(hitlist));
        reported += candidates.size();

        // Header + offsets: the master knows every output size up front.
        std::string header =
            tabular ? blast::format_tabular_query_header(
                          query_list[q], opts_.job.db_title, candidates.size())
                    : blast::format_query_header(query_list[q],
                                                 opts_.job.db_title, db_stats,
                                                 candidates.size());
        p.compute(p.cost().format_seconds(header.size()));
        if (candidates.empty() && !tabular) header += blast::format_no_hits();
        const std::uint64_t header_offset = out_offset;
        std::uint64_t cursor = out_offset + header.size();
        add_region(header_offset, header);

        // Tell each owner which cached buffers to write and where.
        std::vector<driver::OutputSelection> selections(
            static_cast<std::size_t>(nprocs()));
        for (const auto& c : candidates) {
          selections[static_cast<std::size_t>(c.owner)].slots.push_back(
              {c.local_index, cursor});
          cursor += c.output_size;
        }
        for (int w = 1; w < nprocs(); ++w)
          kSelect.send(p, w, selections[static_cast<std::size_t>(w)]);
        out_offset = cursor;
      } else {
        const driver::OutputSelection selection = kSelect.recv(p, 0);
        for (const auto& slot : selection.slots) {
          PIOBLAST_CHECK(slot.local_index < stage.hits(q).size());
          const driver::CachedHit& hit = stage.hits(q)[slot.local_index];
          const std::string text = render(q, hit);
          PIOBLAST_CHECK(text.size() == hit.output_size);
          add_region(slot.offset, text);
          p.compute(p.cost().memcpy_seconds(text.size()));
        }
      }
    }  // queries in batch

    // One collective write flushes this batch's cached buffers into the
    // shared output file (paper Figure 2, left). Regions were
    // accumulated in offset order (offsets grow monotonically through
    // the merge loop); the FileView constructor asserts that invariant.
    pario::FileView view(my_regions);
    pario::collective_write(p, shared(), opts_.job.output_path, view, my_data,
                            opts_.hints.collective());
    my_regions.clear();
    my_data.clear();
  }  // batches

  if (p.is_root()) {
    metrics().set(driver::kMetricCandidatesMerged, merged);
    metrics().set(driver::kMetricAlignmentsReported, reported);
    metrics().set(driver::kMetricOutputBytes, out_offset);
  }
}

}  // namespace

blast::DriverResult run_pioblast(const sim::ClusterConfig& cluster, int nprocs,
                                 pario::ClusterStorage& storage,
                                 const PioBlastOptions& opts) {
  PIOBLAST_CHECK_MSG(nprocs >= 2, "pioBLAST needs a master and >= 1 worker");
  const seqdb::SeqType type = opts.job.params.type;
  const seqdb::VolumeNames names = seqdb::volume_names(opts.job.db_base, type);

  const bool dynamic = opts.scheduler == driver::SchedulerKind::kGreedyDynamic;
  PIOBLAST_CHECK_MSG(
      !(dynamic && opts.collective_input),
      "dynamic scheduling is incompatible with collective input (assignment "
      "order is data-dependent)");

  // Host-side optimizations; the in-run query broadcast, index and range
  // reads still charge virtual time as before. The query contexts are
  // built once and shared read-only, and the search memo gets the virtual
  // fragments the master will derive, read from shared storage the way the
  // workers read them.
  const pario::VirtualFS& fs = storage.shared();
  const auto host_index = seqdb::DbIndex::deserialize(fs.read_all(names.index));
  const blast::GlobalDbStats host_stats{host_index.total_residues,
                                        host_index.num_seqs};
  const auto query_text_raw = fs.read_all(opts.job.query_path);
  auto shared_queries = blast::QuerySet::build(
      std::string(query_text_raw.begin(), query_text_raw.end()),
      opts.job.params, host_stats);
  const auto nqueries = static_cast<int>(shared_queries->size());
  const int nfragments = opts.job.fragments_for(nprocs - 1);
  seqdb::DbIndex header_view;
  header_view.type = type;
  auto slice = [&](const std::string& file, const pario::Region& region) {
    return fs.pread(file, region.offset, region.length);
  };
  std::vector<seqdb::LoadedFragment> fragments;
  for (const seqdb::FragmentRange& r :
       seqdb::virtual_partition(host_index, nfragments))
    fragments.push_back(seqdb::fragment_from_slices(
        header_view, r, slice(names.index, r.pin_seq_off),
        slice(names.index, r.pin_hdr_off), slice(names.sequence, r.psq),
        slice(names.header, r.phr)));

  PioBlastApp app(cluster, nprocs, storage, opts, std::move(shared_queries),
                  std::move(fragments));
  blast::DriverResult result = app.run();
  if (opts.conformance) {
    protospec::SpecParams sp;
    sp.nranks = nprocs;
    sp.tasks = nfragments;
    sp.queries = nqueries;
    sp.batch = opts.query_batch > 0 ? static_cast<int>(opts.query_batch)
                                    : nqueries;
    sp.fault_tolerant = opts.faults.active();
    sp.dynamic = dynamic;
    sp.early_score = opts.early_score_broadcast;
    result.conformance = protospec::enforce_conformance(
        *protospec::spec_by_name("pioblast"), sp, app.tracer()->sorted());
  }
  return result;
}

}  // namespace pioblast::pio
