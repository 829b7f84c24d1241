// The search kernel: batched rebuild of the scalar per-query search loop
// that the tests keep as their reference oracle (tests/support/).
//
// Four structural changes over the scalar loop, none of which alter any
// search decision (the differential kernel tests assert bit-identical HSP
// lists and counters):
//
//   1. The fragment is scanned ONCE per batch: FragmentIndex materializes
//      the packed word code at every subject position, so each of the Q
//      queries probes precomputed codes instead of re-packing the subject
//      (the scalar loop pays that packing Q times). The query side is
//      prepared once per query set instead: PreparedBatch, constructed
//      below, merges the blastp neighborhoods (BatchNeighborhood).
//   2. Word probes go through FlatNeighborhood — a contiguous
//      offset-compacted bucket table — instead of a vector-of-vectors
//      (protein) / hash map (nucleotide).
//   3. Extensions run through extend_ungapped_fast (SWAR 8-residue skips)
//      and extend_gapped_fast (reusable DP scratch + traceback arena).
//   4. A fragment of at least two grains (kSplitGrainResidues) is split
//      into chunks of consecutive subjects that run on util::parallel_for;
//      the merge reassembles exactly the one-chunk result (scan_split).
//
// The per-(query, subject) control flow below is a line-for-line mirror of
// the oracle's loop: same counter accounting, same two-hit rule, same
// coverage and envelope skips, same cutoffs and culling. The oracle is
// only a reference, but the differential tests hold the two to identical
// output, so a change to a search decision here must be made in the
// oracle too.
#include <algorithm>
#include <iterator>

#include "blast/engine.h"
#include "blast/engine_detail.h"
#include "blast/fragment_index.h"
#include "util/error.h"
#include "util/fork_join.h"

namespace pioblast::blast {

namespace {

/// Per-diagonal two-hit state: one 8-byte entry per diagonal, so each
/// cache line holds 8 diagonals instead of the oracle's epoch-stamped
/// table's 2. There is no epoch stamp: the table is kept all-{-1,-1} between subjects by
/// re-walking the (short) seed list after processing and clearing exactly
/// the entries it touched — those lines are still hot, while stamping
/// would cost a compare and two selects on every seed. Positions are
/// stored as int32 (the batch driver checks subject lengths fit; query
/// lengths are uint32 already).
struct FastDiags {
  struct Entry {
    std::int32_t last_seed = -1;
    std::int32_t covered = -1;
  };
  /// All entries read {-1,-1} (= never touched) outside process_seeds.
  std::vector<Entry> entries;

  void ensure(std::size_t qlen, std::size_t slen) {
    const std::size_t need = qlen + slen + 1;
    if (entries.size() < need) entries.resize(need);  // value-init = {-1,-1}
  }
};

/// Per-query scan state, persistent across subjects (reusable vectors,
/// exactly like the scalar loop's locals). The diagonal table is NOT per
/// query: process_seeds leaves it all-{-1,-1}, so one table serves every
/// (query, subject) pair — see scan_protein.
struct QueryState {
  std::vector<std::uint64_t> seeds;  ///< (spos << 32) | qpos, one subject
  std::vector<Hsp> subject_hsps;
  std::vector<detail::Envelope> explored;
};

/// Everything the (rare) trigger path needs. Kept out of the seed loop —
/// see run_trigger.
struct TriggerCtx {
  const QueryContext& query;
  std::span<const std::uint8_t> s;
  std::uint64_t subject_global_id;
  QueryState& st;
  GappedScratch& scratch;
  FragmentSearchResult& result;
};

/// Extension path for one triggering seed: ungapped X-drop, then (past the
/// gap trigger) the banded gapped pass, scoring, and HSP construction.
/// Deliberately noinline: only a few percent of seeds trigger, and keeping
/// this out of line keeps the seed-processing loop's code small enough to
/// schedule tightly. Mirrors the scalar loop's trigger block statement for
/// statement.
[[gnu::noinline]] void run_trigger(TriggerCtx& ctx, std::uint32_t qpos,
                                   std::uint64_t spos,
                                   FastDiags::Entry& entry) {
  const QueryContext& query = ctx.query;
  const SearchParams& params = query.params();
  const ScoringMatrix& matrix = query.matrix();
  const std::span<const std::uint8_t> q = query.residues();
  const std::span<const std::uint8_t> s = ctx.s;
  const int w = params.word_size;
  FragmentSearchResult& result = ctx.result;
  QueryState& st = ctx.st;

  ++result.counters.two_hit_triggers;
  const UngappedExtension ung = extend_ungapped_fast(
      q, s, qpos, spos, w, matrix, params.xdrop_ungapped,
      query.self_profile());
  result.counters.ungapped_cells += ung.cells;
  entry.covered = std::max(
      entry.covered,
      static_cast<std::int32_t>(static_cast<std::int64_t>(ung.send) - w));
  if (ung.score < params.gap_trigger) return;

  // Envelope skip: seeds whose ungapped segment lies inside an already
  // explored gapped region would re-derive the same alignment.
  for (const detail::Envelope& env : st.explored) {
    if (ung.qstart >= env.qstart && ung.qend <= env.qend &&
        ung.sstart >= env.sstart && ung.send <= env.send) {
      return;
    }
  }

  // Anchor the gapped pass at the midpoint of the ungapped segment.
  const std::uint32_t half = (ung.qend - ung.qstart) / 2;
  const std::uint32_t anchor_q = ung.qstart + half;
  const std::uint64_t anchor_s = ung.sstart + half;
  GappedExtension gap_ext = extend_gapped_fast(
      q, s, anchor_q, anchor_s, matrix, params.gap_open, params.gap_extend,
      params.xdrop_gapped, ctx.scratch);
  result.counters.gapped_cells += gap_ext.cells;
  result.counters.traceback_cells += gap_ext.ops.size();
  entry.covered = std::max(
      entry.covered,
      static_cast<std::int32_t>(static_cast<std::int64_t>(gap_ext.send) - w));
  st.explored.push_back(
      {gap_ext.qstart, gap_ext.qend, gap_ext.sstart, gap_ext.send});
  if (gap_ext.score < query.cutoff_score()) return;

  Hsp hsp;
  hsp.query_id = query.query_id();
  hsp.subject_global_id = ctx.subject_global_id;
  hsp.qstart = gap_ext.qstart;
  hsp.qend = gap_ext.qend;
  hsp.sstart = gap_ext.sstart;
  hsp.send = gap_ext.send;
  hsp.score = gap_ext.score;
  hsp.ops = std::move(gap_ext.ops);
  const KarlinParams& kp = matrix.gapped();
  hsp.bits = bit_score(kp, hsp.score);
  hsp.evalue =
      evalue(kp, hsp.score, q.size(), query.db(), query.length_adjust());
  if (hsp.evalue > params.evalue_cutoff) return;
  detail::annotate_alignment(hsp, q, s, matrix);
  st.subject_hsps.push_back(std::move(hsp));
}

/// Phase 2 of the subject scan: walk the expanded seed buffer and apply the
/// two-hit / coverage automaton per diagonal. Branchless: the scalar loop's
/// per-seed control flow (first-touch / covered skip / window reset /
/// overlap skip / trigger) is a chain of data-dependent branches that
/// mispredict on essentially random diagonal state; here every outcome is
/// computed with conditional moves and one unconditional 4-byte store,
/// leaving the rare trigger as the only real branch. The truth table
/// matches the scalar loop case for case:
///   fresh entry    -> prev = cov = -1 (first touch)
///   spos <= cov    -> skip, no state change
///   prev<0 | gap>W -> record seed, no trigger
///   gap < w        -> overlap: keep older seed, no trigger
///   else           -> record seed, trigger extension
/// After the walk, a second pass over the same seed list resets every
/// touched entry to {-1,-1}, restoring the table invariant for the next
/// subject (the lines are still in cache, so this is far cheaper than
/// epoch-stamping each seed).
template <bool kTwoHit>
void process_seeds(TriggerCtx& ctx, FastDiags& table, std::size_t nseeds,
                   std::size_t qlen, int w, int window) {
  QueryState& st = ctx.st;
  const std::uint64_t* const sp = st.seeds.data();
  FastDiags::Entry* const diags = table.entries.data();
  for (std::size_t i = 0; i < nseeds; ++i) {
    const std::uint64_t pk = sp[i];
    const std::uint32_t spos = static_cast<std::uint32_t>(pk >> 32);
    const std::uint32_t qpos = static_cast<std::uint32_t>(pk);
    const std::int32_t spos32 = static_cast<std::int32_t>(spos);
    FastDiags::Entry& entry = diags[static_cast<std::size_t>(spos) + qlen - qpos];
    const std::int32_t prev = entry.last_seed;
    const std::int32_t cov = entry.covered;
    const bool cov_skip = spos32 <= cov;
    const std::int32_t gap = spos32 - prev;
    const bool reset = (prev < 0) | (gap > window);
    const bool trigger =
        kTwoHit ? ((!cov_skip) & (!reset) & (gap >= w)) : !cov_skip;
    const bool record = (!cov_skip) & (reset | trigger);
    entry.last_seed = record ? spos32 : prev;
    if (trigger) [[unlikely]]
      run_trigger(ctx, qpos, spos, entry);
  }
  for (std::size_t i = 0; i < nseeds; ++i) {
    const std::uint64_t pk = sp[i];
    const std::uint32_t spos = static_cast<std::uint32_t>(pk >> 32);
    const std::uint32_t qpos = static_cast<std::uint32_t>(pk);
    diags[static_cast<std::size_t>(spos) + qlen - qpos] = FastDiags::Entry{};
  }
}

/// Containment culling within one subject: keep an HSP only if it is not
/// enveloped by a better one, then flush survivors to the fragment result.
void cull_and_flush(QueryState& st, FragmentSearchResult& result) {
  std::sort(st.subject_hsps.begin(), st.subject_hsps.end(), Hsp::better);
  std::vector<Hsp> kept;
  for (Hsp& cand : st.subject_hsps) {
    bool dominated = false;
    for (const Hsp& better_hsp : kept) {
      if (detail::contained_in(cand, better_hsp)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(std::move(cand));
  }
  for (Hsp& h : kept) result.hsps.push_back(std::move(h));
}

/// One (query, subject) scan for the nucleotide path: expand this query's
/// hash-probe hits into the seed buffer, then run the diagonal automaton.
void scan_subject_dna(const QueryContext& query,
                      std::span<const std::uint8_t> s,
                      std::uint64_t subject_global_id,
                      std::span<const std::uint64_t> codes64, QueryState& st,
                      FastDiags& diags, GappedScratch& scratch,
                      FragmentSearchResult& result) {
  const SearchParams& params = query.params();
  const std::size_t qlen = query.residues().size();
  const int w = params.word_size;
  const bool two_hit = params.two_hit_window > 0;
  const FlatNeighborhood& flat = query.flat_index();

  diags.ensure(qlen, s.size());
  st.subject_hsps.clear();
  st.explored.clear();

  const std::size_t nwords = s.size() - static_cast<std::size_t>(w) + 1;
  if (st.seeds.size() < nwords) st.seeds.resize(nwords);
  std::uint64_t* bp = st.seeds.data();
  std::size_t cur = 0;
  for (std::size_t spos = 0; spos < nwords; ++spos) {
    const std::uint64_t code = codes64[spos];
    if (code == FragmentIndex::kInvalidWord) continue;  // scalar: word has N
    const std::span<const std::uint32_t> hits = flat.neighbors_packed(code);
    if (hits.empty()) continue;
    if (cur + hits.size() > st.seeds.size()) [[unlikely]] {
      st.seeds.resize(std::max(st.seeds.size() * 2, cur + hits.size()));
      bp = st.seeds.data();
    }
    const std::uint64_t hi = static_cast<std::uint64_t>(spos) << 32;
    for (const std::uint32_t qpos : hits) bp[cur++] = hi | qpos;
  }
  result.counters.seed_hits += cur;  // == the scalar per-seed ++

  TriggerCtx ctx{query, s, subject_global_id, st, scratch, result};
  if (two_hit) {
    process_seeds<true>(ctx, diags, cur, qlen, w, params.two_hit_window);
  } else {
    process_seeds<false>(ctx, diags, cur, qlen, w, params.two_hit_window);
  }
  cull_and_flush(st, result);
}

/// Nucleotide scan of subjects [lo, hi) into `results` (index-aligned with
/// `queries`). Query-outer keeps each query's probe table cache-hot across
/// the subjects (the precomputed codes stream sequentially, so re-reading
/// them per query is cheap; seeds are sparse).
void scan_dna(std::span<const QueryContext> queries,
              const seqdb::LoadedFragment& fragment, const FragmentIndex& index,
              std::uint64_t lo, std::uint64_t hi,
              std::span<FragmentSearchResult> results) {
  const std::size_t w = static_cast<std::size_t>(queries[0].params().word_size);
  QueryState state;
  FastDiags diags;
  GappedScratch scratch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // A query shorter than the word size produces an empty result with
    // zero counters in the scalar loop; mirror that exactly.
    if (queries[i].residues().size() < w) continue;
    for (std::uint64_t local = lo; local < hi; ++local) {
      const std::span<const std::uint8_t> s = fragment.sequence(local);
      results[i].counters.db_residues_scanned += s.size();
      if (s.size() < w) continue;
      // FastDiags stores positions as int32; subject lengths outside that
      // range would need the scalar loop's 64-bit table.
      PIOBLAST_CHECK_MSG(s.size() < (1ull << 31),
                         "fast kernel: subject exceeds int32 position range");
      scan_subject_dna(queries[i], s, fragment.global_id(local),
                       index.codes64(local), state, diags, scratch,
                       results[i]);
    }
  }
}

/// Protein scan of subjects [lo, hi) into `results`: subject-outer with a
/// merged batch neighborhood. Each subject position is probed ONCE for the
/// whole batch; the bucket scatters (spos, qpos) seeds into per-query
/// buffers which are then run through the diagonal automaton query by
/// query. Bucket entries are query-id-major with ascending positions, so
/// every query sees exactly the seed sequence its own per-query scan would
/// produce.
void scan_protein(std::span<const QueryContext> queries,
                  const BatchNeighborhood& batch,
                  const seqdb::LoadedFragment& fragment,
                  const FragmentIndex& index, std::uint64_t lo,
                  std::uint64_t hi, std::span<FragmentSearchResult> results) {
  const SearchParams& params = queries[0].params();
  const std::size_t w = static_cast<std::size_t>(params.word_size);
  const std::uint32_t* const offs = batch.offsets.data();
  const std::uint32_t* const ent = batch.entries.data();
  const bool two_hit = params.two_hit_window > 0;

  std::vector<QueryState> states(queries.size());
  // Cached per-query buffer pointers so the scatter loop avoids chasing
  // vector internals per seed; refreshed when a buffer grows.
  std::vector<std::uint64_t*> bufs(queries.size());
  std::vector<std::uint32_t> caps(queries.size(), 0);
  std::vector<std::uint32_t> cur(queries.size());
  GappedScratch scratch;
  // ONE diagonal table for the whole batch: process_seeds restores it to
  // all-{-1,-1} after each (query, subject) pair, so sharing it is safe
  // and keeps the hot table L1-resident (a few KB) instead of spreading
  // the seed automaton's loads across per-query tables.
  FastDiags diags;
  std::size_t max_qlen = 0;
  for (const QueryContext& qc : queries)
    max_qlen = std::max(max_qlen, qc.residues().size());

  // Residues scanned is a pure per-subject sum: accumulate it once and
  // credit every participating query (the scalar loop adds it subject by
  // subject; queries shorter than the word size never scan at all).
  std::uint64_t total_residues = 0;
  for (std::uint64_t local = lo; local < hi; ++local)
    total_residues += fragment.sequence(local).size();
  for (std::size_t i = 0; i < queries.size(); ++i)
    if (queries[i].residues().size() >= w)
      results[i].counters.db_residues_scanned += total_residues;

  for (std::uint64_t local = lo; local < hi; ++local) {
    const std::span<const std::uint8_t> s = fragment.sequence(local);
    if (s.size() < w) continue;
    PIOBLAST_CHECK_MSG(s.size() < (1ull << 31),
                       "fast kernel: subject exceeds int32 position range");
    const std::span<const std::uint32_t> codes32 = index.codes32(local);
    const std::size_t nwords = codes32.size();
    diags.ensure(max_qlen, s.size());

    // Scatter this subject's seeds into the per-query buffers.
    std::fill(cur.begin(), cur.end(), 0u);
    for (std::size_t spos = 0; spos < nwords; ++spos) {
      const std::uint32_t c = codes32[spos];
      const std::uint64_t spos_hi = static_cast<std::uint64_t>(spos) << 32;
      const std::uint32_t e = offs[c + 1];
      for (std::uint32_t k = offs[c]; k < e; ++k) {
        const std::uint32_t tag = ent[k];
        const std::uint32_t qi = tag >> BatchNeighborhood::kQposBits;
        if (cur[qi] >= caps[qi]) [[unlikely]] {
          std::vector<std::uint64_t>& sv = states[qi].seeds;
          sv.resize(std::max<std::size_t>(256, sv.size() * 2));
          bufs[qi] = sv.data();
          caps[qi] = static_cast<std::uint32_t>(sv.size());
        }
        bufs[qi][cur[qi]++] = spos_hi | (tag & BatchNeighborhood::kQposMask);
      }
    }

    // Run each query's diagonal automaton over its seeds.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::size_t nseeds = cur[i];
      if (nseeds == 0) continue;
      QueryState& st = states[i];
      const std::size_t qlen = queries[i].residues().size();
      results[i].counters.seed_hits += nseeds;  // == the scalar per-seed ++
      st.subject_hsps.clear();
      st.explored.clear();
      TriggerCtx ctx{queries[i], s,       fragment.global_id(local),
                     st,         scratch, results[i]};
      if (two_hit) {
        process_seeds<true>(ctx, diags, nseeds, qlen, params.word_size,
                            params.two_hit_window);
      } else {
        process_seeds<false>(ctx, diags, nseeds, qlen, params.word_size,
                             params.two_hit_window);
      }
      if (!st.subject_hsps.empty()) cull_and_flush(st, results[i]);
    }
  }
}

/// The chunk plan of a fragment of `residues` residues (at least two
/// grains): subject bounds 0 = b_0 < ... < b_m = num_seqs, chunk k being
/// subjects [b_k, b_k+1). With shares = residues / grain, chunk k closes at
/// the first subject boundary where the residues so far reach
/// (k + 1) * residues / shares. A subject longer than a grain closes the
/// chunk it lands in, which then holds more than one share, and m may be
/// less than shares. A function of the fragment alone.
std::vector<std::uint64_t> chunk_bounds(const seqdb::LoadedFragment& fragment,
                                        std::uint64_t residues) {
  const std::uint64_t shares = residues / kSplitGrainResidues;
  std::vector<std::uint64_t> bounds{0};
  std::uint64_t done = 0;
  for (std::uint64_t local = 0; local + 1 < fragment.num_seqs(); ++local) {
    done += fragment.sequence(local).size();
    if (done * shares >= residues * bounds.size()) bounds.push_back(local + 1);
  }
  bounds.push_back(fragment.num_seqs());
  return bounds;
}

/// Runs `scan(lo, hi, out)`, which searches subjects [lo, hi) into `out`
/// (index-aligned with `results`), over the whole fragment. Below two
/// grains that is one call straight into `results`. Otherwise every chunk
/// of the plan scans into its own partial results on the fork-join pool,
/// and the merge sums each query's counters and concatenates its HSPs
/// chunk by chunk. Every search decision depends on one (query, subject)
/// pair only, and a scan appends HSPs in subject order, so the merged list
/// is element for element the one the single call produces: the
/// Hsp::better sort and the hit-list cut then give identical output.
template <class Scan>
void scan_split(const seqdb::LoadedFragment& fragment, std::uint64_t residues,
                std::span<FragmentSearchResult> results, const Scan& scan) {
  if (residues / kSplitGrainResidues < 2) {
    scan(0, fragment.num_seqs(), results);
    return;
  }
  const std::vector<std::uint64_t> bounds = chunk_bounds(fragment, residues);
  std::vector<std::vector<FragmentSearchResult>> parts(bounds.size() - 1);
  util::parallel_for(parts.size(), [&](std::size_t c) {
    parts[c].resize(results.size());
    scan(bounds[c], bounds[c + 1], std::span(parts[c]));
  });
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::vector<Hsp>& hsps = results[i].hsps;
    for (std::vector<FragmentSearchResult>& part : parts) {
      results[i].counters += part[i].counters;
      hsps.insert(hsps.end(), std::make_move_iterator(part[i].hsps.begin()),
                  std::make_move_iterator(part[i].hsps.end()));
    }
  }
}

}  // namespace

BatchNeighborhood::BatchNeighborhood(std::span<const QueryContext> queries) {
  PIOBLAST_CHECK_MSG(queries.size() <= kMaxQueries,
                     "fast kernel: batch exceeds query-id tag range");
  constexpr std::uint32_t kWords = 24u * 24u * 24u;
  offsets.assign(kWords + 1, 0);
  std::size_t total = 0;
  for (const QueryContext& qc : queries) {
    const std::span<const std::uint32_t> offs = qc.flat_index().offsets();
    for (std::uint32_t c = 0; c < kWords; ++c)
      offsets[c + 1] += offs[c + 1] - offs[c];
    total += qc.flat_index().total_entries();
  }
  for (std::uint32_t c = 0; c < kWords; ++c) offsets[c + 1] += offsets[c];
  entries.resize(total);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const FlatNeighborhood& flat = queries[qi].flat_index();
    const std::span<const std::uint32_t> offs = flat.offsets();
    const std::span<const std::uint32_t> ent = flat.entries();
    const std::uint32_t tag = static_cast<std::uint32_t>(qi) << kQposBits;
    for (std::uint32_t c = 0; c < kWords; ++c)
      for (std::uint32_t k = offs[c]; k < offs[c + 1]; ++k)
        entries[cursor[c]++] = tag | ent[k];
  }
}

PreparedBatch::PreparedBatch(std::vector<QueryContext> contexts)
    : contexts_(std::move(contexts)) {
  if (contexts_.empty()) return;
  const SearchParams& params = contexts_[0].params();
  for (const QueryContext& qc : contexts_) {
    PIOBLAST_CHECK_MSG(qc.params().type == params.type &&
                           qc.params().word_size == params.word_size,
                       "batched queries must share word size and type");
  }
  if (params.type == seqdb::SeqType::kNucleotide) return;
  for (const QueryContext& qc : contexts_)
    PIOBLAST_CHECK_MSG(qc.residues().size() < (1u << BatchNeighborhood::kQposBits),
                       "fast kernel: query exceeds position tag range");
  // A batch larger than the query-id tag range gets one merged table per
  // sub-batch; every query's search is its own, so this does not show in
  // the results.
  constexpr std::size_t kMaxQueries = BatchNeighborhood::kMaxQueries;
  const std::span<const QueryContext> all(contexts_);
  for (std::size_t first = 0; first < all.size(); first += kMaxQueries)
    merged_.emplace_back(
        all.subspan(first, std::min(kMaxQueries, all.size() - first)));
}

std::vector<FragmentSearchResult> search_fragment_batch(
    const PreparedBatch& queries, const seqdb::LoadedFragment& fragment,
    KernelKind) {
  std::vector<FragmentSearchResult> results(queries.size());
  if (queries.empty()) return results;

  // One fragment scan for the whole batch, shared read-only by every chunk.
  const SearchParams& params = queries[0].params();
  const FragmentIndex index(fragment, params);
  std::uint64_t residues = 0;
  for (std::uint64_t local = 0; local < fragment.num_seqs(); ++local)
    residues += fragment.sequence(local).size();

  const std::span<const QueryContext> all(queries.begin(), queries.end());
  if (params.type == seqdb::SeqType::kNucleotide) {
    scan_split(fragment, residues, results,
               [&](std::uint64_t lo, std::uint64_t hi,
                   std::span<FragmentSearchResult> out) {
                 scan_dna(all, fragment, index, lo, hi, out);
               });
  } else {
    constexpr std::size_t kMaxQueries = BatchNeighborhood::kMaxQueries;
    for (std::size_t first = 0; first < all.size(); first += kMaxQueries) {
      const std::span<const QueryContext> sub =
          all.subspan(first, std::min(kMaxQueries, all.size() - first));
      const BatchNeighborhood& batch = queries.merged()[first / kMaxQueries];
      scan_split(fragment, residues,
                 std::span(results).subspan(first, sub.size()),
                 [&](std::uint64_t lo, std::uint64_t hi,
                     std::span<FragmentSearchResult> out) {
                   scan_protein(sub, batch, fragment, index, lo, hi, out);
                 });
    }
  }

  // Rank and apply the per-fragment hit-list cut ("local cut").
  for (std::size_t i = 0; i < queries.size(); ++i) {
    FragmentSearchResult& r = results[i];
    const int hitlist = queries[i].params().hitlist_size;
    std::sort(r.hsps.begin(), r.hsps.end(), Hsp::better);
    if (r.hsps.size() > static_cast<std::size_t>(hitlist))
      r.hsps.resize(static_cast<std::size_t>(hitlist));
    r.counters.hsps_found = r.hsps.size();
  }
  return results;
}

}  // namespace pioblast::blast
