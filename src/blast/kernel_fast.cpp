// The search kernel: batched rebuild of the scalar per-query search loop
// that the tests keep as their reference oracle (tests/support/).
//
// Four structural changes over the scalar loop, none of which alter any
// search decision (the differential kernel tests assert bit-identical HSP
// lists and counters):
//
//   1. The fragment is scanned ONCE per batch: FragmentIndex materializes
//      the packed word code at every subject position, where the scalar
//      loop re-packs the subject once per query.
//   2. Each subject word is looked up ONCE per sub-batch of queries, not
//      once per query: PreparedBatch, constructed below once per query
//      set, indexes the words of a whole sub-batch straight from the
//      queries' residues into one offset-compacted table — dense over the
//      24^3 words for blastp (BatchNeighborhood), a presence filter plus
//      an open-addressing table for blastn (DnaBatchNeighborhood) — in
//      place of the oracle's per-query vector-of-vectors / hash map. No
//      query keeps a table of its own. One scan loop, scan_batch, serves
//      both.
//   3. Extensions run through extend_ungapped_fast (SWAR 8-residue skips)
//      and extend_gapped_fast (DP rows in vector lanes, reusable scratch
//      and traceback arena).
//   4. search_fragments plans every (fragment, chunk) pair of a call —
//      one chunk per sub-grain fragment, consecutive-subject chunks for a
//      fragment of two grains or more (kSplitGrainResidues) — and runs
//      them all on one util::parallel_for; the task that finishes a
//      fragment's last chunk merges it back into exactly the one-chunk
//      result.
//
// The per-(query, subject) control flow below is a line-for-line mirror of
// the oracle's loop: same counter accounting, same two-hit rule, same
// coverage and envelope skips, same cutoffs and culling. The oracle is
// only a reference, but the differential tests hold the two to identical
// output, so a change to a search decision here must be made in the
// oracle too.
#include <algorithm>
#include <atomic>
#include <bit>
#include <iterator>
#include <string>
#include <type_traits>

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
/// (query, subject) pair — see scan_batch.
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

/// Scan of subjects [lo, hi) into `results` (index-aligned with
/// `queries`), subject-outer through the sub-batch's merged table: each
/// subject position is looked up ONCE for the whole sub-batch; the bucket
/// scatters (spos, qpos) seeds into per-query buffers which are then run
/// through the diagonal automaton query by query. Bucket entries are
/// query-id-major with ascending positions, so every query sees exactly
/// the seed sequence its own per-query scan would produce. `Table` is
/// BatchNeighborhood (blastp) or DnaBatchNeighborhood (blastn): how a word
/// code finds its bucket, and how wide an entry's position field is.
template <class Table>
void scan_batch(std::span<const QueryContext> queries, const Table& table,
                const seqdb::LoadedFragment& fragment,
                const FragmentIndex& index, std::uint64_t lo, std::uint64_t hi,
                std::span<FragmentSearchResult> results) {
  const SearchParams& params = queries[0].params();
  const std::size_t w = static_cast<std::size_t>(params.word_size);
  const auto lookup = table.lookup();
  const auto* const ent = table.entries.data();
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
    std::span<const typename Table::Code> codes;
    if constexpr (std::is_same_v<typename Table::Code, std::uint32_t>) {
      codes = index.codes32(local);
    } else {
      codes = index.codes64(local);
    }
    const std::size_t nwords = codes.size();
    diags.ensure(max_qlen, s.size());

    // Scatter this subject's seeds into the per-query buffers.
    std::fill(cur.begin(), cur.end(), 0u);
    for (std::size_t spos = 0; spos < nwords; ++spos) {
      const std::uint64_t spos_hi = static_cast<std::uint64_t>(spos) << 32;
      const auto [b, e] = lookup(codes[spos]);
      for (std::uint32_t k = b; k < e; ++k) {
        const auto tag = ent[k];
        const std::uint32_t qi =
            static_cast<std::uint32_t>(tag >> Table::kQposBits);
        if (cur[qi] >= caps[qi]) [[unlikely]] {
          std::vector<std::uint64_t>& sv = states[qi].seeds;
          sv.resize(std::max<std::size_t>(256, sv.size() * 2));
          bufs[qi] = sv.data();
          caps[qi] = static_cast<std::uint32_t>(sv.size());
        }
        bufs[qi][cur[qi]++] =
            spos_hi | (static_cast<std::uint32_t>(tag) & Table::kQposMask);
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

/// Runs scan_batch on every sub-batch of `queries`, table k serving
/// queries k * kMaxQueries up to (k + 1) * kMaxQueries.
template <class Table>
void scan_sub_batches(std::span<const QueryContext> queries,
                      const std::vector<Table>& tables,
                      const seqdb::LoadedFragment& fragment,
                      const FragmentIndex& index, std::uint64_t lo,
                      std::uint64_t hi, std::span<FragmentSearchResult> out) {
  constexpr std::size_t kMaxQueries = BatchNeighborhood::kMaxQueries;
  for (std::size_t first = 0; first < queries.size(); first += kMaxQueries) {
    const std::size_t n = std::min(kMaxQueries, queries.size() - first);
    scan_batch(queries.subspan(first, n), tables[first / kMaxQueries],
               fragment, index, lo, hi, out.subspan(first, n));
  }
}

/// The chunk plan of `fragment`: subject bounds 0 = b_0 < ... < b_m =
/// num_seqs, chunk k being subjects [b_k, b_k+1). Below two grains that is
/// one chunk. Otherwise, with shares = residues / grain, chunk k closes at
/// the first subject boundary where the residues so far reach (k + 1) *
/// residues / shares. A subject longer than a grain closes the chunk it
/// lands in, which then holds more than one share, and m may be less than
/// shares. A function of the fragment alone.
std::vector<std::uint64_t> chunk_bounds(const seqdb::LoadedFragment& fragment) {
  const std::uint64_t residues = fragment.residues();
  const std::uint64_t shares = residues / kSplitGrainResidues;
  std::vector<std::uint64_t> bounds{0};
  if (shares >= 2) {
    std::uint64_t done = 0;
    for (std::uint64_t local = 0; local + 1 < fragment.num_seqs(); ++local) {
      done += fragment.sequence(local).size();
      if (done * shares >= residues * bounds.size())
        bounds.push_back(local + 1);
    }
  }
  bounds.push_back(fragment.num_seqs());
  return bounds;
}

/// Searches every query against subjects [lo, hi) of `fragment` into `out`
/// (index-aligned with `queries`), through an index of those subjects
/// alone.
void scan_chunk(const PreparedBatch& queries,
                const seqdb::LoadedFragment& fragment, std::uint64_t lo,
                std::uint64_t hi, std::span<FragmentSearchResult> out) {
  const FragmentIndex index(fragment, queries[0].params(), lo, hi);
  const std::span<const QueryContext> all(queries.begin(), queries.end());
  if (queries[0].params().type == seqdb::SeqType::kNucleotide) {
    scan_sub_batches(all, queries.merged_dna(), fragment, index, lo, hi, out);
  } else {
    scan_sub_batches(all, queries.merged(), fragment, index, lo, hi, out);
  }
}

/// One fragment's progress through a search_fragments call: the chunks
/// still running and, when it has more than one, their partial results.
struct FragmentProgress {
  std::atomic<std::size_t> pending{0};
  std::vector<std::vector<FragmentSearchResult>> parts;
};

/// Turns a fragment's chunk results into its final results. Every search
/// decision depends on one (query, subject) pair only, and a scan appends
/// HSPs in subject order, so concatenating the chunks in chunk order gives
/// element for element the list one whole-fragment scan would: the
/// Hsp::better sort and the per-fragment hit-list cut ("local cut") then
/// give identical output. The partials are freed here.
void finish_fragment(const PreparedBatch& queries, FragmentProgress& progress,
                     std::vector<FragmentSearchResult>& results) {
  if (!progress.parts.empty()) {
    results.resize(queries.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::vector<Hsp>& hsps = results[i].hsps;
      for (std::vector<FragmentSearchResult>& part : progress.parts) {
        results[i].counters += part[i].counters;
        hsps.insert(hsps.end(), std::make_move_iterator(part[i].hsps.begin()),
                    std::make_move_iterator(part[i].hsps.end()));
      }
    }
    progress.parts = {};
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    FragmentSearchResult& r = results[i];
    const int hitlist = queries[i].params().hitlist_size;
    std::sort(r.hsps.begin(), r.hsps.end(), Hsp::better);
    if (r.hsps.size() > static_cast<std::size_t>(hitlist)) {
      r.hsps.resize(static_cast<std::size_t>(hitlist));
      // A call's results can be held for a whole job (the drivers' search
      // memo), so drop the capacity the uncut list needed.
      r.hsps.shrink_to_fit();
    }
    r.counters.hsps_found = r.hsps.size();
  }
}

/// Calls emit(word, pos) for every base-24 word whose score against the
/// query's 3-mer at pos reaches the threshold, pos ascending: the query's
/// blastp neighborhood, the oracle's WordIndex listed position by position.
/// Each loop walks its row's letters best first and stops at the first one
/// that cannot reach the threshold, so only the order of the words within
/// one position differs from a walk in letter order.
template <class Emit>
void for_each_neighbor(const QueryContext& query, const Emit& emit) {
  const std::span<const std::uint8_t> q = query.residues();
  const ScoringMatrix& matrix = query.matrix();
  const int threshold = query.params().threshold;
  for (std::size_t pos = 0; pos + 2 < q.size(); ++pos) {
    const int* row0 = matrix.row(q[pos]);
    const int* row1 = matrix.row(q[pos + 1]);
    const int* row2 = matrix.row(q[pos + 2]);
    const std::uint8_t* by0 = matrix.by_score(q[pos]);
    const std::uint8_t* by1 = matrix.by_score(q[pos + 1]);
    const std::uint8_t* by2 = matrix.by_score(q[pos + 2]);
    const int max1 = matrix.row_max(q[pos + 1]);
    const int max2 = matrix.row_max(q[pos + 2]);
    for (int i = 0; i < ScoringMatrix::kMaxAlphabet; ++i) {
      const std::uint8_t a = by0[i];
      const int s0 = row0[a];
      if (s0 + max1 + max2 < threshold) break;
      for (int j = 0; j < ScoringMatrix::kMaxAlphabet; ++j) {
        const std::uint8_t b = by1[j];
        const int s01 = s0 + row1[b];
        if (s01 + max2 < threshold) break;
        const std::uint32_t ab = (static_cast<std::uint32_t>(a) * 24u + b) * 24u;
        for (int k = 0; k < ScoringMatrix::kMaxAlphabet; ++k) {
          const std::uint8_t c = by2[k];
          if (s01 + row2[c] < threshold) break;
          emit(ab + c, static_cast<std::uint32_t>(pos));
        }
      }
    }
  }
}

}  // namespace

BatchNeighborhood::BatchNeighborhood(std::span<const QueryContext> queries) {
  PIOBLAST_CHECK_MSG(queries.size() <= kMaxQueries,
                     "fast kernel: batch exceeds query-id tag range");
  constexpr std::uint32_t kWords = 24u * 24u * 24u;
  // Count pass: bucket sizes, one slot up, so the prefix sum turns them
  // into bounds.
  offsets.assign(kWords + 1, 0);
  std::uint64_t total = 0;
  for (const QueryContext& qc : queries) {
    for_each_neighbor(qc, [&](std::uint32_t word, std::uint32_t) {
      ++offsets[word + 1];
      ++total;
    });
  }
  PIOBLAST_CHECK_MSG(total <= ~std::uint32_t{0},
                     "fast kernel: sub-batch exceeds 32-bit bucket bounds");
  for (std::uint32_t c = 0; c < kWords; ++c) offsets[c + 1] += offsets[c];
  // Fill pass, query by query and position-ascending within a query: the
  // bucket order scan_batch relies on.
  entries.resize(total);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const std::uint32_t tag = static_cast<std::uint32_t>(qi) << kQposBits;
    for_each_neighbor(queries[qi], [&](std::uint32_t word, std::uint32_t pos) {
      entries[cursor[word]++] = tag | pos;
    });
  }
}

DnaBatchNeighborhood::DnaBatchNeighborhood(
    std::span<const QueryContext> queries) {
  PIOBLAST_CHECK_MSG(queries.size() <= BatchNeighborhood::kMaxQueries,
                     "fast kernel: batch exceeds query-id tag range");
  // Every (word, entry) pair, query by query and position-ascending within
  // a query: a stable sort by word then leaves every bucket query-id-major
  // with each query's positions ascending.
  struct Pair {
    std::uint64_t word;
    std::uint64_t entry;
  };
  std::size_t residues = 0;
  for (const QueryContext& qc : queries) residues += qc.residues().size();
  std::vector<Pair> pairs;
  pairs.reserve(residues);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const std::uint64_t tag = static_cast<std::uint64_t>(qi) << kQposBits;
    for_each_dna_word(queries[qi].residues(), queries[qi].params().word_size,
                      [&](std::size_t pos, std::uint64_t word) {
                        pairs.push_back(
                            {word, tag | static_cast<std::uint32_t>(pos)});
                      });
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const Pair& a, const Pair& b) { return a.word < b.word; });
  PIOBLAST_CHECK_MSG(pairs.size() <= ~std::uint32_t{0},
                     "fast kernel: sub-batch exceeds 32-bit bucket bounds");
  std::size_t words = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p)
    words += p == 0 || pairs[p].word != pairs[p - 1].word;

  // At most 25% load, so a lookup that passes the filter usually ends on
  // its home slot; at least one 64-bit filter word.
  std::size_t capacity = 64;
  while (capacity < words * 4) capacity <<= 1;
  shift = 64 - std::countr_zero(capacity);
  slots.resize(capacity);
  filter.resize(capacity / 64);
  entries.reserve(pairs.size());
  for (std::size_t first = 0, last = 0; first < pairs.size(); first = last) {
    const std::uint64_t word = pairs[first].word;
    while (last < pairs.size() && pairs[last].word == word)
      entries.push_back(pairs[last++].entry);
    std::size_t i = static_cast<std::size_t>(word * kHashMultiplier) >> shift;
    filter[i / 64] |= std::uint64_t{1} << (i % 64);
    while (slots[i].bucket.second != 0) i = (i + 1) & (capacity - 1);
    slots[i] = {word, {static_cast<std::uint32_t>(first),
                       static_cast<std::uint32_t>(last)}};
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
  const bool dna = params.type == seqdb::SeqType::kNucleotide;
  // The packings' limits: 2 bits a base in one 64-bit word, with room for
  // FragmentIndex::kInvalidWord; base-24 3-mers for blastp.
  PIOBLAST_CHECK_MSG(!dna || (params.word_size >= 4 && params.word_size <= 31),
                     "blastn word size must be in [4,31]");
  PIOBLAST_CHECK_MSG(dna || params.word_size == 3, "blastp word size must be 3");
  for (const QueryContext& qc : contexts_) {
    if (!dna && qc.residues().size() > BatchNeighborhood::kMaxQueryResidues)
      throw util::RuntimeError(
          "blastp query " + std::to_string(qc.query_id()) + " has " +
          std::to_string(qc.residues().size()) +
          " residues; the kernel's position tag holds at most " +
          std::to_string(BatchNeighborhood::kMaxQueryResidues));
  }
  // A batch larger than the query-id tag range gets one merged table per
  // sub-batch; every query's search is its own, so this does not show in
  // the results.
  constexpr std::size_t kMaxQueries = BatchNeighborhood::kMaxQueries;
  const std::span<const QueryContext> all(contexts_);
  for (std::size_t first = 0; first < all.size(); first += kMaxQueries) {
    const auto sub =
        all.subspan(first, std::min(kMaxQueries, all.size() - first));
    if (dna) {
      merged_dna_.emplace_back(sub);
    } else {
      merged_.emplace_back(sub);
    }
  }
}

std::vector<std::vector<FragmentSearchResult>> search_fragments(
    const PreparedBatch& queries,
    std::span<const seqdb::LoadedFragment> fragments) {
  std::vector<std::vector<FragmentSearchResult>> results(fragments.size());
  if (queries.empty()) return results;

  // The flat plan: every (fragment, chunk) pair, fragment by fragment, so
  // the pool claims a fragment's chunks together and merges it early.
  struct Chunk {
    std::size_t fragment;
    std::size_t index;  ///< within the fragment
    std::uint64_t lo;
    std::uint64_t hi;
  };
  std::vector<Chunk> plan;
  std::vector<FragmentProgress> progress(fragments.size());
  for (std::size_t f = 0; f < fragments.size(); ++f) {
    const std::vector<std::uint64_t> bounds = chunk_bounds(fragments[f]);
    const std::size_t nchunks = bounds.size() - 1;
    progress[f].pending.store(nchunks);
    if (nchunks > 1) progress[f].parts.resize(nchunks);
    for (std::size_t c = 0; c < nchunks; ++c)
      plan.push_back({f, c, bounds[c], bounds[c + 1]});
  }

  util::parallel_for(plan.size(), [&](std::size_t k) {
    const Chunk& chunk = plan[k];
    FragmentProgress& fp = progress[chunk.fragment];
    // A one-chunk fragment scans straight into its results.
    std::vector<FragmentSearchResult>& out =
        fp.parts.empty() ? results[chunk.fragment] : fp.parts[chunk.index];
    out.resize(queries.size());
    scan_chunk(queries, fragments[chunk.fragment], chunk.lo, chunk.hi, out);
    // The last chunk to finish merges the fragment; the atomic decrement
    // orders every other chunk's writes to `parts` before the merge reads
    // them.
    if (fp.pending.fetch_sub(1) == 1)
      finish_fragment(queries, fp, results[chunk.fragment]);
  });
  return results;
}

std::vector<FragmentSearchResult> search_fragment_batch(
    const PreparedBatch& queries, const seqdb::LoadedFragment& fragment,
    KernelKind) {
  return std::move(search_fragments(queries, std::span(&fragment, 1)).front());
}

}  // namespace pioblast::blast
