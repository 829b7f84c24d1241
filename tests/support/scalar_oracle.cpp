#include "support/scalar_oracle.h"

#include <algorithm>
#include <vector>

#include "blast/engine_detail.h"
#include "util/error.h"

namespace pioblast::blast::oracle {

using detail::DirResult;
using detail::kEFromE;
using detail::kFFromF;
using detail::kHFromDiag;
using detail::kHFromE;
using detail::kHFromF;
using detail::kHMask;
using detail::kNegInf;

// ---- word index ------------------------------------------------------------

WordIndex::WordIndex(std::span<const std::uint8_t> query,
                     const ScoringMatrix& matrix, const SearchParams& params)
    : is_dna_(params.type == seqdb::SeqType::kNucleotide),
      word_size_(params.word_size) {
  PIOBLAST_CHECK_MSG(!is_dna_ || (word_size_ >= 4 && word_size_ <= 31),
                     "blastn word size must be in [4,31]");
  PIOBLAST_CHECK_MSG(is_dna_ || word_size_ == 3, "blastp word size must be 3");
  if (query.size() < static_cast<std::size_t>(word_size_)) return;
  if (is_dna_) {
    build_dna(query);
  } else {
    build_protein(query, matrix, params.threshold);
  }
}

void WordIndex::build_protein(std::span<const std::uint8_t> query,
                              const ScoringMatrix& matrix, int threshold) {
  dense_.assign(24u * 24u * 24u, {});
  const int n = static_cast<int>(query.size()) - 2;
  for (int pos = 0; pos < n; ++pos) {
    const std::uint8_t q0 = query[static_cast<std::size_t>(pos)];
    const std::uint8_t q1 = query[static_cast<std::size_t>(pos) + 1];
    const std::uint8_t q2 = query[static_cast<std::size_t>(pos) + 2];
    // Enumerate neighborhood words with branch-and-bound: a partial score
    // plus the remaining rows' maxima must still be able to reach T.
    const int max1 = matrix.row_max(q1);
    const int max2 = matrix.row_max(q2);
    for (std::uint8_t a = 0; a < 24; ++a) {
      const int s0 = matrix.score(q0, a);
      if (s0 + max1 + max2 < threshold) continue;
      for (std::uint8_t b = 0; b < 24; ++b) {
        const int s01 = s0 + matrix.score(q1, b);
        if (s01 + max2 < threshold) continue;
        for (std::uint8_t c = 0; c < 24; ++c) {
          if (s01 + matrix.score(q2, c) < threshold) continue;
          const std::uint32_t packed = (static_cast<std::uint32_t>(a) * 24u +
                                        b) * 24u + c;
          dense_[packed].push_back(static_cast<std::uint32_t>(pos));
          ++total_entries_;
        }
      }
    }
  }
}

void WordIndex::build_dna(std::span<const std::uint8_t> query) {
  const int w = word_size_;
  const std::uint64_t mask = (1ULL << (2 * w)) - 1;
  std::uint64_t packed = 0;
  int valid = 0;  // consecutive non-N residues accumulated
  for (std::size_t pos = 0; pos < query.size(); ++pos) {
    const std::uint8_t code = query[pos];
    if (code >= 4) {  // N or other ambiguity: restart the window
      valid = 0;
      packed = 0;
      continue;
    }
    packed = ((packed << 2) | code) & mask;
    if (++valid >= w) {
      sparse_[packed].push_back(static_cast<std::uint32_t>(pos + 1 - static_cast<std::size_t>(w)));
      ++total_entries_;
    }
  }
}

const PositionList* WordIndex::probe(const std::uint8_t* word) const {
  if (!is_dna_) {
    if (dense_.empty()) return nullptr;
    const PositionList& list = dense_[pack_protein(word)];
    return list.empty() ? nullptr : &list;
  }
  std::uint64_t packed = 0;
  for (int i = 0; i < word_size_; ++i) {
    if (word[i] >= 4) return nullptr;  // word contains N
    packed = (packed << 2) | word[i];
  }
  const auto it = sparse_.find(packed);
  return it == sparse_.end() ? nullptr : &it->second;
}

// ---- extensions ------------------------------------------------------------

UngappedExtension extend_ungapped(std::span<const std::uint8_t> query,
                                  std::span<const std::uint8_t> subject,
                                  std::uint32_t qpos, std::uint64_t spos,
                                  int word_size, const ScoringMatrix& matrix,
                                  int xdrop) {
  PIOBLAST_CHECK(qpos + static_cast<std::uint32_t>(word_size) <= query.size());
  PIOBLAST_CHECK(spos + static_cast<std::uint64_t>(word_size) <= subject.size());

  UngappedExtension ext;
  // Seed score.
  int score = 0;
  for (int k = 0; k < word_size; ++k)
    score += matrix.score(query[qpos + static_cast<std::uint32_t>(k)],
                          subject[spos + static_cast<std::uint64_t>(k)]);
  ext.cells += static_cast<std::uint64_t>(word_size);

  // Rightward: keep the prefix-maximum; stop at X-drop.
  int best = score;
  std::uint32_t best_qend = qpos + static_cast<std::uint32_t>(word_size);
  std::uint64_t best_send = spos + static_cast<std::uint64_t>(word_size);
  {
    int run = score;
    std::uint32_t qi = best_qend;
    std::uint64_t si = best_send;
    while (qi < query.size() && si < subject.size()) {
      run += matrix.score(query[qi], subject[si]);
      ++qi;
      ++si;
      ++ext.cells;
      if (run > best) {
        best = run;
        best_qend = qi;
        best_send = si;
      } else if (run <= best - xdrop) {
        break;
      }
    }
  }

  // Leftward from the seed start.
  std::uint32_t best_qstart = qpos;
  std::uint64_t best_sstart = spos;
  {
    int run = best;
    int left_best = best;
    std::uint32_t qi = qpos;
    std::uint64_t si = spos;
    while (qi > 0 && si > 0) {
      --qi;
      --si;
      run += matrix.score(query[qi], subject[si]);
      ++ext.cells;
      if (run > left_best) {
        left_best = run;
        best_qstart = qi;
        best_sstart = si;
      } else if (run <= left_best - xdrop) {
        break;
      }
    }
    best = left_best;
  }

  ext.score = best;
  ext.qstart = best_qstart;
  ext.qend = best_qend;
  ext.sstart = best_sstart;
  ext.send = best_send;
  return ext;
}

namespace {

/// One direction of the gapped pass, with per-row traceback vectors.
DirResult extend_dir(std::span<const std::uint8_t> q,
                     std::span<const std::uint8_t> s, const ScoringMatrix& matrix,
                     int gap_open, int gap_extend, int xdrop) {
  DirResult result;
  if (q.empty() || s.empty()) return result;

  const std::size_t m = q.size();
  const std::size_t n = s.size();
  const int open_cost = gap_open + gap_extend;

  // Row-linear DP with an active-column window driven by the X-drop rule.
  // H[j]/F[j] hold the previous row's values for columns inside that row's
  // computed window [prev_lo, prev_hi); anything outside is dead (kNegInf).
  std::vector<int> H(n + 1, kNegInf), F(n + 1, kNegInf);
  // Traceback rows: per row, the window's direction bytes plus its origin.
  struct TbRow {
    std::size_t lo;
    std::vector<std::uint8_t> dirs;
  };
  std::vector<TbRow> tb;
  tb.reserve(64);

  H[0] = 0;
  int best = 0;
  std::size_t best_i = 0, best_j = 0;
  std::size_t prev_lo = 0, prev_hi = 1;  // row 0: only column 0 is live
  std::size_t lo = 1;                    // first column of the next row

  for (std::size_t i = 1; i <= m && lo <= n; ++i) {
    TbRow row;
    row.lo = lo;

    // H(i-1, lo-1), valid only if column lo-1 was computed last row.
    int h_diag =
        (lo - 1 >= prev_lo && lo - 1 < prev_hi) ? H[lo - 1] : kNegInf;
    int h_left = kNegInf;  // H(i, j-1)
    int e_left = kNegInf;  // E(i, j-1)
    std::size_t new_lo = n + 1;  // first surviving column this row
    std::size_t new_hi = lo;     // one past the last surviving column
    std::size_t j = lo;

    for (; j <= n; ++j) {
      ++result.cells;
      const bool prev_valid = j >= prev_lo && j < prev_hi;
      const int h_up = prev_valid ? H[j] : kNegInf;
      const int f_up = prev_valid ? F[j] : kNegInf;

      // E: gap consuming subject residue s[j-1] (gap in query).
      std::uint8_t dir = 0;
      const int e_open = h_left == kNegInf ? kNegInf : h_left - open_cost;
      const int e_ext = e_left == kNegInf ? kNegInf : e_left - gap_extend;
      int e = std::max(e_open, e_ext);
      if (e_ext > e_open) dir |= kEFromE;
      // F: gap consuming query residue q[i-1] (gap in subject).
      const int f_open = h_up == kNegInf ? kNegInf : h_up - open_cost;
      const int f_ext = f_up == kNegInf ? kNegInf : f_up - gap_extend;
      int f = std::max(f_open, f_ext);
      if (f_ext > f_open) dir |= kFFromF;
      // H: best of diagonal / E / F.
      const int diag = h_diag == kNegInf
                           ? kNegInf
                           : h_diag + matrix.score(q[i - 1], s[j - 1]);
      int h = diag;
      if (e > h) {
        h = e;
        dir = static_cast<std::uint8_t>((dir & ~kHMask) | kHFromE);
      }
      if (f > h) {
        h = f;
        dir = static_cast<std::uint8_t>((dir & ~kHMask) | kHFromF);
      }

      // X-drop pruning relative to the global best.
      const bool dead = h < best - xdrop;
      if (dead) {
        h = kNegInf;
        e = kNegInf;
        f = kNegInf;
      } else {
        if (j < new_lo) new_lo = j;
        new_hi = j + 1;
        if (h > best) {
          best = h;
          best_i = i;
          best_j = j;
        }
      }

      h_diag = h_up;  // becomes H(i-1, j) for column j+1
      h_left = h;
      e_left = e;
      H[j] = h;
      F[j] = f;
      row.dirs.push_back(dir);

      // Past the previous row's window only the in-row E-chain can feed
      // later columns (for column j+1 the diagonal source is H(i-1, j),
      // dead once j >= prev_hi); when the chain is dead the rest of the
      // row is unreachable.
      if (j >= prev_hi && dead && e == kNegInf) {
        ++j;
        break;
      }
    }

    tb.push_back(std::move(row));
    if (new_lo >= new_hi) break;  // every column pruned: extension done
    prev_lo = lo;
    prev_hi = j;  // columns [lo, j) were computed this row
    lo = new_lo;
  }

  result.score = best;
  result.qlen = best_i;
  result.slen = best_j;
  if (best_i == 0) return result;  // no positive extension

  // Traceback from (best_i, best_j) to (0, 0).
  enum class State { kH, kE, kF };
  State state = State::kH;
  std::size_t i = best_i, j = best_j;
  while (i > 0 || j > 0) {
    PIOBLAST_CHECK_MSG(i > 0 && j > 0, "gapped traceback escaped the matrix");
    const TbRow& row = tb[i - 1];
    PIOBLAST_CHECK_MSG(j >= row.lo && j - row.lo < row.dirs.size(),
                       "gapped traceback outside stored window");
    const std::uint8_t dir = row.dirs[j - row.lo];
    switch (state) {
      case State::kH:
        switch (dir & kHMask) {
          case kHFromDiag:
            result.ops.push_back(AlignOp::kMatch);
            --i;
            --j;
            break;
          case kHFromE:
            state = State::kE;
            break;
          case kHFromF:
            state = State::kF;
            break;
          default:
            PIOBLAST_CHECK_MSG(false, "invalid traceback direction");
        }
        break;
      case State::kE:
        result.ops.push_back(AlignOp::kDelete);
        state = (dir & kEFromE) ? State::kE : State::kH;
        --j;
        break;
      case State::kF:
        result.ops.push_back(AlignOp::kInsert);
        state = (dir & kFFromF) ? State::kF : State::kH;
        --i;
        break;
    }
  }
  std::reverse(result.ops.begin(), result.ops.end());
  return result;
}

}  // namespace

GappedExtension extend_gapped(std::span<const std::uint8_t> query,
                              std::span<const std::uint8_t> subject,
                              std::uint32_t anchor_q, std::uint64_t anchor_s,
                              const ScoringMatrix& matrix, int gap_open,
                              int gap_extend, int xdrop) {
  PIOBLAST_CHECK(anchor_q < query.size());
  PIOBLAST_CHECK(anchor_s < subject.size());

  // Right: includes the anchor pair itself.
  const DirResult right =
      extend_dir(query.subspan(anchor_q), subject.subspan(anchor_s), matrix,
                 gap_open, gap_extend, xdrop);

  // Left: reversed prefixes strictly before the anchor.
  std::vector<std::uint8_t> qrev(query.begin(),
                                 query.begin() + static_cast<std::ptrdiff_t>(anchor_q));
  std::vector<std::uint8_t> srev(
      subject.begin(), subject.begin() + static_cast<std::ptrdiff_t>(anchor_s));
  std::reverse(qrev.begin(), qrev.end());
  std::reverse(srev.begin(), srev.end());
  const DirResult left =
      extend_dir(qrev, srev, matrix, gap_open, gap_extend, xdrop);

  return detail::combine_directions(left, right, anchor_q, anchor_s);
}

// ---- fragment search -------------------------------------------------------

namespace {

/// Epoch-stamped per-diagonal table, reused across subjects so the scan
/// does not reallocate or clear for every sequence.
class DiagTable {
 public:
  void begin_subject(std::size_t qlen, std::size_t slen) {
    const std::size_t need = qlen + slen + 1;
    if (entries_.size() < need) entries_.resize(need);
    ++epoch_;
  }

  /// Last seed position recorded on the diagonal (or -1).
  std::int64_t last_seed(std::size_t diag) const {
    const Entry& e = entries_[diag];
    return e.seed_epoch == epoch_ ? e.last_seed : -1;
  }
  void set_last_seed(std::size_t diag, std::int64_t pos) {
    Entry& e = entries_[diag];
    e.seed_epoch = epoch_;
    e.last_seed = pos;
  }

  /// Subject offset up to which this diagonal is covered by an extension.
  std::int64_t covered_until(std::size_t diag) const {
    const Entry& e = entries_[diag];
    return e.cover_epoch == epoch_ ? e.covered : -1;
  }
  void set_covered(std::size_t diag, std::int64_t until) {
    Entry& e = entries_[diag];
    const std::int64_t prev = e.cover_epoch == epoch_ ? e.covered : -1;
    e.cover_epoch = epoch_;
    e.covered = std::max(prev, until);
  }

 private:
  struct Entry {
    std::uint64_t seed_epoch = 0;
    std::uint64_t cover_epoch = 0;
    std::int64_t last_seed = -1;
    std::int64_t covered = -1;
  };
  std::vector<Entry> entries_;
  std::uint64_t epoch_ = 0;
};

}  // namespace

FragmentSearchResult search_fragment(const QueryContext& query,
                                     const WordIndex& index,
                                     const seqdb::LoadedFragment& fragment) {
  using detail::Envelope;
  using detail::annotate_alignment;
  using detail::contained_in;
  FragmentSearchResult result;
  const SearchParams& params = query.params();
  const ScoringMatrix& matrix = query.matrix();
  const std::span<const std::uint8_t> q = query.residues();
  const std::size_t qlen = q.size();
  const int w = params.word_size;
  const bool two_hit = params.two_hit_window > 0;

  if (qlen < static_cast<std::size_t>(w)) return result;

  DiagTable diags;
  std::vector<Hsp> subject_hsps;
  std::vector<Envelope> explored;

  for (std::uint64_t local = 0; local < fragment.num_seqs(); ++local) {
    const std::span<const std::uint8_t> s = fragment.sequence(local);
    result.counters.db_residues_scanned += s.size();
    if (s.size() < static_cast<std::size_t>(w)) continue;
    diags.begin_subject(qlen, s.size());
    subject_hsps.clear();
    explored.clear();

    const std::size_t last_word = s.size() - static_cast<std::size_t>(w);
    for (std::size_t spos = 0; spos <= last_word; ++spos) {
      const PositionList* hits = index.probe(s.data() + spos);
      if (hits == nullptr) continue;
      for (const std::uint32_t qpos : *hits) {
        ++result.counters.seed_hits;
        const std::size_t diag = spos + qlen - qpos;

        // Skip seeds inside a region an extension already covered.
        if (static_cast<std::int64_t>(spos) <= diags.covered_until(diag)) continue;

        if (two_hit) {
          // NCBI two-hit rule: a fresh hit or one beyond the window resets
          // the diagonal; a hit overlapping the previous one (distance
          // < w) is ignored *without* updating it — otherwise runs of
          // consecutive seeds (identical sequences!) would never trigger.
          const std::int64_t prev = diags.last_seed(diag);
          const std::int64_t gap =
              prev < 0 ? -1 : static_cast<std::int64_t>(spos) - prev;
          if (prev < 0 || gap > params.two_hit_window) {
            diags.set_last_seed(diag, static_cast<std::int64_t>(spos));
            continue;
          }
          if (gap < w) continue;  // overlapping hit: keep the older one
          diags.set_last_seed(diag, static_cast<std::int64_t>(spos));
        }

        ++result.counters.two_hit_triggers;
        const UngappedExtension ung =
            extend_ungapped(q, s, qpos, spos, w, matrix, params.xdrop_ungapped);
        result.counters.ungapped_cells += ung.cells;
        diags.set_covered(diag, static_cast<std::int64_t>(ung.send) - w);
        if (ung.score < params.gap_trigger) continue;

        // Seeds whose ungapped segment lies inside a region some gapped
        // extension already explored would re-derive (a piece of) the same
        // alignment: skip them before the expensive gapped pass, as NCBI
        // BLAST does. Homologs with indels otherwise trigger one
        // near-full-length gapped extension per indel-shifted diagonal.
        bool inside_existing = false;
        for (const Envelope& env : explored) {
          if (ung.qstart >= env.qstart && ung.qend <= env.qend &&
              ung.sstart >= env.sstart && ung.send <= env.send) {
            inside_existing = true;
            break;
          }
        }
        if (inside_existing) continue;

        // Anchor the gapped pass at the midpoint of the ungapped segment.
        const std::uint32_t half =
            (ung.qend - ung.qstart) / 2;
        const std::uint32_t anchor_q = ung.qstart + half;
        const std::uint64_t anchor_s = ung.sstart + half;
        GappedExtension gap = extend_gapped(q, s, anchor_q, anchor_s, matrix,
                                            params.gap_open, params.gap_extend,
                                            params.xdrop_gapped);
        result.counters.gapped_cells += gap.cells;
        result.counters.traceback_cells += gap.ops.size();
        diags.set_covered(diag, static_cast<std::int64_t>(gap.send) - w);
        explored.push_back({gap.qstart, gap.qend, gap.sstart, gap.send});
        if (gap.score < query.cutoff_score()) continue;

        Hsp hsp;
        hsp.query_id = query.query_id();
        hsp.subject_global_id = fragment.global_id(local);
        hsp.qstart = gap.qstart;
        hsp.qend = gap.qend;
        hsp.sstart = gap.sstart;
        hsp.send = gap.send;
        hsp.score = gap.score;
        hsp.ops = std::move(gap.ops);
        const KarlinParams& kp = matrix.gapped();
        hsp.bits = bit_score(kp, hsp.score);
        hsp.evalue = evalue(kp, hsp.score, qlen, query.db(), query.length_adjust());
        if (hsp.evalue > params.evalue_cutoff) continue;
        annotate_alignment(hsp, q, s, matrix);
        subject_hsps.push_back(std::move(hsp));
      }
    }

    // Containment culling within the subject: keep an HSP only if it is not
    // enveloped by a better one.
    std::sort(subject_hsps.begin(), subject_hsps.end(), Hsp::better);
    std::vector<Hsp> kept;
    for (Hsp& cand : subject_hsps) {
      bool dominated = false;
      for (const Hsp& better_hsp : kept) {
        if (contained_in(cand, better_hsp)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) kept.push_back(std::move(cand));
    }
    for (Hsp& h : kept) result.hsps.push_back(std::move(h));
  }

  // Rank and apply the per-fragment hit-list cut ("local cut").
  std::sort(result.hsps.begin(), result.hsps.end(), Hsp::better);
  if (result.hsps.size() > static_cast<std::size_t>(params.hitlist_size))
    result.hsps.resize(static_cast<std::size_t>(params.hitlist_size));
  result.counters.hsps_found = result.hsps.size();
  return result;
}

ScalarBatch::ScalarBatch(const PreparedBatch& queries) : queries_(queries) {
  indexes_.reserve(queries.size());
  for (const QueryContext& qc : queries)
    indexes_.emplace_back(qc.residues(), qc.matrix(), qc.params());
}

FragmentSearchResult ScalarBatch::search(
    std::size_t i, const seqdb::LoadedFragment& fragment) const {
  return search_fragment(queries_[i], indexes_[i], fragment);
}

std::vector<FragmentSearchResult> ScalarBatch::search(
    const seqdb::LoadedFragment& fragment) const {
  std::vector<FragmentSearchResult> results(queries_.size());
  for (std::size_t i = 0; i < queries_.size(); ++i)
    results[i] = search(i, fragment);
  return results;
}

}  // namespace pioblast::blast::oracle
