#include "blast/extend.h"

#include <algorithm>
#include <cstring>

#include "blast/engine_detail.h"
#include "util/error.h"

namespace pioblast::blast {

using detail::DirResult;
using detail::kEFromE;
using detail::kFFromF;
using detail::kHFromDiag;
using detail::kHFromE;
using detail::kHFromF;
using detail::kHMask;
using detail::kNegInf;

SelfScoreProfile::SelfScoreProfile(std::span<const std::uint8_t> query,
                                   const ScoringMatrix& matrix) {
  prefix.resize(query.size() + 1, 0);
  positive.resize(query.size() + 1, 0);
  for (std::size_t i = 0; i < query.size(); ++i) {
    const int s = matrix.score(query[i], query[i]);
    prefix[i + 1] = prefix[i] + s;
    positive[i + 1] = positive[i] + (s > 0 ? 1u : 0u);
  }
}

namespace {

inline std::uint64_t load8(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

UngappedExtension extend_ungapped_fast(std::span<const std::uint8_t> query,
                                       std::span<const std::uint8_t> subject,
                                       std::uint32_t qpos, std::uint64_t spos,
                                       int word_size,
                                       const ScoringMatrix& matrix, int xdrop,
                                       const SelfScoreProfile& self) {
  PIOBLAST_CHECK(qpos + static_cast<std::uint32_t>(word_size) <= query.size());
  PIOBLAST_CHECK(spos + static_cast<std::uint64_t>(word_size) <= subject.size());

  const std::uint8_t* q = query.data();
  const std::uint8_t* s = subject.data();
  const std::size_t qlen = query.size();
  const std::size_t slen = subject.size();

  UngappedExtension ext;
  int score = 0;
  {
    const std::uint8_t* qs = q + qpos;
    const std::uint8_t* ss = s + spos;
    for (int k = 0; k < word_size; ++k)
      score += matrix.row(qs[k])[ss[k]];
  }
  ext.cells += static_cast<std::uint64_t>(word_size);

  // Rightward. Invariant entering each step: run > best - xdrop. An
  // 8-residue block with identical query/subject bytes and all-positive
  // self scores makes the scalar loop's running score strictly monotone:
  // no X-drop can fire inside it and the best lands on the block end, so
  // the whole block collapses to one prefix-sum add.
  int best = score;
  std::uint32_t best_qend = qpos + static_cast<std::uint32_t>(word_size);
  std::uint64_t best_send = spos + static_cast<std::uint64_t>(word_size);
  {
    int run = score;
    std::size_t qi = best_qend;
    std::size_t si = best_send;
    while (qi < qlen && si < slen) {
      // Attempt a block only when the current residue pair matches: in
      // non-identical regions that one byte compare is the whole overhead,
      // while identity runs still collapse 8 residues per step. Gating
      // cannot change the result — a taken block produces exactly the
      // per-residue outcome wherever it starts.
      if (q[qi] == s[si] && qi + 8 <= qlen && si + 8 <= slen &&
          load8(q + qi) == load8(s + si) &&
          self.positive[qi + 8] - self.positive[qi] == 8) {
        run += self.prefix[qi + 8] - self.prefix[qi];
        qi += 8;
        si += 8;
        ext.cells += 8;
        if (run > best) {
          best = run;
          best_qend = static_cast<std::uint32_t>(qi);
          best_send = si;
        }
        continue;
      }
      run += matrix.row(q[qi])[s[si]];
      ++qi;
      ++si;
      ++ext.cells;
      if (run > best) {
        best = run;
        best_qend = static_cast<std::uint32_t>(qi);
        best_send = si;
      } else if (run <= best - xdrop) {
        break;
      }
    }
  }

  // Leftward, mirrored (blocks walk toward the sequence starts).
  std::uint32_t best_qstart = qpos;
  std::uint64_t best_sstart = spos;
  {
    int run = best;
    int left_best = best;
    std::size_t qi = qpos;
    std::size_t si = spos;
    while (qi > 0 && si > 0) {
      if (q[qi - 1] == s[si - 1] && qi >= 8 && si >= 8 &&
          load8(q + qi - 8) == load8(s + si - 8) &&
          self.positive[qi] - self.positive[qi - 8] == 8) {
        run += self.prefix[qi] - self.prefix[qi - 8];
        qi -= 8;
        si -= 8;
        ext.cells += 8;
        if (run > left_best) {
          left_best = run;
          best_qstart = static_cast<std::uint32_t>(qi);
          best_sstart = si;
        }
        continue;
      }
      --qi;
      --si;
      run += matrix.row(q[qi])[s[si]];
      ++ext.cells;
      if (run > left_best) {
        left_best = run;
        best_qstart = static_cast<std::uint32_t>(qi);
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

/// One direction of the gapped pass. Same window walk, same comparisons,
/// same stored H/F values (dead cells clamped to the exact kNegInf
/// sentinel) as the reference oracle's scalar extend_dir, so scores,
/// windows, and tracebacks are bit-identical to it. Mechanical differences
/// only: dead-source arithmetic runs
/// unguarded (the results stay far below any live score, and the only
/// bytes that can differ are traceback directions of dead cells, which
/// the traceback can never visit), the scoring row pointer is hoisted per
/// row, and traceback bytes land in a reusable arena.
DirResult extend_dir_fast(std::span<const std::uint8_t> q,
                          std::span<const std::uint8_t> s,
                          const ScoringMatrix& matrix, int gap_open,
                          int gap_extend, int xdrop, GappedScratch& sc) {
  DirResult result;
  if (q.empty() || s.empty()) return result;

  const std::size_t m = q.size();
  const std::size_t n = s.size();
  const int open_cost = gap_open + gap_extend;

  // Invariant: outside the most recent row's window, H and F hold exactly
  // kNegInf. Newly grown columns start there; per-row clearing and the
  // exit cleanup below restore it before every return.
  if (sc.H.size() < n + 1) {
    sc.H.resize(n + 1, kNegInf);
    sc.F.resize(n + 1, kNegInf);
  }
  int* H = sc.H.data();
  int* F = sc.F.data();
  sc.dirs.clear();
  sc.rows.clear();

  H[0] = 0;
  int best = 0;
  std::size_t best_i = 0, best_j = 0;
  std::size_t prev_lo = 0, prev_hi = 1;
  std::size_t lo = 1;

  auto clear_window = [&](std::size_t a, std::size_t b) {
    for (std::size_t jj = a; jj < b; ++jj) {
      H[jj] = kNegInf;
      F[jj] = kNegInf;
    }
  };

  std::size_t i = 1;
  for (; i <= m && lo <= n; ++i) {
    const std::size_t row_start = sc.dirs.size();
    // Pre-size the traceback row and write through a raw pointer indexed by
    // j: a per-cell push_back would re-check capacity and bump the size on
    // every DP cell. The row is trimmed to the cells actually computed
    // after the early-exit below.
    sc.dirs.resize(row_start + (n - lo + 1));
    std::uint8_t* const dp = sc.dirs.data() + row_start - lo;
    const int* qrow = matrix.row(q[i - 1]);

    int h_diag = H[lo - 1];  // exact kNegInf when lo-1 fell outside the window
    int h_left = kNegInf;
    int e_left = kNegInf;
    std::size_t new_lo = n + 1;
    std::size_t new_hi = lo;
    std::size_t j = lo;

    for (; j <= n; ++j) {
      ++result.cells;
      const int h_up = H[j];
      const int f_up = F[j];

      std::uint8_t dir = 0;
      const int e_open = h_left - open_cost;
      const int e_ext = e_left - gap_extend;
      int e = e_open < e_ext ? e_ext : e_open;
      if (e_ext > e_open) dir |= kEFromE;
      const int f_open = h_up - open_cost;
      const int f_ext = f_up - gap_extend;
      int f = f_open < f_ext ? f_ext : f_open;
      if (f_ext > f_open) dir |= kFFromF;
      const int diag = h_diag + qrow[s[j - 1]];
      int h = diag;
      if (e > h) {
        h = e;
        dir = static_cast<std::uint8_t>((dir & ~kHMask) | kHFromE);
      }
      if (f > h) {
        h = f;
        dir = static_cast<std::uint8_t>((dir & ~kHMask) | kHFromF);
      }

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

      h_diag = h_up;
      h_left = h;
      e_left = e;
      H[j] = h;
      F[j] = f;
      dp[j] = dir;

      if (j >= prev_hi && dead && e == kNegInf) {
        ++j;
        break;
      }
    }

    sc.dirs.resize(row_start + (j - lo));
    sc.rows.push_back({lo, row_start, j - lo});
    if (new_lo >= new_hi) {
      // Every column pruned: restore the all-kNegInf invariant over both
      // the previous window and this row's writes, then stop.
      clear_window(prev_lo, prev_hi);
      clear_window(lo, j);
      prev_hi = prev_lo;  // mark cleaned for the exit path below
      lo = j;
      break;
    }
    // Columns of the previous window this row did not overwrite go back
    // to the sentinel so the next row can read H/F unconditionally.
    clear_window(prev_lo, std::min(prev_hi, lo));
    clear_window(std::max(j, prev_lo), prev_hi);
    prev_lo = lo;
    prev_hi = j;
    lo = new_lo;
  }
  clear_window(prev_lo, prev_hi);  // final computed window

  result.score = best;
  result.qlen = best_i;
  result.slen = best_j;
  if (best_i == 0) return result;

  enum class State { kH, kE, kF };
  State state = State::kH;
  std::size_t ti = best_i, tj = best_j;
  while (ti > 0 || tj > 0) {
    PIOBLAST_CHECK_MSG(ti > 0 && tj > 0, "gapped traceback escaped the matrix");
    const GappedScratch::Row& row = sc.rows[ti - 1];
    PIOBLAST_CHECK_MSG(tj >= row.lo && tj - row.lo < row.len,
                       "gapped traceback outside stored window");
    const std::uint8_t dir = sc.dirs[row.start + (tj - row.lo)];
    switch (state) {
      case State::kH:
        switch (dir & kHMask) {
          case kHFromDiag:
            result.ops.push_back(AlignOp::kMatch);
            --ti;
            --tj;
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
        --tj;
        break;
      case State::kF:
        result.ops.push_back(AlignOp::kInsert);
        state = (dir & kFFromF) ? State::kF : State::kH;
        --ti;
        break;
    }
  }
  std::reverse(result.ops.begin(), result.ops.end());
  return result;
}

}  // namespace

GappedExtension extend_gapped_fast(std::span<const std::uint8_t> query,
                                   std::span<const std::uint8_t> subject,
                                   std::uint32_t anchor_q,
                                   std::uint64_t anchor_s,
                                   const ScoringMatrix& matrix, int gap_open,
                                   int gap_extend, int xdrop,
                                   GappedScratch& scratch) {
  PIOBLAST_CHECK(anchor_q < query.size());
  PIOBLAST_CHECK(anchor_s < subject.size());

  const DirResult right =
      extend_dir_fast(query.subspan(anchor_q), subject.subspan(anchor_s),
                      matrix, gap_open, gap_extend, xdrop, scratch);

  scratch.qrev.assign(query.rend() - static_cast<std::ptrdiff_t>(anchor_q),
                      query.rend());
  scratch.srev.assign(subject.rend() - static_cast<std::ptrdiff_t>(anchor_s),
                      subject.rend());
  const DirResult left = extend_dir_fast(scratch.qrev, scratch.srev, matrix,
                                         gap_open, gap_extend, xdrop, scratch);

  return detail::combine_directions(left, right, anchor_q, anchor_s);
}

}  // namespace pioblast::blast
