#include "blast/extend.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>

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

// ---- the gapped DP in vector lanes ------------------------------------------
//
// A row's cells inside the previous row's window run 16 / sizeof(T) at a
// time in the lanes of a 16-byte GCC vector. On x86-64 that is baseline
// SSE2: no -march flag, no intrinsics header, no runtime dispatch. DESIGN
// "Kernel fast path", item 3, gives the two rewrites that make a row
// data-parallel and why they move no decision.

using I16x8 = std::int16_t __attribute__((vector_size(16)));
using I32x4 = std::int32_t __attribute__((vector_size(16)));
using U128x1 = unsigned __int128 __attribute__((vector_size(16)));
using U8x8 = std::uint8_t __attribute__((vector_size(8)));
using U8x4 = std::uint8_t __attribute__((vector_size(4)));

// Lane 0 is the lowest column and the lowest bits of the 128-bit view.
static_assert(std::endian::native == std::endian::little);

/// One lane width: its vector, the byte-per-lane image of a lane mask, and
/// the limits within which it holds a pass exactly. The limits are the
/// type's, not tuning knobs; the static_asserts below are their
/// derivation.
template <typename T>
struct Lanes;

/// int16 lanes. Stored values are relative to a per-pass bias, the running
/// best at the last re-bias, so they stay small however high the score
/// climbs. Relative to the bias, for a pass within the limits (x = xdrop,
/// o = open + extend, e = extend, s = the matrix's score span):
///  - best lies in [0, kRebias + s]. A row boundary re-biases once best
///    passes kRebias, and no cell of a row exceeds the best before the row
///    by more than one score.
///  - A live H lies in [-x - s, best]: it cleared its floor, best - x, and
///    best rose by at most s between its row's start and the re-bias.
///  - A dead H holds kSentinel, and a live cell's F is at least
///    kSentinel - e (F opened above a dead cell).
template <>
struct Lanes<std::int16_t> {
  using V = I16x8;
  using Bytes = U8x8;
  using Mask = std::uint64_t;
  static constexpr int kSentinel = -(1 << 14);
  static constexpr int kMaxXdrop = 1 << 13;
  static constexpr int kMaxOpenCost = 1 << 10;  ///< gap_open + gap_extend
  static constexpr int kMaxExtend = 1 << 9;
  static constexpr int kMaxScore = 1 << 10;  ///< matrix score span
  static constexpr int kRebias = 1 << 14;    ///< best - bias that shifts
  // The highest value any lane holds is a cell at most one score above
  // the best before its row.
  static_assert(kRebias + kMaxScore <= INT16_MAX);
  // A live H stays above the sentinel through a re-bias, so the re-bias's
  // clamp to kSentinel moves only values below every floor.
  static_assert(-kMaxXdrop - kMaxScore > kSentinel);
};

/// int32 lanes, for passes outside the int16 limits: no bias (scores are
/// ints, as in the oracle) and the oracle's kNegInf sentinel.
template <>
struct Lanes<std::int32_t> {
  using V = I32x4;
  using Bytes = U8x4;
  using Mask = std::uint32_t;
  static constexpr int kSentinel = kNegInf;
  static constexpr int kMaxXdrop = 1 << 28;
  static constexpr int kMaxOpenCost = 1 << 26;
  static constexpr int kMaxExtend = 1 << 26;
  static constexpr int kMaxScore = 1 << 26;
  static constexpr int kRebias = std::numeric_limits<int>::max();  ///< never
};

template <typename T>
constexpr std::size_t kLaneCount = 16 / sizeof(T);

/// The limits both widths share:
///  - Every value derived from a dead cell without passing a live one
///    stays at or below kSentinel + s, under every floor (>= -x), so it
///    can neither keep a cell alive nor raise the best.
///  - The lowest value computed is the E carried into a vector, extended
///    across it: F >= H(up) - o >= kSentinel - o, so E >= DF - o >=
///    kSentinel - 2o, and the carry subtracts up to lanes * e more (a
///    scan step, at most lanes / 2 * e).
template <typename T>
constexpr bool limits_hold() {
  using L = Lanes<T>;
  return L::kSentinel + L::kMaxScore < -L::kMaxXdrop &&
         static_cast<long long>(L::kSentinel) - 2LL * L::kMaxOpenCost -
                 static_cast<long long>(kLaneCount<T>) * L::kMaxExtend >=
             std::numeric_limits<T>::min();
}
static_assert(limits_hold<std::int16_t>() && limits_hold<std::int32_t>());

template <typename T>
bool lanes_hold(const ScoringMatrix& matrix, int gap_open, int gap_extend,
                int xdrop) {
  using L = Lanes<T>;
  return xdrop <= L::kMaxXdrop && gap_extend <= L::kMaxExtend &&
         gap_open <= L::kMaxOpenCost - gap_extend &&
         matrix.score_span() <= L::kMaxScore;
}

/// v's lanes moved k columns up; the k lanes this empties hold 0. Through
/// the one-lane 128-bit view this is a single byte shift (pslldq).
template <int k, typename V>
V lanes_up(V v) {
  auto bits = std::bit_cast<U128x1>(v);
  bits <<= 8 * sizeof(v[0]) * k;
  return std::bit_cast<V>(bits);
}

/// {x, v[0], ..., v[last - 1]}: v one column up, x in the emptied lane.
template <typename V, typename T>
V shift_in(V v, T x) {
  V r = lanes_up<1>(v);
  r[0] = x;
  return r;
}

/// Every lane x.
template <typename V, typename T>
V splat(T x) {
  return V{} + x;
}

template <typename V>
V vmax(V a, V b) {
  return a > b ? a : b;
}

/// Lanes of `a` where `mask` is set, of `b` elsewhere.
template <typename V>
V select(V mask, V a, V b) {
  return (mask & a) | (~mask & b);
}

/// One byte per lane, lane 0 lowest: 0xff where the lane mask is set.
template <typename T>
typename Lanes<T>::Mask lane_bytes(typename Lanes<T>::V mask) {
  return std::bit_cast<typename Lanes<T>::Mask>(
      __builtin_convertvector(mask, typename Lanes<T>::Bytes));
}

template <typename V, typename T>
V load(const T* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename T, typename V>
void store(T* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

/// Replays the direction bytes from the best cell back to the anchor.
void trace_back(const GappedScratch& sc, DirResult& result) {
  enum class State { kH, kE, kF };
  State state = State::kH;
  std::size_t ti = result.qlen, tj = result.slen;
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
}

/// One direction of the gapped pass in T lanes. Same window walk, same
/// live H and F values (dead cells hold the width's exact sentinel), same
/// end cells and same reachable traceback bytes as the reference oracle's
/// scalar extend_dir, so scores, windows, tracebacks and cell counts are
/// bit-identical to it. Each row runs in two parts: the vector loop over
/// the previous row's window, where no cell can end the row, and the
/// scalar per-cell loop past it, which stops at the first dead cell.
template <typename T>
DirResult extend_dir_fast(std::span<const std::uint8_t> q,
                          std::span<const std::uint8_t> s,
                          const ScoringMatrix& matrix, int gap_open,
                          int gap_extend, int xdrop,
                          GappedScratch::Columns<T>& cols, GappedScratch& sc) {
  using V = typename Lanes<T>::V;
  constexpr std::size_t kL = kLaneCount<T>;
  constexpr int kDead = Lanes<T>::kSentinel;

  DirResult result;
  if (q.empty() || s.empty()) return result;

  const std::size_t m = q.size();
  const std::size_t n = s.size();
  const int open_cost = gap_open + gap_extend;

  // Invariant: outside the most recent row's window, H and F hold exactly
  // kDead, through column n + kL - 1 so that a row's last vector may load
  // and store lanes past its window. Newly grown columns start there;
  // per-row clearing and the exit cleanup below restore it before every
  // return. `score` needs no invariant: each row writes the columns of its
  // window, and lanes past it read earlier rows' scores, which it drops.
  if (cols.H.size() < n + kL) {
    cols.H.resize(n + kL, static_cast<T>(kDead));
    cols.F.resize(n + kL, static_cast<T>(kDead));
    cols.score.resize(n + kL);
  }
  T* const H = cols.H.data();
  T* const F = cols.F.data();
  T* const score = cols.score.data();
  sc.rows.clear();
  std::size_t used = 0;  // bytes of sc.dirs holding this pass's rows

  const V v_dead = splat<V>(static_cast<T>(kDead));
  const V v_open = splat<V>(static_cast<T>(open_cost));
  const V v_extend = splat<V>(static_cast<T>(gap_extend));
  const V v_xdrop = splat<V>(static_cast<T>(xdrop));
  // kEFromE is E(j-1) - extend > H(j-1) - open_cost, where H = max(DF,
  // E) unclamped: E beats the E opened from DF (`e > a` below), and beats
  // the E opened from itself, which holds exactly when gap_open > 0.
  const V v_e_from_e = splat<V>(static_cast<T>(gap_open > 0 ? kEFromE : 0));
  const V v_f_from_f = splat<V>(static_cast<T>(kFFromF));
  const V v_h_from_e = splat<V>(static_cast<T>(kHFromE));
  const V v_h_from_f = splat<V>(static_cast<T>(kHFromF));
  // decay[t]: what scan step t, reading 2^t lanes down, subtracts. The
  // lanes the shift empties get the type's maximum, so they hold the
  // lowest value and never win. carry[l]: what an E entering the vector
  // loses by lane l, (l + 1) extensions.
  V lane{};
  V carry{};
  std::array<V, 3> decay{};
  for (std::size_t l = 0; l < kL; ++l) {
    lane[l] = static_cast<T>(l);
    carry[l] = static_cast<T>(static_cast<int>(l + 1) * gap_extend);
    for (std::size_t t = 0; (std::size_t{1} << t) < kL; ++t) {
      const std::size_t k = std::size_t{1} << t;
      decay[t][l] = l < k ? std::numeric_limits<T>::max()
                          : static_cast<T>(static_cast<int>(k) * gap_extend);
    }
  }
  // E(j) = max over k <= j of x[k] - (j - k) * gap_extend.
  const auto e_scan = [&](V x) {
    x = vmax(x, lanes_up<1>(x) - decay[0]);
    x = vmax(x, lanes_up<2>(x) - decay[1]);
    if constexpr (kL == 8) x = vmax(x, lanes_up<4>(x) - decay[2]);
    return x;
  };
  // Running maximum, lane 0 first. The emptied lanes' 0 never wins
  // against the best, which is at least 0.
  const auto max_scan = [](V x) {
    x = vmax(x, lanes_up<1>(x));
    x = vmax(x, lanes_up<2>(x));
    if constexpr (kL == 8) x = vmax(x, lanes_up<4>(x));
    return x;
  };

  H[0] = 0;
  int bias = 0;  // stored values are scores minus bias (int16 lanes only)
  int best = 0;  // relative to bias
  std::size_t best_i = 0, best_j = 0;
  std::size_t prev_lo = 0, prev_hi = 1;
  std::size_t lo = 1;

  auto clear_window = [&](std::size_t a, std::size_t b) {
    std::fill(H + a, H + b, static_cast<T>(kDead));
    std::fill(F + a, F + b, static_cast<T>(kDead));
  };

  for (std::size_t i = 1; i <= m && lo <= n; ++i) {
    // The row may run to column n, and its last vector writes up to
    // kL - 1 bytes past it. The arena only grows, so a byte is
    // initialised once per scratch, not once per row.
    const std::size_t row_start = used;
    const std::size_t row_need = row_start + (n - lo + 1) + kL;
    if (sc.dirs.size() < row_need)
      sc.dirs.resize(std::max(2 * sc.dirs.size(), row_need));
    std::uint8_t* const dp = sc.dirs.data() + row_start - lo;
    const int* qrow = matrix.row(q[i - 1]);
    // Columns [lo, mid) lie inside the previous row's window; lo < prev_hi
    // on every row but the first, and prev_hi <= n + 1.
    const std::size_t mid = prev_hi;
    for (std::size_t j = lo; j < mid; ++j)
      score[j - lo] = static_cast<T>(qrow[s[j - 1]]);
    // The tail's first diagonal source, H(i-1, mid-1), before the vector
    // loop overwrites it.
    int h_diag = H[mid - 1];

    // Part 1, kL columns at a time. Per vector:
    //   F = max(H(up) - open_cost, F(up) - extend), diagonal = H(diag) +
    //   score, DF = max(F, diagonal), the diagonal on a tie;
    //   E(j) = max(DF(j-1) - open_cost, E(j-1) - extend), a prefix scan
    //   that carries the previous vector's last lane in;
    //   H = max(DF, E), unclamped; the floor a cell sees is the running
    //   maximum of H before it (with the best so far) minus xdrop, a
    //   second prefix scan;
    //   a cell below its floor is dead: H and F store the sentinel.
    std::size_t new_lo = n + 1;
    std::size_t new_hi = lo;
    T up_last = H[lo - 1];                           // H(i-1, j0-1)
    T dfo_last = static_cast<T>(kDead - open_cost);  // DF(i, j0-1) - open
    V e = v_dead;  // lane kL - 1: E(i, j0-1)
    V v_best = splat<V>(static_cast<T>(best));
    std::size_t j0 = lo;
    for (; j0 < mid; j0 += kL) {
      const V up = load<V>(H + j0);
      const V f_up = load<V>(F + j0);
      const V f_open = up - v_open;
      const V f_ext = f_up - v_extend;
      const V f = vmax(f_open, f_ext);
      const V diag = shift_in(up, up_last) + load<V>(score + (j0 - lo));
      const V from_f = f > diag;
      const V df = vmax(f, diag);
      const V dfo = df - v_open;
      const V a = shift_in(dfo, dfo_last);  // E opened from column j - 1
      // The scan within the vector, then the E carried in, extended: only
      // the last two steps wait on the previous vector.
      e = vmax(e_scan(a), splat<V>(e[kL - 1]) - carry);
      up_last = up[kL - 1];
      dfo_last = dfo[kL - 1];
      V h = vmax(df, e);
      if (j0 + kL > mid)  // lanes past the window: dead, never the best
        h = select(lane < splat<V>(static_cast<T>(mid - j0)), h, v_dead);
      const V run = max_scan(h);
      const V live = h >= vmax(v_best, lanes_up<1>(run)) - v_xdrop;
      store(H + j0, select(live, h, v_dead));
      store(F + j0, select(live, f, v_dead));
      // Tie order diagonal, then E, then F, each only when strictly
      // greater: E beats a diagonal only when above it, and beats an F
      // (which was strictly above the diagonal) when not below it.
      const V e_wins = e > df + from_f;
      const V dir = ((f_ext > f_open) & v_f_from_f) | ((e > a) & v_e_from_e) |
                    (e_wins & v_h_from_e) | (~e_wins & from_f & v_h_from_f);
      store(dp + j0, __builtin_convertvector(dir, typename Lanes<T>::Bytes));
      const auto live_bytes = lane_bytes<T>(live);
      if (live_bytes != 0) {
        if (new_lo > n) new_lo = j0 + std::countr_zero(live_bytes) / 8;
        new_hi = j0 + kL - std::countl_zero(live_bytes) / 8;
      }
      // The best rises at the first lane holding the vector's maximum.
      const int top = run[kL - 1];
      if (top > best) {
        best = top;
        v_best = splat<V>(static_cast<T>(best));
        best_i = i;
        best_j = j0 + std::countr_zero(lane_bytes<T>(h == v_best)) / 8;
      }
    }

    // Part 2: past the previous row's window, where H and F above are the
    // sentinel, only the diagonal at column mid and the E chain can keep
    // the row alive. The first dead cell ends it: its E is clamped too.
    // It starts from column mid - 1's clamped H and E.
    int h_left = kDead;
    int e_left = kDead;
    if (mid > lo) {
      h_left = H[mid - 1];
      const auto e_lanes = std::bit_cast<std::array<T, kL>>(e);
      if (h_left != kDead) e_left = e_lanes[mid - 1 - (j0 - kL)];
    }
    int floor = best - xdrop;  // a cell scoring below it is dead
    std::size_t j = mid;
    for (; j <= n; ++j) {
      const int h_up = H[j];
      const int f_up = F[j];

      std::uint8_t dir = 0;
      const int e_open = h_left - open_cost;
      const int e_ext = e_left - gap_extend;
      int e_j = e_open < e_ext ? e_ext : e_open;
      if (e_ext > e_open) dir |= kEFromE;
      const int f_open = h_up - open_cost;
      const int f_ext = f_up - gap_extend;
      int f = f_open < f_ext ? f_ext : f_open;
      if (f_ext > f_open) dir |= kFFromF;
      const int diag = h_diag + qrow[s[j - 1]];
      int h = diag;
      if (e_j > h) {
        h = e_j;
        dir = static_cast<std::uint8_t>((dir & ~kHMask) | kHFromE);
      }
      if (f > h) {
        h = f;
        dir = static_cast<std::uint8_t>((dir & ~kHMask) | kHFromF);
      }

      const bool dead = h < floor;
      if (dead) {
        h = kDead;
        e_j = kDead;
        f = kDead;
      } else {
        if (j < new_lo) new_lo = j;
        new_hi = j + 1;
        if (h > best) {
          best = h;
          floor = best - xdrop;
          best_i = i;
          best_j = j;
        }
      }

      h_diag = h_up;
      h_left = h;
      e_left = e_j;
      H[j] = static_cast<T>(h);
      F[j] = static_cast<T>(f);
      dp[j] = dir;

      if (dead) {
        ++j;
        break;
      }
    }

    result.cells += j - lo;
    sc.rows.push_back({lo, row_start, j - lo});
    used += j - lo;
    if (new_lo >= new_hi) {
      // Every column pruned: restore the all-sentinel invariant over both
      // the previous window and this row's writes, then stop. The last
      // vector's lanes past the row stored the sentinel already.
      clear_window(prev_lo, prev_hi);
      clear_window(lo, j);
      prev_hi = prev_lo;  // mark cleaned for the exit path below
      break;
    }
    // Columns of the previous window this row did not overwrite go back
    // to the sentinel so the next row can read H/F unconditionally. The
    // row always reaches prev_hi, so only columns left of lo remain.
    clear_window(prev_lo, lo);
    prev_lo = lo;
    prev_hi = j;
    lo = new_lo;
    if (best > Lanes<T>::kRebias) {
      // Re-bias: the window moves down by the best. A value that would
      // fall below the sentinel lies below every floor and is an F (a live
      // H never does); the sentinel stands for it exactly.
      for (std::size_t jj = prev_lo; jj < prev_hi; ++jj) {
        H[jj] = static_cast<T>(std::max(H[jj] - best, kDead));
        F[jj] = static_cast<T>(std::max(F[jj] - best, kDead));
      }
      bias += best;
      best = 0;
    }
  }
  clear_window(prev_lo, prev_hi);  // final computed window

  result.score = bias + best;
  result.qlen = best_i;
  result.slen = best_j;
  if (best_i != 0) trace_back(sc, result);
  return result;
}

template <typename T>
GappedExtension extend_gapped_lanes(std::span<const std::uint8_t> query,
                                    std::span<const std::uint8_t> subject,
                                    std::uint32_t anchor_q,
                                    std::uint64_t anchor_s,
                                    const ScoringMatrix& matrix, int gap_open,
                                    int gap_extend, int xdrop,
                                    GappedScratch::Columns<T>& cols,
                                    GappedScratch& scratch) {
  const DirResult right = extend_dir_fast<T>(
      query.subspan(anchor_q), subject.subspan(anchor_s), matrix, gap_open,
      gap_extend, xdrop, cols, scratch);

  scratch.qrev.assign(query.rend() - static_cast<std::ptrdiff_t>(anchor_q),
                      query.rend());
  scratch.srev.assign(subject.rend() - static_cast<std::ptrdiff_t>(anchor_s),
                      subject.rend());
  const DirResult left =
      extend_dir_fast<T>(scratch.qrev, scratch.srev, matrix, gap_open,
                         gap_extend, xdrop, cols, scratch);

  return detail::combine_directions(left, right, anchor_q, anchor_s);
}

}  // namespace

bool gapped_fits_int16(const ScoringMatrix& matrix, int gap_open,
                       int gap_extend, int xdrop) {
  return lanes_hold<std::int16_t>(matrix, gap_open, gap_extend, xdrop);
}

GappedExtension extend_gapped_fast(std::span<const std::uint8_t> query,
                                   std::span<const std::uint8_t> subject,
                                   std::uint32_t anchor_q,
                                   std::uint64_t anchor_s,
                                   const ScoringMatrix& matrix, int gap_open,
                                   int gap_extend, int xdrop,
                                   GappedScratch& scratch) {
  PIOBLAST_CHECK(anchor_q < query.size());
  PIOBLAST_CHECK(anchor_s < subject.size());
  PIOBLAST_CHECK_MSG(gap_open >= 0 && gap_extend >= 0 && xdrop >= 0,
                     "gapped extension needs non-negative gap costs and xdrop");
  PIOBLAST_CHECK_MSG(
      lanes_hold<std::int32_t>(matrix, gap_open, gap_extend, xdrop),
      "gapped extension parameters exceed the int32 lanes' limits");
  if (gapped_fits_int16(matrix, gap_open, gap_extend, xdrop))
    return extend_gapped_lanes<std::int16_t>(query, subject, anchor_q,
                                             anchor_s, matrix, gap_open,
                                             gap_extend, xdrop,
                                             scratch.narrow, scratch);
  return extend_gapped_lanes<std::int32_t>(query, subject, anchor_q, anchor_s,
                                           matrix, gap_open, gap_extend, xdrop,
                                           scratch.wide, scratch);
}

}  // namespace pioblast::blast
