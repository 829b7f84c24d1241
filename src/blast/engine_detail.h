// Internals the search kernel (kernel_fast.cpp, extend.cpp) shares with
// the scalar reference oracle the kernel tests compare it against
// (tests/support/scalar_oracle.h). Both must make identical decisions from
// identical state — the differential tests compare their outputs byte for
// byte — so the explored-envelope and containment rules, HSP annotation,
// the gapped pass's sentinel and traceback encoding, and the step that
// joins its two directions live here once rather than being duplicated.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "blast/extend.h"
#include "blast/hsp.h"
#include "blast/scoring.h"
#include "util/error.h"

namespace pioblast::blast::detail {

/// Region some gapped extension already explored for the current subject —
/// including extensions whose score fell below the cutoffs. Seeds inside an
/// explored envelope are skipped; without this, a weak homolog (below the
/// reporting cutoff) would re-run a near-full-length gapped DP for every
/// one of its seeds.
struct Envelope {
  std::uint32_t qstart, qend;
  std::uint64_t sstart, send;
};

/// Fills identity/positive/gap counts by replaying the traceback.
inline void annotate_alignment(Hsp& hsp, std::span<const std::uint8_t> query,
                               std::span<const std::uint8_t> subject,
                               const ScoringMatrix& matrix) {
  std::uint32_t qi = hsp.qstart;
  std::uint64_t si = hsp.sstart;
  hsp.identities = 0;
  hsp.positives = 0;
  hsp.gaps = 0;
  hsp.align_len = static_cast<std::uint32_t>(hsp.ops.size());
  for (AlignOp op : hsp.ops) {
    switch (op) {
      case AlignOp::kMatch: {
        const std::uint8_t a = query[qi];
        const std::uint8_t b = subject[si];
        if (a == b) ++hsp.identities;
        if (matrix.score(a, b) > 0) ++hsp.positives;
        ++qi;
        ++si;
        break;
      }
      case AlignOp::kInsert:
        ++hsp.gaps;
        ++qi;
        break;
      case AlignOp::kDelete:
        ++hsp.gaps;
        ++si;
        break;
    }
  }
  PIOBLAST_CHECK_MSG(qi == hsp.qend && si == hsp.send,
                     "traceback does not span the HSP coordinates");
}

/// True if `a` is contained within `b`'s envelope on both sequences.
inline bool contained_in(const Hsp& a, const Hsp& b) {
  return a.qstart >= b.qstart && a.qend <= b.qend && a.sstart >= b.sstart &&
         a.send <= b.send;
}

/// Score of a dead DP cell. Far enough from INT_MIN that subtracting gap
/// costs from it cannot overflow.
inline constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

/// Traceback direction bits for one gapped DP cell.
///   bits 0-1: source of H (0 = diagonal, 1 = E, 2 = F)
///   bit 2:    E extends a previous E (else opens from H)
///   bit 3:    F extends a previous F (else opens from H)
enum : std::uint8_t {
  kHFromDiag = 0,
  kHFromE = 1,
  kHFromF = 2,
  kHMask = 3,
  kEFromE = 4,
  kFFromF = 8,
};

/// One direction of gapped extension: aligns prefixes of q and s starting
/// at the implicit anchor (0,0); the first move must be diagonal (no
/// leading gaps, as in BLAST's anchored extension).
struct DirResult {
  int score = 0;
  std::size_t qlen = 0;  ///< query residues consumed to the best cell
  std::size_t slen = 0;  ///< subject residues consumed
  std::vector<AlignOp> ops;
  std::uint64_t cells = 0;
};

/// Joins the leftward pass (run on reversed prefixes, so its ops read away
/// from the anchor) and the rightward pass into one extension.
inline GappedExtension combine_directions(const DirResult& left,
                                          const DirResult& right,
                                          std::uint32_t anchor_q,
                                          std::uint64_t anchor_s) {
  GappedExtension out;
  out.score = left.score + right.score;
  out.cells = left.cells + right.cells;
  out.qstart = anchor_q - static_cast<std::uint32_t>(left.qlen);
  out.sstart = anchor_s - left.slen;
  out.qend = anchor_q + static_cast<std::uint32_t>(right.qlen);
  out.send = anchor_s + right.slen;
  out.ops.reserve(left.ops.size() + right.ops.size());
  out.ops.assign(left.ops.rbegin(), left.ops.rend());
  out.ops.insert(out.ops.end(), right.ops.begin(), right.ops.end());
  return out;
}

}  // namespace pioblast::blast::detail
