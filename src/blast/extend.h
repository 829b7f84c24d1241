// Seed extension: ungapped X-drop and gapped affine-cost X-drop DP.
//
// Mirrors the NCBI BLAST pipeline stages: a two-hit-triggered seed is first
// extended without gaps along its diagonal; if the ungapped score reaches
// the gap trigger, a gapped extension runs in both directions from an
// anchor inside the ungapped segment, with traceback so the final HSP
// carries a full alignment (needed for output formatting and identity
// counts). Cell counters feed the deterministic compute-cost model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "blast/hsp.h"
#include "blast/scoring.h"

namespace pioblast::blast {

/// Result of an ungapped X-drop extension around a seed.
struct UngappedExtension {
  int score = 0;
  std::uint32_t qstart = 0, qend = 0;  ///< half-open on the query
  std::uint64_t sstart = 0, send = 0;  ///< half-open on the subject
  std::uint64_t cells = 0;             ///< residue pairs examined
};

/// Result of a gapped extension (both directions combined).
struct GappedExtension {
  int score = 0;
  std::uint32_t qstart = 0, qend = 0;
  std::uint64_t sstart = 0, send = 0;
  std::vector<AlignOp> ops;  ///< traceback from (qstart,sstart) to (qend,send)
  std::uint64_t cells = 0;   ///< DP cells evaluated (both directions)
};

// The extensions below give bit-identical outputs (scores, coordinates,
// tracebacks, cell counts) to the scalar extend_ungapped / extend_gapped of
// the reference oracle in tests/support/ — the differential kernel tests
// enforce this. The speed
// comes from mechanical restructuring only: SWAR 8-residue skips over
// identical diagonal runs (ungapped), hoisted scoring-matrix row pointers,
// and reusable DP scratch with a flat traceback arena instead of per-cell
// vector growth (gapped).

/// Per-query precomputation for the SWAR ungapped skip: prefix sums of the
/// query's self-alignment scores and a prefix count of positions whose
/// self score is strictly positive. An 8-residue block may be skipped only
/// when the subject bytes are identical AND every self score in the block
/// is positive, which makes the scalar loop's running score strictly
/// monotone across the block (no X-drop, best always at the block end).
struct SelfScoreProfile {
  std::vector<int> prefix;            ///< prefix[i] = sum self scores < i
  std::vector<std::uint32_t> positive;///< positive[i] = count positive < i

  SelfScoreProfile() = default;
  SelfScoreProfile(std::span<const std::uint8_t> query,
                   const ScoringMatrix& matrix);
};

/// Extends the `word_size` seed at (qpos, spos) along its diagonal in both
/// directions, stopping when the running score drops `xdrop` below the
/// best.
UngappedExtension extend_ungapped_fast(std::span<const std::uint8_t> query,
                                       std::span<const std::uint8_t> subject,
                                       std::uint32_t qpos, std::uint64_t spos,
                                       int word_size,
                                       const ScoringMatrix& matrix, int xdrop,
                                       const SelfScoreProfile& self);

/// Reusable DP buffers for extend_gapped_fast; one per searching thread.
/// Holding the arena across calls removes per-cell push_backs and per-call
/// row allocations.
struct GappedScratch {
  std::vector<int> H, F;
  std::vector<std::uint8_t> dirs;  ///< traceback bytes, all rows contiguous
  struct Row {
    std::size_t lo;     ///< first column of the row's window
    std::size_t start;  ///< offset of the row's bytes in `dirs`
    std::size_t len;
  };
  std::vector<Row> rows;
  std::vector<std::uint8_t> qrev, srev;  ///< reversed prefixes (left pass)
};

/// Gapped X-drop extension anchored at the aligned pair (anchor_q,
/// anchor_s), which must lie inside a seeded match. Gap costs follow the
/// NCBI convention: a gap of length k costs open + k * extend.
GappedExtension extend_gapped_fast(std::span<const std::uint8_t> query,
                                   std::span<const std::uint8_t> subject,
                                   std::uint32_t anchor_q,
                                   std::uint64_t anchor_s,
                                   const ScoringMatrix& matrix, int gap_open,
                                   int gap_extend, int xdrop,
                                   GappedScratch& scratch);

}  // namespace pioblast::blast
