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
// enforce this. The speed comes from restructuring that moves no decision.
// The ungapped pass skips 8 identical residues at a time. The gapped DP
// computes each row's cells inside the previous row's window 8 (or 4) at a
// time in the lanes of a 16-byte vector, its E chain and X-drop floor as
// prefix scans (DESIGN "Kernel fast path", item 3), and reuses scratch
// with a traceback arena that only grows.

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

/// Reusable DP buffers for extend_gapped_fast; one per chunk of subjects a
/// kernel task scans. Holding them across calls removes per-cell
/// push_backs and per-call allocations; the buffers only grow, and only
/// the lane width a call runs at allocates.
struct GappedScratch {
  /// One lane width's columns: H and F of the most recent row, and the
  /// row's diagonal scores.
  template <typename T>
  struct Columns {
    std::vector<T> H, F, score;
  };
  Columns<std::int16_t> narrow;  ///< passes within the int16 bound
  Columns<std::int32_t> wide;    ///< every other pass
  std::vector<std::uint8_t> dirs;  ///< traceback bytes, all rows contiguous
  struct Row {
    std::size_t lo;     ///< first column of the row's window
    std::size_t start;  ///< offset of the row's bytes in `dirs`
    std::size_t len;
  };
  std::vector<Row> rows;
  std::vector<std::uint8_t> qrev, srev;  ///< reversed prefixes (left pass)
};

/// True when extend_gapped_fast runs a pass with these parameters in
/// int16 lanes: xdrop <= 8192, gap_open + gap_extend <= 1024,
/// gap_extend <= 512 and matrix.score_span() <= 1024. Every other pass
/// runs in int32 lanes. Either width gives the same result.
bool gapped_fits_int16(const ScoringMatrix& matrix, int gap_open,
                       int gap_extend, int xdrop);

/// Gapped X-drop extension anchored at the aligned pair (anchor_q,
/// anchor_s), which must lie inside a seeded match. Gap costs follow the
/// NCBI convention: a gap of length k costs open + k * extend. gap_open,
/// gap_extend and xdrop must not be negative.
GappedExtension extend_gapped_fast(std::span<const std::uint8_t> query,
                                   std::span<const std::uint8_t> subject,
                                   std::uint32_t anchor_q,
                                   std::uint64_t anchor_s,
                                   const ScoringMatrix& matrix, int gap_open,
                                   int gap_extend, int xdrop,
                                   GappedScratch& scratch);

}  // namespace pioblast::blast
