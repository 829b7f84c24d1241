// Wire serialization of HSPs and candidate metadata.
//
// mpiBLAST workers ship *entire* local result alignments to the master
// (WireCodec<Hsp>); pioBLAST workers ship only the small
// CandidateMeta records (paper §3.2: "alignment identifications, necessary
// scores, and alignment output sizes"), keeping bodies — and the formatted
// text — cached locally. The size difference between the two encodings is
// precisely the message-volume reduction the paper claims.
#pragma once

#include <cstdint>
#include <vector>

#include "blast/hsp.h"
#include "mpisim/wire.h"

namespace pioblast::blast {

/// Lean candidate record — the pioBLAST result-submission record. Fixed
/// size (48 bytes on the wire), independent of alignment length.
struct CandidateMeta {
  std::uint32_t query_id = 0;
  std::uint32_t local_index = 0;  ///< index into the owner's result cache
  std::uint64_t subject_global_id = 0;
  std::int32_t score = 0;
  std::int32_t owner = 0;  ///< worker rank holding the cached body
  double evalue = 0.0;
  std::uint64_t output_size = 0;  ///< formatted alignment text bytes
  std::uint32_t qstart = 0;       ///< tie-break
  std::uint32_t sstart32 = 0;     ///< tie-break (truncated subject start)

  /// Total order consistent with Hsp::better so both drivers select the
  /// same winners.
  static bool better(const CandidateMeta& a, const CandidateMeta& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.evalue != b.evalue) return a.evalue < b.evalue;
    if (a.subject_global_id != b.subject_global_id)
      return a.subject_global_id < b.subject_global_id;
    if (a.qstart != b.qstart) return a.qstart < b.qstart;
    return a.sstart32 < b.sstart32;
  }
};

}  // namespace pioblast::blast

namespace pioblast::mpisim {

/// Full HSP (with traceback) — the mpiBLAST result-submission record.
template <>
struct WireCodec<blast::Hsp> {
  static void encode(Encoder& enc, const blast::Hsp& h) {
    enc.put(h.query_id)
        .put(h.subject_global_id)
        .put(h.qstart)
        .put(h.qend)
        .put(h.sstart)
        .put(h.send)
        .put(h.score)
        .put(h.bits)
        .put(h.evalue)
        .put(h.identities)
        .put(h.positives)
        .put(h.gaps)
        .put(h.align_len);
    std::vector<std::uint8_t> ops(h.ops.size());
    for (std::size_t i = 0; i < h.ops.size(); ++i)
      ops[i] = static_cast<std::uint8_t>(h.ops[i]);
    enc.put_vector(ops);
  }

  static blast::Hsp decode(Decoder& dec) {
    blast::Hsp h;
    h.query_id = dec.get<std::uint32_t>();
    h.subject_global_id = dec.get<std::uint64_t>();
    h.qstart = dec.get<std::uint32_t>();
    h.qend = dec.get<std::uint32_t>();
    h.sstart = dec.get<std::uint64_t>();
    h.send = dec.get<std::uint64_t>();
    h.score = dec.get<std::int32_t>();
    h.bits = dec.get<double>();
    h.evalue = dec.get<double>();
    h.identities = dec.get<std::uint32_t>();
    h.positives = dec.get<std::uint32_t>();
    h.gaps = dec.get<std::uint32_t>();
    h.align_len = dec.get<std::uint32_t>();
    const auto ops = dec.get_vector<std::uint8_t>();
    h.ops.reserve(ops.size());
    for (std::uint8_t op : ops) h.ops.push_back(static_cast<blast::AlignOp>(op));
    return h;
  }
};

/// The lean pioBLAST result-submission record, 48 bytes.
template <>
struct WireCodec<blast::CandidateMeta> {
  static void encode(Encoder& enc, const blast::CandidateMeta& c) {
    enc.put(c.query_id)
        .put(c.local_index)
        .put(c.subject_global_id)
        .put(c.score)
        .put(c.owner)
        .put(c.evalue)
        .put(c.output_size)
        .put(c.qstart)
        .put(c.sstart32);
  }

  static blast::CandidateMeta decode(Decoder& dec) {
    blast::CandidateMeta c;
    c.query_id = dec.get<std::uint32_t>();
    c.local_index = dec.get<std::uint32_t>();
    c.subject_global_id = dec.get<std::uint64_t>();
    c.score = dec.get<std::int32_t>();
    c.owner = dec.get<std::int32_t>();
    c.evalue = dec.get<double>();
    c.output_size = dec.get<std::uint64_t>();
    c.qstart = dec.get<std::uint32_t>();
    c.sstart32 = dec.get<std::uint32_t>();
    return c;
  }
};

}  // namespace pioblast::mpisim
