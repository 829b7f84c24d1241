// Driver protocol message types and their wire codecs.
//
// Every structured message the drivers exchange (beyond the generic work
// queue in work_queue.h) is a named struct here with a field-by-field
// WireCodec, replacing the anonymous Encoder/Decoder sequences that used to
// live inline in each driver.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpisim/wire.h"
#include "seqdb/partition.h"

namespace pioblast::driver {

/// Sentinel local index closing one query's fetch-serving loop.
inline constexpr std::uint32_t kEndOfQuery = 0xFFFFFFFFu;

/// mpiBLAST master -> worker: fetch the subject data of one cached hit.
///
/// Baseline-fidelity note: mpiBLAST 1.2.1's fetch request also carried the
/// query id, which the worker never needed (its serving loop is already
/// per-query). That redundant field has been dropped from the wire format;
/// the serialized round-trip structure — the bottleneck the paper measures
/// — is unchanged.
struct FetchRequest {
  std::uint32_t local_index = 0;  ///< index into the worker's per-query hits

  bool end_of_query() const { return local_index == kEndOfQuery; }
};

/// mpiBLAST worker -> master: one subject's defline and residues.
struct FetchResponse {
  std::string defline;
  std::uint64_t subject_len = 0;
  std::vector<std::uint8_t> residues;
};

/// pioBLAST master -> worker: the worker's static virtual-fragment plan.
struct RangeAssignment {
  std::uint32_t total_fragments = 0;  ///< job-wide virtual fragment count
  /// Collective-input rounds all ranks must join: the maximum per-worker
  /// range count (equals ceil(total/nworkers) for round-robin, but can be
  /// larger under speed-weighted plans).
  std::uint32_t rounds = 0;
  std::vector<seqdb::FragmentRange> ranges;  ///< this worker's, in order
};

/// pioBLAST master -> worker: which cached output buffers to write where.
struct OutputSelection {
  struct Slot {
    std::uint32_t local_index = 0;  ///< into the worker's per-query hits
    std::uint64_t offset = 0;       ///< absolute output-file byte offset
  };
  std::vector<Slot> slots;
};

}  // namespace pioblast::driver

namespace pioblast::mpisim {

template <>
struct WireCodec<driver::FetchRequest> {
  static void encode(Encoder& enc, const driver::FetchRequest& r) {
    enc.put(r.local_index);
  }
  static driver::FetchRequest decode(Decoder& dec) {
    return {dec.get<std::uint32_t>()};
  }
};

template <>
struct WireCodec<driver::FetchResponse> {
  static void encode(Encoder& enc, const driver::FetchResponse& r) {
    enc.put_string(r.defline);
    enc.put(r.subject_len);
    enc.put_bytes(r.residues);
  }
  static driver::FetchResponse decode(Decoder& dec) {
    driver::FetchResponse r;
    r.defline = dec.get_string();
    r.subject_len = dec.get<std::uint64_t>();
    r.residues = dec.get_bytes();
    return r;
  }
};

template <>
struct WireCodec<driver::RangeAssignment> {
  static void encode(Encoder& enc, const driver::RangeAssignment& a) {
    enc.put(a.total_fragments).put(a.rounds);
    enc.put(static_cast<std::uint32_t>(a.ranges.size()));
    for (const auto& r : a.ranges) enc.put_obj(r);
  }
  static driver::RangeAssignment decode(Decoder& dec) {
    driver::RangeAssignment a;
    a.total_fragments = dec.get<std::uint32_t>();
    a.rounds = dec.get<std::uint32_t>();
    const auto count = dec.get<std::uint32_t>();
    a.ranges.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
      a.ranges.push_back(dec.get_obj<seqdb::FragmentRange>());
    return a;
  }
};

template <>
struct WireCodec<driver::OutputSelection> {
  static void encode(Encoder& enc, const driver::OutputSelection& s) {
    enc.put(static_cast<std::uint32_t>(s.slots.size()));
    for (const auto& slot : s.slots) enc.put(slot.local_index).put(slot.offset);
  }
  static driver::OutputSelection decode(Decoder& dec) {
    driver::OutputSelection s;
    const auto count = dec.get<std::uint32_t>();
    s.slots.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      driver::OutputSelection::Slot slot;
      slot.local_index = dec.get<std::uint32_t>();
      slot.offset = dec.get<std::uint64_t>();
      s.slots.push_back(slot);
    }
    return s;
  }
};

}  // namespace pioblast::mpisim
