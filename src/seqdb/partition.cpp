#include "seqdb/partition.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/error.h"

namespace pioblast::seqdb {

std::vector<SeqRange> balanced_split(const DbIndex& index, int nfragments) {
  PIOBLAST_CHECK_MSG(nfragments >= 1, "need at least one fragment");
  PIOBLAST_CHECK_MSG(static_cast<std::uint64_t>(nfragments) <= index.num_seqs,
                     "cannot split " << index.num_seqs << " sequences into "
                                     << nfragments << " fragments");
  const std::uint64_t n = index.num_seqs;
  const std::uint64_t total = index.total_residues;
  std::vector<SeqRange> ranges;
  ranges.reserve(static_cast<std::size_t>(nfragments));

  std::uint64_t next_seq = 0;
  for (int f = 0; f < nfragments; ++f) {
    // Residue budget boundary for the end of fragment f.
    const std::uint64_t budget_end =
        total * static_cast<std::uint64_t>(f + 1) /
        static_cast<std::uint64_t>(nfragments);
    std::uint64_t end = next_seq;
    // Every remaining fragment must get at least one sequence.
    const std::uint64_t max_end = n - static_cast<std::uint64_t>(nfragments - 1 - f);
    while (end < max_end &&
           (end < next_seq + 1 || index.seq_offsets[end] < budget_end)) {
      ++end;
    }
    ranges.push_back({next_seq, end - next_seq});
    next_seq = end;
  }
  // Give any tail to the last fragment (possible when budgets round down).
  ranges.back().count += n - next_seq;
  return ranges;
}

std::vector<FragmentRange> virtual_partition(const DbIndex& index, int nfragments) {
  const auto splits = balanced_split(index, nfragments);
  std::vector<FragmentRange> out;
  out.reserve(splits.size());
  for (int f = 0; f < nfragments; ++f) {
    const SeqRange& s = splits[static_cast<std::size_t>(f)];
    FragmentRange fr;
    fr.fragment_id = f;
    fr.seqs = s;
    const std::uint64_t lo = s.first;
    const std::uint64_t hi = s.first + s.count;
    fr.psq = {index.seq_offsets[lo], index.seq_offsets[hi] - index.seq_offsets[lo]};
    fr.phr = {index.hdr_offsets[lo], index.hdr_offsets[hi] - index.hdr_offsets[lo]};
    // Slices cover count+1 entries so the worker has both boundaries.
    fr.pin_seq_off = {DbIndex::seq_offsets_pos(lo), (s.count + 1) * 8};
    fr.pin_hdr_off = {DbIndex::hdr_offsets_pos(index.num_seqs, lo),
                      (s.count + 1) * 8};
    out.push_back(fr);
  }
  return out;
}

LoadedFragment fragment_from_slices(const DbIndex& header, const FragmentRange& range,
                                    std::vector<std::uint8_t> pin_seq_off_bytes,
                                    std::vector<std::uint8_t> pin_hdr_off_bytes,
                                    std::vector<std::uint8_t> psq_bytes,
                                    std::vector<std::uint8_t> phr_bytes) {
  const std::uint64_t entries = range.seqs.count + 1;
  PIOBLAST_CHECK_MSG(pin_seq_off_bytes.size() == entries * 8,
                     "sequence-offset slice size mismatch");
  PIOBLAST_CHECK_MSG(pin_hdr_off_bytes.size() == entries * 8,
                     "header-offset slice size mismatch");
  std::vector<std::uint64_t> seq_off(entries);
  std::vector<std::uint64_t> hdr_off(entries);
  std::memcpy(seq_off.data(), pin_seq_off_bytes.data(), entries * 8);
  std::memcpy(hdr_off.data(), pin_hdr_off_bytes.data(), entries * 8);
  return LoadedFragment(header.type, range.seqs.first, std::move(seq_off),
                        std::move(hdr_off), std::move(psq_bytes),
                        std::move(phr_bytes));
}

StaticPartitionResult mpiformatdb(pario::VirtualFS& fs,
                                  const std::vector<FastaRecord>& records,
                                  const std::string& base, SeqType type,
                                  const std::string& title, int nfragments) {
  // Step 1: format the whole database (mpiformatdb wraps formatdb).
  auto formatted = format_db(fs, records, base, type, title);
  const DbIndex& index = formatted.index;
  const auto splits = balanced_split(index, nfragments);

  // Step 2: write one physical volume set per fragment.
  StaticPartitionResult result;
  result.global_index = index;
  result.ranges = splits;
  for (int f = 0; f < nfragments; ++f) {
    const SeqRange& s = splits[static_cast<std::size_t>(f)];
    char suffix[16];
    std::snprintf(suffix, sizeof suffix, ".%03d", f);
    const std::string frag_base = base + suffix;

    std::vector<FastaRecord> slice(
        records.begin() + static_cast<std::ptrdiff_t>(s.first),
        records.begin() + static_cast<std::ptrdiff_t>(s.first + s.count));
    auto frag = format_db(fs, slice, frag_base, type,
                          title + " fragment " + std::to_string(f));
    result.fragment_bases.push_back(frag_base);
    result.bytes_written += frag.formatted_bytes;
  }
  return result;
}

}  // namespace pioblast::seqdb

namespace pioblast::mpisim {

void WireCodec<seqdb::FragmentRange>::encode(Encoder& enc,
                                             const seqdb::FragmentRange& r) {
  enc.put(r.fragment_id)
      .put(r.seqs.first)
      .put(r.seqs.count)
      .put(r.psq.offset)
      .put(r.psq.length)
      .put(r.phr.offset)
      .put(r.phr.length)
      .put(r.pin_seq_off.offset)
      .put(r.pin_seq_off.length)
      .put(r.pin_hdr_off.offset)
      .put(r.pin_hdr_off.length);
}

seqdb::FragmentRange WireCodec<seqdb::FragmentRange>::decode(Decoder& dec) {
  seqdb::FragmentRange r;
  r.fragment_id = dec.get<int>();
  r.seqs.first = dec.get<std::uint64_t>();
  r.seqs.count = dec.get<std::uint64_t>();
  r.psq.offset = dec.get<std::uint64_t>();
  r.psq.length = dec.get<std::uint64_t>();
  r.phr.offset = dec.get<std::uint64_t>();
  r.phr.length = dec.get<std::uint64_t>();
  r.pin_seq_off.offset = dec.get<std::uint64_t>();
  r.pin_seq_off.length = dec.get<std::uint64_t>();
  r.pin_hdr_off.offset = dec.get<std::uint64_t>();
  r.pin_hdr_off.length = dec.get<std::uint64_t>();
  return r;
}

}  // namespace pioblast::mpisim
