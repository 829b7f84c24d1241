// Database partitioning: physical (mpiformatdb) and virtual (pioBLAST).
//
// Both partitioners split at sequence boundaries and balance fragments by
// residue count, so a fragment's search cost is roughly proportional to its
// share of the database. The virtual partitioner (paper §3.1) never writes
// fragment files: it turns the global index into per-fragment byte ranges
// of the shared volumes, which workers read directly with parallel I/O —
// "one set of global formatted database files can be partitioned
// dynamically into an arbitrary number of virtual fragments at execution
// time".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpisim/wire.h"
#include "pario/collective.h"
#include "pario/vfs.h"
#include "seqdb/formatdb.h"

namespace pioblast::seqdb {

/// Half-open range of sequence ordinals [first, first + count).
struct SeqRange {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

/// Splits `num_seqs` sequences into `nfragments` ranges balanced by
/// residues (each fragment gets consecutive sequences whose residue total
/// approximates total/nfragments). Throws if nfragments exceeds num_seqs.
std::vector<SeqRange> balanced_split(const DbIndex& index, int nfragments);

/// One virtual fragment: byte ranges into the three global volume files.
struct FragmentRange {
  int fragment_id = 0;
  SeqRange seqs;
  pario::Region psq;           ///< residues of the fragment in <base>.psq
  pario::Region phr;           ///< deflines of the fragment in <base>.phr
  pario::Region pin_seq_off;   ///< the fragment's slice of seq_offsets in .pin
  pario::Region pin_hdr_off;   ///< the fragment's slice of hdr_offsets in .pin
};

/// Computes the virtual fragment ranges for a formatted database. The
/// index slices cover count+1 offsets so workers can rebase locally.
std::vector<FragmentRange> virtual_partition(const DbIndex& index, int nfragments);

/// Reconstructs a LoadedFragment from the raw byte slices a worker read
/// from the global volume files (pioBLAST's input stage).
LoadedFragment fragment_from_slices(const DbIndex& header, const FragmentRange& range,
                                    std::vector<std::uint8_t> pin_seq_off_bytes,
                                    std::vector<std::uint8_t> pin_hdr_off_bytes,
                                    std::vector<std::uint8_t> psq_bytes,
                                    std::vector<std::uint8_t> phr_bytes);

/// mpiformatdb: formats and statically partitions a database into
/// `nfragments` physical fragment volume sets `<base>.NNN.*` on `fs`.
/// Returns the per-fragment bases in fragment order plus the global index.
struct StaticPartitionResult {
  std::vector<std::string> fragment_bases;
  std::vector<SeqRange> ranges;
  DbIndex global_index;
  std::uint64_t bytes_written = 0;
};
StaticPartitionResult mpiformatdb(pario::VirtualFS& fs,
                                  const std::vector<FastaRecord>& records,
                                  const std::string& base, SeqType type,
                                  const std::string& title, int nfragments);

}  // namespace pioblast::seqdb

namespace pioblast::mpisim {

/// The one wire encoding of a FragmentRange, used wherever a range
/// crosses a simulated message boundary. Field-by-field so the wire size
/// is exact (no struct padding).
template <>
struct WireCodec<seqdb::FragmentRange> {
  static void encode(Encoder& enc, const seqdb::FragmentRange& r);
  static seqdb::FragmentRange decode(Decoder& dec);
};

}  // namespace pioblast::mpisim
