#include "seqdb/formatdb.h"

#include <algorithm>
#include <cstring>

#include "util/error.h"

namespace pioblast::seqdb {

namespace {
constexpr std::uint32_t kMagic = 0x42444250;  // "PBDB"
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kTitleBytes = 64;
}  // namespace

std::vector<std::uint8_t> DbIndex::serialize() const {
  PIOBLAST_CHECK(seq_offsets.size() == num_seqs + 1);
  PIOBLAST_CHECK(hdr_offsets.size() == num_seqs + 1);
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + (num_seqs + 1) * 16);

  // Resize plus memcpy: g++ 12 at -O3 misreads an inlined vector::insert
  // of a few bytes as an overflow.
  auto put_raw = [&](const void* data, std::size_t n) {
    const std::size_t at = out.size();
    out.resize(at + n);
    std::memcpy(out.data() + at, data, n);
  };
  auto put_u32 = [&](std::uint32_t v) { put_raw(&v, 4); };
  auto put_u64 = [&](std::uint64_t v) { put_raw(&v, 8); };

  put_u32(kMagic);
  put_u32(kVersion);
  put_u32(static_cast<std::uint32_t>(type));
  put_u32(0);  // reserved
  put_u64(num_seqs);
  put_u64(total_residues);
  put_u64(max_seq_len);
  char title_buf[kTitleBytes] = {};
  std::memcpy(title_buf, title.data(), std::min(title.size(), kTitleBytes - 1));
  put_raw(title_buf, kTitleBytes);
  PIOBLAST_CHECK(out.size() == kHeaderBytes);

  for (std::uint64_t v : seq_offsets) put_u64(v);
  for (std::uint64_t v : hdr_offsets) put_u64(v);
  return out;
}

DbIndex DbIndex::deserialize_header(std::span<const std::uint8_t> bytes) {
  PIOBLAST_CHECK_MSG(bytes.size() >= kHeaderBytes, "index file too small");
  auto get_u32 = [&](std::size_t pos) {
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + pos, 4);
    return v;
  };
  auto get_u64 = [&](std::size_t pos) {
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + pos, 8);
    return v;
  };
  PIOBLAST_CHECK_MSG(get_u32(0) == kMagic, "bad index magic");
  PIOBLAST_CHECK_MSG(get_u32(4) == kVersion, "bad index version");
  DbIndex idx;
  idx.type = static_cast<SeqType>(get_u32(8));
  idx.num_seqs = get_u64(16);
  idx.total_residues = get_u64(24);
  idx.max_seq_len = get_u64(32);
  const char* title_ptr = reinterpret_cast<const char*>(bytes.data() + 40);
  idx.title.assign(title_ptr, strnlen(title_ptr, kTitleBytes));
  return idx;
}

DbIndex DbIndex::deserialize(std::span<const std::uint8_t> bytes) {
  DbIndex idx = deserialize_header(bytes);
  const std::uint64_t n = idx.num_seqs;
  PIOBLAST_CHECK_MSG(bytes.size() >= kHeaderBytes + (n + 1) * 16,
                     "index file truncated");
  idx.seq_offsets.resize(n + 1);
  idx.hdr_offsets.resize(n + 1);
  std::memcpy(idx.seq_offsets.data(), bytes.data() + kHeaderBytes, (n + 1) * 8);
  std::memcpy(idx.hdr_offsets.data(), bytes.data() + kHeaderBytes + (n + 1) * 8,
              (n + 1) * 8);
  return idx;
}

VolumeNames volume_names(const std::string& base, SeqType type) {
  if (type == SeqType::kProtein)
    return {base + ".pin", base + ".psq", base + ".phr"};
  return {base + ".nin", base + ".nsq", base + ".nhr"};
}

FormatDbResult format_db(pario::VirtualFS& fs, const std::vector<FastaRecord>& records,
                         const std::string& base, SeqType type,
                         const std::string& title) {
  PIOBLAST_CHECK_MSG(!records.empty(), "formatdb: empty database");
  DbIndex idx;
  idx.type = type;
  idx.title = title;
  idx.num_seqs = records.size();
  idx.seq_offsets.reserve(records.size() + 1);
  idx.hdr_offsets.reserve(records.size() + 1);

  std::vector<std::uint8_t> psq;
  std::vector<std::uint8_t> phr;
  std::uint64_t raw_bytes = 0;

  idx.seq_offsets.push_back(0);
  idx.hdr_offsets.push_back(0);
  for (const FastaRecord& rec : records) {
    const auto codes = encode_sequence(type, rec.sequence);
    psq.insert(psq.end(), codes.begin(), codes.end());
    const std::string defline = rec.defline();
    phr.insert(phr.end(), defline.begin(), defline.end());
    idx.seq_offsets.push_back(psq.size());
    idx.hdr_offsets.push_back(phr.size());
    idx.max_seq_len = std::max<std::uint64_t>(idx.max_seq_len, codes.size());
    raw_bytes += rec.sequence.size() + defline.size() + 3;  // '>' + newlines
  }
  idx.total_residues = psq.size();

  const VolumeNames names = volume_names(base, type);
  fs.write_all(names.index, idx.serialize());
  fs.write_all(names.sequence, psq);
  fs.write_all(names.header, phr);

  FormatDbResult result;
  result.base = base;
  result.index = std::move(idx);
  result.raw_bytes = raw_bytes;
  result.formatted_bytes =
      fs.size(names.index) + fs.size(names.sequence) + fs.size(names.header);
  return result;
}

FormatDbResult format_db_from_file(pario::VirtualFS& fs, const std::string& raw_path,
                                   const std::string& base, SeqType type,
                                   const std::string& title) {
  const auto raw = fs.read_all(raw_path);
  auto records = parse_fasta(raw);
  auto result = format_db(fs, records, base, type, title);
  result.raw_bytes = raw.size();
  return result;
}

LoadedFragment::LoadedFragment(SeqType type, std::uint64_t first_global_seq,
                               std::vector<std::uint64_t> seq_offsets,
                               std::vector<std::uint64_t> hdr_offsets,
                               std::vector<std::uint8_t> psq,
                               std::vector<std::uint8_t> phr)
    : type_(type),
      first_global_seq_(first_global_seq),
      seq_offsets_(std::move(seq_offsets)),
      hdr_offsets_(std::move(hdr_offsets)),
      psq_(std::move(psq)),
      phr_(std::move(phr)) {
  PIOBLAST_CHECK_MSG(seq_offsets_.size() >= 2, "fragment must hold >= 1 sequence");
  PIOBLAST_CHECK(hdr_offsets_.size() == seq_offsets_.size());
  // Rebase offsets so the first sequence starts at 0 in the local buffers.
  const std::uint64_t seq_base = seq_offsets_.front();
  const std::uint64_t hdr_base = hdr_offsets_.front();
  for (auto& v : seq_offsets_) v -= seq_base;
  for (auto& v : hdr_offsets_) v -= hdr_base;
  PIOBLAST_CHECK_MSG(seq_offsets_.back() == psq_.size(),
                     "sequence buffer size mismatch: offsets say "
                         << seq_offsets_.back() << ", buffer has " << psq_.size());
  PIOBLAST_CHECK_MSG(hdr_offsets_.back() == phr_.size(),
                     "header buffer size mismatch");
}

std::span<const std::uint8_t> LoadedFragment::sequence(std::uint64_t local) const {
  PIOBLAST_CHECK(local < num_seqs());
  return std::span(psq_.data() + seq_offsets_[local],
                   seq_offsets_[local + 1] - seq_offsets_[local]);
}

std::string_view LoadedFragment::defline(std::uint64_t local) const {
  PIOBLAST_CHECK(local < num_seqs());
  return std::string_view(
      reinterpret_cast<const char*>(phr_.data() + hdr_offsets_[local]),
      hdr_offsets_[local + 1] - hdr_offsets_[local]);
}

LoadedFragment load_volumes(const pario::VirtualFS& fs, const std::string& base,
                            SeqType type, std::uint64_t first_global_seq) {
  const VolumeNames names = volume_names(base, type);
  const DbIndex idx = DbIndex::deserialize(fs.read_all(names.index));
  return LoadedFragment(type, first_global_seq, idx.seq_offsets, idx.hdr_offsets,
                        fs.read_all(names.sequence), fs.read_all(names.header));
}

}  // namespace pioblast::seqdb
