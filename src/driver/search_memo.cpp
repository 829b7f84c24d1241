#include "driver/search_memo.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace pioblast::driver {

namespace {

/// 64-bit digest of a fragment's sequence count, lengths and residues (not
/// its deflines, which no search reads). Every step is a bijection of the
/// running state for a given input word, so two fragments that differ in
/// one residue always get different digests.
std::uint64_t content_digest(const seqdb::LoadedFragment& fragment) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0x100000001b3ULL;
    h ^= h >> 32;
  };
  mix(fragment.num_seqs());
  for (std::uint64_t local = 0; local < fragment.num_seqs(); ++local) {
    const std::span<const std::uint8_t> s = fragment.sequence(local);
    mix(s.size());
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, s.data() + i, 8);
      mix(word);
    }
    if (i < s.size()) {
      std::uint64_t tail = 0;
      std::memcpy(&tail, s.data() + i, s.size() - i);
      mix(tail);
    }
  }
  return h;
}

}  // namespace

void SearchMemo::fill(const blast::PreparedBatch& queries,
                      std::vector<seqdb::LoadedFragment> fragments) {
  std::sort(fragments.begin(), fragments.end(),
            [](const seqdb::LoadedFragment& a, const seqdb::LoadedFragment& b) {
              return a.first_global_seq() < b.first_global_seq();
            });
  std::vector<std::vector<blast::FragmentSearchResult>> results =
      blast::search_fragments(queries, fragments);
  entries_ = std::vector<Entry>(fragments.size());
  for (std::size_t f = 0; f < fragments.size(); ++f) {
    entries_[f].first_seq = fragments[f].first_global_seq();
    entries_[f].digest = content_digest(fragments[f]);
    entries_[f].results = std::move(results[f]);
  }
}

std::optional<std::vector<blast::FragmentSearchResult>> SearchMemo::take(
    const seqdb::LoadedFragment& fragment) {
  const std::uint64_t first = fragment.first_global_seq();
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), first,
      [](const Entry& e, std::uint64_t seq) { return e.first_seq < seq; });
  // Only the one exchange that flips the flag reads the results.
  if (it != entries_.end() && it->first_seq == first &&
      it->digest == content_digest(fragment) && !it->taken.exchange(true))
    return std::move(it->results);
  misses_.fetch_add(1);
  return std::nullopt;
}

}  // namespace pioblast::driver
