#include "blast/fragment_index.h"

#include "util/error.h"

namespace pioblast::blast {

FragmentIndex::FragmentIndex(const seqdb::LoadedFragment& fragment,
                             const SearchParams& params, std::uint64_t lo,
                             std::uint64_t hi)
    : is_dna_(params.type == seqdb::SeqType::kNucleotide),
      word_size_(params.word_size),
      lo_(lo) {
  PIOBLAST_CHECK_MSG(!is_dna_ || (word_size_ >= 4 && word_size_ <= 31),
                     "blastn word size must be in [4,31]");
  PIOBLAST_CHECK_MSG(is_dna_ || word_size_ == 3, "blastp word size must be 3");

  PIOBLAST_CHECK(lo <= hi && hi <= fragment.num_seqs());
  starts_.reserve(hi - lo + 1);
  starts_.push_back(0);
  const std::size_t w = static_cast<std::size_t>(word_size_);

  // Size the code array up front: growing it sequence by sequence with
  // exact-fit reserves would reallocate (and copy the whole prefix) on
  // every sequence, turning the build quadratic in fragment size.
  std::size_t total_words = 0;
  for (std::uint64_t local = lo; local < hi; ++local) {
    const std::size_t slen = fragment.sequence(local).size();
    total_words += slen >= w ? slen - w + 1 : 0;
  }
  if (is_dna_) {
    codes64_.reserve(total_words);
  } else {
    codes32_.reserve(total_words);
  }

  for (std::uint64_t local = lo; local < hi; ++local) {
    const std::span<const std::uint8_t> s = fragment.sequence(local);
    const std::size_t nwords = s.size() >= w ? s.size() - w + 1 : 0;
    if (!is_dna_) {
      if (nwords > 0) {
        // Rolling base-24 pack: drop the leading residue, shift, append.
        std::uint32_t code = (static_cast<std::uint32_t>(s[0]) * 24u +
                              static_cast<std::uint32_t>(s[1])) *
                                 24u +
                             static_cast<std::uint32_t>(s[2]);
        codes32_.push_back(code);
        for (std::size_t pos = 1; pos < nwords; ++pos) {
          code = (code - static_cast<std::uint32_t>(s[pos - 1]) * 576u) * 24u +
                 static_cast<std::uint32_t>(s[pos + 2]);
          codes32_.push_back(code);
        }
      }
      starts_.push_back(codes32_.size());
    } else {
      const std::size_t base = codes64_.size();
      codes64_.resize(base + nwords, kInvalidWord);
      std::uint64_t* const codes = codes64_.data() + base;
      for_each_dna_word(s, word_size_, [codes](std::size_t pos,
                                               std::uint64_t word) {
        codes[pos] = word;
      });
      starts_.push_back(codes64_.size());
    }
  }
}

}  // namespace pioblast::blast
