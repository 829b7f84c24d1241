#include "seqdb/alphabet.h"

#include <array>
#include <cctype>

#include "util/error.h"

namespace pioblast::seqdb {

namespace {

constexpr int kProteinSize = 24;  // ARNDCQEGHILKMFPSTWYVBZX*
constexpr int kDnaSize = 5;       // ACGTN
constexpr std::uint8_t kProteinX = 22;
constexpr std::uint8_t kDnaN = 4;

/// Byte -> code: each letter and its lower case to its index in `letters`,
/// every other byte to `wildcard`. Built at compile time, so it needs no
/// guard and no locale.
constexpr std::array<std::uint8_t, 256> make_encode_table(
    std::string_view letters, std::uint8_t wildcard) {
  std::array<std::uint8_t, 256> table{};
  table.fill(wildcard);
  for (std::size_t i = 0; i < letters.size(); ++i) {
    const auto c = static_cast<unsigned char>(letters[i]);
    table[c] = static_cast<std::uint8_t>(i);
    if (c >= 'A' && c <= 'Z') table[c - 'A' + 'a'] = static_cast<std::uint8_t>(i);
  }
  return table;
}

constexpr auto kProteinCodes = make_encode_table(kProteinLetters, kProteinX);
constexpr auto kDnaCodes = make_encode_table(kDnaLetters, kDnaN);

const std::array<std::uint8_t, 256>& codes_of(SeqType type) {
  return type == SeqType::kProtein ? kProteinCodes : kDnaCodes;
}

}  // namespace

int alphabet_size(SeqType type) {
  return type == SeqType::kProtein ? kProteinSize : kDnaSize;
}

std::uint8_t encode_residue(SeqType type, char c) {
  return codes_of(type)[static_cast<unsigned char>(c)];
}

char decode_residue(SeqType type, std::uint8_t code) {
  const std::string_view letters =
      type == SeqType::kProtein ? kProteinLetters : kDnaLetters;
  PIOBLAST_CHECK_MSG(code < letters.size(), "residue code out of range: "
                                                << static_cast<int>(code));
  return letters[code];
}

std::vector<std::uint8_t> encode_sequence(SeqType type, std::string_view seq) {
  const std::array<std::uint8_t, 256>& table = codes_of(type);
  std::vector<std::uint8_t> codes(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i)
    codes[i] = table[static_cast<unsigned char>(seq[i])];
  return codes;
}

std::string decode_sequence(SeqType type, const std::vector<std::uint8_t>& codes) {
  std::string out;
  out.reserve(codes.size());
  for (auto code : codes) out.push_back(decode_residue(type, code));
  return out;
}

bool is_valid_letter(SeqType type, char c) {
  const char upper = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  const std::string_view letters =
      type == SeqType::kProtein ? kProteinLetters : kDnaLetters;
  return letters.find(upper) != std::string_view::npos;
}

}  // namespace pioblast::seqdb
