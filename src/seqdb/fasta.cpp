#include "seqdb/fasta.h"

#include <cctype>

#include "util/error.h"

namespace pioblast::seqdb {

namespace {

[[noreturn]] void malformed(std::size_t line, const std::string& what) {
  throw util::RuntimeError("FASTA line " + std::to_string(line) + ": " + what);
}

}  // namespace

std::vector<FastaRecord> parse_fasta(std::string_view text) {
  std::vector<FastaRecord> records;
  FastaRecord current;
  bool in_record = false;
  std::size_t lineno = 0;
  std::size_t defline_at = 0;  ///< line of the current record's defline
  const auto close_record = [&] {
    if (current.sequence.empty())
      malformed(defline_at, "record '" + current.id + "' has no residues");
    records.push_back(std::move(current));
    current = {};
  };

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    // Trim a trailing CR (CRLF input) and trailing spaces.
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
      line.remove_suffix(1);
    }
    if (line.empty()) continue;

    if (line.front() == '>') {
      if (in_record) close_record();
      in_record = true;
      defline_at = lineno;
      std::string_view defline = line.substr(1);
      while (!defline.empty() && defline.front() == ' ') defline.remove_prefix(1);
      if (defline.empty()) malformed(lineno, "empty defline");
      const std::size_t space = defline.find_first_of(" \t");
      if (space == std::string_view::npos) {
        current.id = std::string(defline);
      } else {
        current.id = std::string(defline.substr(0, space));
        std::string_view rest = defline.substr(space + 1);
        while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t'))
          rest.remove_prefix(1);
        current.description = std::string(rest);
      }
    } else {
      if (!in_record) malformed(lineno, "sequence data before the first defline");
      for (char c : line) {
        if (std::isspace(static_cast<unsigned char>(c))) continue;
        current.sequence.push_back(c);
      }
    }
  }
  if (in_record) close_record();
  return records;
}

std::vector<FastaRecord> parse_fasta(std::span<const std::uint8_t> bytes) {
  return parse_fasta(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                      bytes.size()));
}

std::string write_fasta(const std::vector<FastaRecord>& records, int width) {
  PIOBLAST_CHECK(width > 0);
  std::string out;
  for (const FastaRecord& rec : records) {
    out.push_back('>');
    out += rec.defline();
    out.push_back('\n');
    for (std::size_t i = 0; i < rec.sequence.size();
         i += static_cast<std::size_t>(width)) {
      out += rec.sequence.substr(i, static_cast<std::size_t>(width));
      out.push_back('\n');
    }
  }
  return out;
}

}  // namespace pioblast::seqdb
