#include "blast/format.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "blast/scoring.h"
#include "util/error.h"

namespace pioblast::blast {

std::string format_evalue(double e) {
  char buf[64];
  if (e <= 0 || e < 1e-180) {
    return "0.0";
  }
  if (e < 1e-4) {
    std::snprintf(buf, sizeof buf, "%.0e", e);
    // Normalize exponent form: "3e-31" not "3e-031".
    std::string s = buf;
    const auto epos = s.find('e');
    if (epos != std::string::npos) {
      std::string mant = s.substr(0, epos);
      std::string exp = s.substr(epos + 1);
      bool neg = false;
      std::size_t i = 0;
      if (!exp.empty() && (exp[0] == '-' || exp[0] == '+')) {
        neg = exp[0] == '-';
        i = 1;
      }
      while (i < exp.size() - 1 && exp[i] == '0') ++i;
      s = mant + "e" + (neg ? "-" : "") + exp.substr(i);
    }
    return s;
  }
  if (e < 0.1) {
    std::snprintf(buf, sizeof buf, "%.3f", e);
  } else if (e < 10) {
    std::snprintf(buf, sizeof buf, "%.1f", e);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", e);
  }
  return buf;
}

namespace {

/// Thousands-separated integer, NCBI header style ("1,986,684").
std::string with_commas(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  const std::size_t n = digits.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && (n - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace

std::string format_query_header(const seqdb::FastaRecord& query,
                                const std::string& db_title,
                                const GlobalDbStats& db,
                                std::uint64_t reported_alignments) {
  std::string out;
  out += "Query= " + query.defline() + "\n";
  out += "         (" + with_commas(query.sequence.size()) + " letters)\n\n";
  out += "Database: " + db_title + "\n";
  out += "           " + with_commas(db.num_seqs) + " sequences; " +
         with_commas(db.total_residues) + " total letters\n\n";
  out += "Sequences producing significant alignments: " +
         std::to_string(reported_alignments) + "\n\n";
  return out;
}

std::string format_no_hits() { return " ***** No hits found ******\n\n"; }

std::string_view defline_id(std::string_view defline) {
  const auto space = defline.find_first_of(" \t");
  return space == std::string_view::npos ? defline : defline.substr(0, space);
}

std::string format_tabular_query_header(const seqdb::FastaRecord& query,
                                        const std::string& db_title,
                                        std::uint64_t reported_alignments) {
  std::string out;
  out += "# Query: " + query.defline() + "\n";
  out += "# Database: " + db_title + "\n";
  out += "# Fields: Query id, Subject id, % identity, alignment length, "
         "mismatches, gap openings, q. start, q. end, s. start, s. end, "
         "e-value, bit score\n";
  out += "# " + std::to_string(reported_alignments) + " hits found\n";
  return out;
}

std::string format_tabular_line(const Hsp& hsp, std::string_view query_id,
                                std::string_view subject_defline) {
  // Gap openings = number of maximal indel runs in the traceback.
  std::uint32_t gap_openings = 0;
  bool in_gap = false;
  for (AlignOp op : hsp.ops) {
    if (op == AlignOp::kMatch) {
      in_gap = false;
    } else if (!in_gap) {
      ++gap_openings;
      in_gap = true;
    }
  }
  const std::uint32_t alen = std::max<std::uint32_t>(hsp.align_len, 1);
  const std::uint32_t mismatches = hsp.align_len - hsp.identities - hsp.gaps;
  const std::string_view subject_id = defline_id(subject_defline);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%.*s\t%.*s\t%.2f\t%u\t%u\t%u\t%u\t%u\t%llu\t%llu\t%s\t%.1f\n",
                static_cast<int>(query_id.size()), query_id.data(),
                static_cast<int>(subject_id.size()), subject_id.data(),
                100.0 * hsp.identities / alen, hsp.align_len, mismatches,
                gap_openings, hsp.qstart + 1, hsp.qend,
                static_cast<unsigned long long>(hsp.sstart + 1),
                static_cast<unsigned long long>(hsp.send),
                format_evalue(hsp.evalue).c_str(), hsp.bits);
  return buf;
}

namespace {

/// An alignment's three residue rows, one column per traceback op.
struct Rows {
  std::string query, mid, subject;
};

/// Decodes every residue the traceback aligns, in traceback order, into
/// the three rows; decode_residue rejects an out-of-range code (a corrupt
/// .psq byte).
Rows decode_rows(const Hsp& hsp, seqdb::SeqType type,
                 std::span<const std::uint8_t> query_residues,
                 std::span<const std::uint8_t> subject_residues,
                 const ScoringMatrix& matrix) {
  Rows rows;
  rows.query.reserve(hsp.ops.size());
  rows.mid.reserve(hsp.ops.size());
  rows.subject.reserve(hsp.ops.size());
  std::uint32_t qi = hsp.qstart;
  std::uint64_t si = hsp.sstart;
  for (AlignOp op : hsp.ops) {
    switch (op) {
      case AlignOp::kMatch: {
        const std::uint8_t a = query_residues[qi];
        const std::uint8_t b = subject_residues[si];
        const char qc = seqdb::decode_residue(type, a);
        const char sc = seqdb::decode_residue(type, b);
        rows.query.push_back(qc);
        rows.subject.push_back(sc);
        if (a == b) {
          rows.mid.push_back(type == seqdb::SeqType::kProtein ? qc : '|');
        } else if (type == seqdb::SeqType::kProtein && matrix.score(a, b) > 0) {
          rows.mid.push_back('+');
        } else {
          rows.mid.push_back(' ');
        }
        ++qi;
        ++si;
        break;
      }
      case AlignOp::kInsert:
        rows.query.push_back(seqdb::decode_residue(type, query_residues[qi]));
        rows.mid.push_back(' ');
        rows.subject.push_back('-');
        ++qi;
        break;
      case AlignOp::kDelete:
        rows.query.push_back('-');
        rows.mid.push_back(' ');
        rows.subject.push_back(seqdb::decode_residue(type, subject_residues[si]));
        ++si;
        break;
    }
  }
  return rows;
}

/// The one layout of an alignment block: subject defline, score and
/// identity lines, then 60-column Query/midline/Sbjct panels. Appends the
/// block to `out`, reading its columns from `rows`, or, when `out` is null,
/// only measures it and reads no row. Returns the block's length.
std::uint64_t write_block(std::string* out, const Hsp& hsp, const Rows& rows,
                          std::string_view subject_defline,
                          std::uint64_t subject_length) {
  std::uint64_t size = 0;
  const auto put = [&](std::string_view text) {
    size += text.size();
    if (out != nullptr) out->append(text);
  };
  const auto put_columns = [&](const std::string& row, std::size_t off,
                               std::size_t len) {
    size += len;
    if (out != nullptr) out->append(row, off, len);
  };

  put(">");
  put(subject_defline);
  put("\n");
  put("          Length = ");
  put(with_commas(subject_length));
  put("\n\n");

  char line[160];
  std::snprintf(line, sizeof line, " Score = %.1f bits (%d), Expect = %s\n",
                hsp.bits, hsp.score, format_evalue(hsp.evalue).c_str());
  put(line);
  const std::uint32_t alen = std::max<std::uint32_t>(hsp.align_len, 1);
  std::snprintf(line, sizeof line,
                " Identities = %u/%u (%u%%), Positives = %u/%u (%u%%), "
                "Gaps = %u/%u (%u%%)\n\n",
                hsp.identities, hsp.align_len, 100 * hsp.identities / alen,
                hsp.positives, hsp.align_len, 100 * hsp.positives / alen,
                hsp.gaps, hsp.align_len, 100 * hsp.gaps / alen);
  put(line);

  // printf's "%-*u": the number left-justified in at least `width` columns.
  const auto put_number = [&](std::uint64_t v, std::size_t width) {
    char digits[24];
    const auto n = static_cast<std::size_t>(
        std::to_chars(digits, digits + sizeof digits, v).ptr - digits);
    put(std::string_view(digits, n));
    if (n < width) put(std::string_view("     ", width - n));
  };

  constexpr std::size_t kWidth = 60;
  std::uint32_t qcursor = hsp.qstart;
  std::uint64_t scursor = hsp.sstart;
  for (std::size_t off = 0; off < hsp.ops.size(); off += kWidth) {
    const std::size_t len = std::min(kWidth, hsp.ops.size() - off);
    std::uint32_t qconsumed = 0;
    std::uint64_t sconsumed = 0;
    for (std::size_t i = off; i < off + len; ++i) {
      qconsumed += hsp.ops[i] != AlignOp::kDelete;
      sconsumed += hsp.ops[i] != AlignOp::kInsert;
    }

    put("Query: ");
    put_number(qcursor + 1, 5);
    put(" ");
    put_columns(rows.query, off, len);
    put(" ");
    put_number(qcursor + qconsumed, 0);
    put("\n             ");
    put_columns(rows.mid, off, len);
    put("\nSbjct: ");
    put_number(scursor + 1, 5);
    put(" ");
    put_columns(rows.subject, off, len);
    put(" ");
    put_number(scursor + sconsumed, 0);
    put("\n\n");
    qcursor += qconsumed;
    scursor += sconsumed;
  }
  put("\n");
  return size;
}

}  // namespace

std::string format_alignment(const Hsp& hsp, seqdb::SeqType type,
                             std::span<const std::uint8_t> query_residues,
                             std::span<const std::uint8_t> subject_residues,
                             std::string_view subject_defline,
                             std::uint64_t subject_length,
                             const ScoringMatrix& matrix) {
  const Rows rows =
      decode_rows(hsp, type, query_residues, subject_residues, matrix);
  std::string out;
  write_block(&out, hsp, rows, subject_defline, subject_length);
  return out;
}

std::uint64_t alignment_size(const Hsp& hsp, seqdb::SeqType type,
                             std::span<const std::uint8_t> query_residues,
                             std::span<const std::uint8_t> subject_residues,
                             std::string_view subject_defline,
                             std::uint64_t subject_length,
                             const ScoringMatrix& matrix) {
  // The aligned spans hold exactly the residues rendering decodes. When
  // one of them is out of range, render: decode_residue then rejects the
  // first bad code in traceback order, with its own message.
  const auto qlen = static_cast<std::size_t>(
      std::count_if(hsp.ops.begin(), hsp.ops.end(),
                    [](AlignOp op) { return op != AlignOp::kDelete; }));
  const auto slen = static_cast<std::size_t>(
      std::count_if(hsp.ops.begin(), hsp.ops.end(),
                    [](AlignOp op) { return op != AlignOp::kInsert; }));
  const auto in_alphabet = [&](std::span<const std::uint8_t> codes) {
    const int size = seqdb::alphabet_size(type);
    return std::all_of(codes.begin(), codes.end(),
                       [&](std::uint8_t c) { return c < size; });
  };
  if (!in_alphabet(query_residues.subspan(hsp.qstart, qlen)) ||
      !in_alphabet(subject_residues.subspan(hsp.sstart, slen)))
    format_alignment(hsp, type, query_residues, subject_residues,
                     subject_defline, subject_length, matrix);
  return write_block(nullptr, hsp, Rows{}, subject_defline, subject_length);
}

}  // namespace pioblast::blast
