// NCBI-style pairwise output formatting.
//
// Both drivers emit the same text through these functions — mpiBLAST's
// master formats everything centrally, pioBLAST's workers format their own
// alignments into memory buffers (paper §3.2: a "modified NCBI BLAST output
// routine that redirects the formatted result data from file output to
// memory buffers"; the simulated workers size every block with
// alignment_size and render only the ones the master selects) — so the
// final output files are byte-identical, which the integration tests
// assert. All numeric rendering is locale-free and deterministic.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "blast/hsp.h"
#include "blast/stats.h"
#include "seqdb/alphabet.h"
#include "seqdb/fasta.h"

namespace pioblast::blast {

/// Renders an E-value the way NCBI BLAST does ("3e-31", "0.001", "2.5").
std::string format_evalue(double e);

/// Per-query report header: query defline/length plus database statistics.
/// Master-computable without any alignment bodies (pioBLAST needs this to
/// derive output offsets before workers write).
std::string format_query_header(const seqdb::FastaRecord& query,
                                const std::string& db_title,
                                const GlobalDbStats& db,
                                std::uint64_t reported_alignments);

/// One alignment block: subject defline, score/identity lines, and the
/// 60-column Query/midline/Sbjct panels.
std::string format_alignment(const Hsp& hsp, seqdb::SeqType type,
                             std::span<const std::uint8_t> query_residues,
                             std::span<const std::uint8_t> subject_residues,
                             std::string_view subject_defline,
                             std::uint64_t subject_length,
                             const ScoringMatrix& matrix);

/// `format_alignment(...).size()` for the same arguments, computed from the
/// HSP's numbers and traceback without rendering a residue. It rejects an
/// out-of-range residue code exactly as format_alignment does, so a
/// corrupt byte fails a block that is sized but never written.
std::uint64_t alignment_size(const Hsp& hsp, seqdb::SeqType type,
                             std::span<const std::uint8_t> query_residues,
                             std::span<const std::uint8_t> subject_residues,
                             std::string_view subject_defline,
                             std::uint64_t subject_length,
                             const ScoringMatrix& matrix);

/// Footer line appended when a query matched nothing.
std::string format_no_hits();

// ---- tabular output (blastall -m8/-m9 style) ------------------------------

/// First whitespace-delimited token of a defline (the sequence id).
std::string_view defline_id(std::string_view defline);

/// Per-query comment block (-m9 style): query, database, field names.
std::string format_tabular_query_header(const seqdb::FastaRecord& query,
                                        const std::string& db_title,
                                        std::uint64_t reported_alignments);

/// One tab-separated hit line: query id, subject id, % identity, alignment
/// length, mismatches, gap openings, q.start, q.end, s.start, s.end,
/// e-value, bit score. Coordinates are 1-based inclusive as in blastall.
std::string format_tabular_line(const Hsp& hsp, std::string_view query_id,
                                std::string_view subject_defline);

}  // namespace pioblast::blast
