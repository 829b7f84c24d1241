#include "blast/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace pioblast::blast {

ScoringMatrix make_matrix(const SearchParams& params) {
  return params.type == seqdb::SeqType::kProtein
             ? ScoringMatrix::blosum62()
             : ScoringMatrix::dna(params.dna_match, params.dna_mismatch);
}

QueryContext::QueryContext(std::uint32_t query_id,
                           std::span<const std::uint8_t> residues,
                           const SearchParams& params, const ScoringMatrix& matrix,
                           const GlobalDbStats& db)
    : query_id_(query_id),
      residues_(residues.begin(), residues.end()),
      params_(params),
      matrix_(matrix),
      db_(db),
      flat_(residues_, matrix, params),
      self_(residues_, matrix),
      adjust_(length_adjustment(matrix.gapped(), residues_.size(), db)) {
  PIOBLAST_CHECK_MSG(
      std::isfinite(params.evalue_cutoff) && params.evalue_cutoff > 0,
      "E-value cutoff must be finite and positive, got "
          << params.evalue_cutoff);
  // Smallest raw score that can still reach the E-value cutoff:
  //   E = K m' n' exp(-lambda S) <= E0  =>  S >= ln(K m' n' / E0) / lambda.
  const KarlinParams& kp = matrix.gapped();
  const double m_eff = static_cast<double>(
      std::max<std::uint64_t>(residues_.size() - adjust_, 1));
  const double n_eff = static_cast<double>(std::max<std::uint64_t>(
      db.total_residues > db.num_seqs * adjust_
          ? db.total_residues - db.num_seqs * adjust_
          : 1,
      1));
  const double s = std::log(kp.K * m_eff * n_eff / params.evalue_cutoff) / kp.lambda;
  // A cutoff below ~1e-300 overflows the ratio to +inf: clamp it into
  // int range before the cast.
  const double max_score = std::numeric_limits<int>::max();
  cutoff_score_ = std::max(
      params.cutoff_score_min,
      static_cast<int>(std::ceil(std::clamp(s, 1.0, max_score))));
}

}  // namespace pioblast::blast
