// Search job description shared by the mpiBLAST and pioBLAST drivers.
#pragma once

#include <string>

#include "blast/hsp.h"
#include "seqdb/alphabet.h"

namespace pioblast::blast {

/// Report rendering style (blastall's default pairwise view vs -m8/-m9
/// tab-separated hit tables).
enum class OutputFormat {
  kPairwise = 0,
  kTabular = 1,
};

/// Everything a parallel search run needs to know. The same JobConfig can
/// be handed to either driver; both read the query file from the shared
/// file system and write the (identical) report to `output_path`.
struct JobConfig {
  std::string db_base = "nr";            ///< formatted database base name
  std::string db_title = "synthetic nr"; ///< title printed in query headers
  std::string query_path = "queries.fa"; ///< FASTA query set on the shared FS
  std::string output_path = "results.txt";
  SearchParams params = SearchParams::blastp_defaults();
  OutputFormat output_format = OutputFormat::kPairwise;
  /// Number of database fragments. For mpiBLAST this must match the
  /// physical fragment count produced by mpiformatdb; for pioBLAST it is
  /// the number of *virtual* fragments (0 = natural partitioning: one
  /// fragment per worker).
  int nfragments = 0;

  /// The number of fragments a job with `nworkers` workers splits the
  /// database into: nfragments, or one per worker when it is 0.
  int fragments_for(int nworkers) const {
    return nfragments > 0 ? nfragments : nworkers;
  }
};

}  // namespace pioblast::blast
