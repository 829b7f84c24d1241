// Schedule traces: the replayable record of a cooperative run.
//
// A trace is the sequence of scheduling decisions the CoopScheduler made at
// points where more than one rank was runnable (single-choice points are
// omitted — they are forced, so recording them would only bloat traces).
// The text form is a comma-separated rank list ("0,2,1,1,0"), accepted by
// the CLI's --schedule flag and printed in failure reports.
#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace pioblast::mpicheck {

/// One recorded decision: at the `index`-th multi-choice point the
/// scheduler picked `rank` out of `enabled`.
struct Decision {
  int rank = -1;
  std::vector<int> enabled;  ///< runnable ranks at the decision, ascending
};

/// The decision sequence of one run (multi-choice points only).
using Schedule = std::vector<Decision>;

/// "0,2,1" — just the chosen ranks; enabled sets are not serialized
/// (replay re-derives them and falls back gracefully on divergence).
std::string format_schedule(const Schedule& schedule);

/// Parses the comma-separated rank list; each rank lies in [0, nranks).
/// Throws util::RuntimeError on anything else (non-integer or empty
/// fields, ranks outside the job).
Schedule parse_schedule(std::string_view text,
                        int nranks = std::numeric_limits<int>::max());

}  // namespace pioblast::mpicheck
