// SearchMemo: a job's fragment searches, run on every core before its
// ranks start.
//
// The kernel is a pure function of (prepared query batch, fragment bytes),
// and once partitioning is done the set of fragments a job searches is
// fixed. So each driver lists those fragments on the host, MasterWorkerApp
// fills this memo with one blast::search_fragments call (every chunk of
// every fragment on one fork-join pass, so thousands of sub-grain fragments
// keep every core busy), and SearchStage::search_slot takes its fragment's
// results from the memo instead of calling the kernel. A take hands back
// exactly what the kernel would have returned, so ranks, messages,
// virtual-time charges and reports stay as they are; only host time moves.
//
// An entry answers one take, from a fragment with the entry's first global
// sequence and content digest (sequence lengths and residues). Anything
// else misses and the caller runs the kernel on its own bytes: a crashed
// worker's requeued range searched a second time, or a fragment the
// listing did not foresee. The memo is written once, before the ranks run,
// and only read after, but for one atomic flag per entry, so it needs no
// lock on either execution backend.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "blast/engine.h"
#include "seqdb/formatdb.h"

namespace pioblast::driver {

class SearchMemo {
 public:
  /// Searches every query of `queries` against every fragment of
  /// `fragments` and keeps each fragment's first sequence, digest and
  /// results. The fragments are dropped on return.
  void fill(const blast::PreparedBatch& queries,
            std::vector<seqdb::LoadedFragment> fragments);

  /// The results of the entry with `fragment`'s first sequence and digest,
  /// moved out, if no one has taken that entry yet; otherwise nothing, and
  /// the take counts as a miss. Safe to call from any number of threads.
  std::optional<std::vector<blast::FragmentSearchResult>> take(
      const seqdb::LoadedFragment& fragment);

  /// Takes that returned nothing: the searches the memo did not answer.
  std::uint64_t misses() const { return misses_.load(); }

 private:
  struct Entry {
    std::uint64_t first_seq = 0;
    std::uint64_t digest = 0;
    std::vector<blast::FragmentSearchResult> results;
    std::atomic<bool> taken{false};
  };
  std::vector<Entry> entries_;  ///< ascending first_seq
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace pioblast::driver
