// Per-rank thread-safe mailbox with (source, tag) matching.
//
// Receives block the host thread until a matching message exists, which is
// how the simulated ranks synchronize for real; virtual-time ordering is
// layered on top by Process (receiver clocks max-merge with arrivals).
//
// When a ProtocolVerifier is bound (see verifier.h), every blocking pop
// that finds no match registers the rank as blocked and every push reports
// the queued message, which is the event stream the verifier's deadlock
// detection runs on.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "mpisim/message.h"

namespace pioblast::mpisim {

class ProtocolVerifier;
class ScheduleHook;

class Mailbox {
 public:
  /// Enqueues a delivered message and wakes any blocked receiver.
  void push(Message msg);

  /// Blocks until a message matching (src, tag) is available and removes it.
  /// `src == kAnySource` matches any sender; among the currently pending
  /// matches the one with the smallest virtual arrival time is chosen
  /// (ties broken by sender rank), approximating earliest-message-first
  /// scheduling for dynamic work distribution.
  Message pop(int src, int tag);

  /// Blocks until a message matching `src` and any tag in `tags` is
  /// available (earliest arrival across all listed tags wins). Used by
  /// fault-aware server loops that must wake for either work requests or
  /// failure-detector notices.
  Message pop_any(int src, std::span<const int> tags);

  /// Non-blocking variant; returns nullopt when nothing matches.
  std::optional<Message> try_pop(int src, int tag);

  /// Number of currently queued messages (diagnostics/tests).
  std::size_t pending() const;

  /// True when a blocking pop(src, tag) would return without waiting.
  /// Used by the verifier's deadlock scan to exonerate a rank whose
  /// matching message arrived between its match check and its blocked
  /// registration.
  bool has_match(int src, int tag) const;

  /// Multi-tag variant of has_match (used for waits registered by
  /// pop_any).
  bool has_match_any(int src, std::span<const int> tags) const;

  /// Provenance of every still-queued message, for the verifier's
  /// end-of-job leak report. `seq` is the message's arrival ordinal in
  /// this mailbox; entries are sorted by (src, tag, seq) so the report is
  /// byte-stable across schedules that deliver the same message set.
  struct PendingInfo {
    int src = 0;
    int tag = 0;
    std::uint64_t bytes = 0;
    std::uint64_t seq = 0;
  };
  std::vector<PendingInfo> pending_info() const;

  /// Marks the mailbox as poisoned: current and future blocking pops with
  /// no matching message throw RuntimeError. Used to unwind all rank
  /// threads when one rank fails.
  void poison();

  /// Poison with an explanatory reason; when `verify_failure` is set the
  /// unblocked pops throw VerifyError so a verifier report survives the
  /// unwind as the job's error regardless of which rank records it first.
  void poison(std::string reason, bool verify_failure = false);

  /// Same, with the reason shared: a job-wide report can name every rank,
  /// and one copy per mailbox would cost memory quadratic in the ranks.
  void poison(std::shared_ptr<const std::string> reason, bool verify_failure);

  /// Binds the protocol verifier (not owned) and this mailbox's rank.
  /// Must happen before any rank thread starts popping.
  void bind_verifier(ProtocolVerifier* verifier, int rank);

  /// Binds the cooperative scheduler (not owned): blocking pops park on
  /// the scheduler instead of the condition variable, and every event that
  /// could unblock the owner (push, poison, seal, peer death) wakes it
  /// through the hook. Must happen before any rank thread starts.
  void bind_schedule(ScheduleHook* schedule, int rank);

  // ---- fault support ------------------------------------------------------

  /// Marks the owning rank as crashed: discards all queued messages and
  /// silently drops every future push (a dead rank can neither read its
  /// mail nor leak it).
  void seal();

  /// Records that `rank` has crashed and wakes any blocked receiver: a
  /// pop waiting specifically on a dead rank throws PeerLostError instead
  /// of blocking forever.
  void notify_dead(int rank);

 private:
  /// Index of best match in queue_, or npos. Caller holds the lock.
  std::size_t find_match(int src, std::span<const int> tags) const;

  /// Removes and returns queue_[idx]. Caller holds the lock.
  Message take_at(std::size_t idx);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  std::deque<std::uint64_t> seq_;  ///< arrival ordinal of queue_[i]
  std::uint64_t next_seq_ = 0;
  std::set<int> dead_;  ///< crashed peers (see notify_dead)
  bool sealed_ = false;
  bool poisoned_ = false;
  bool verify_poison_ = false;
  std::shared_ptr<const std::string> poison_reason_;
  ProtocolVerifier* verifier_ = nullptr;
  ScheduleHook* schedule_ = nullptr;
  int rank_ = -1;
};

}  // namespace pioblast::mpisim
