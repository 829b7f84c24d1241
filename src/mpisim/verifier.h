// ProtocolVerifier: runtime checking of the simulated message-passing
// protocol.
//
// Four checks, all free of false positives on a correct program:
//
//   1. Deadlock detection — every blocking Mailbox::pop with no match
//      registers the rank in a wait-for table, and every Mailbox::push of
//      a message that satisfies a registered wait clears it; the verifier
//      counts the live ranks with a registered wait. Whenever the last
//      live rank blocks (or a rank finishes while the rest are blocked),
//      which that count shows in O(1), the verifier scans all blocked
//      ranks' mailboxes and, if no registered wait is deliverable,
//      poisons the job with a readable wait-for-cycle report instead of
//      letting ctest hang.
//   2. Collective-order checking — every collective entry records an
//      (op, root) fingerprint at the rank's next sequence number; the
//      first rank to reach sequence #n defines the expectation and any
//      rank disagreeing fails the job immediately (the same-order rule
//      process.h documents but previously nothing enforced).
//   3. Tag audit — when a driver-tag registry is installed (see
//      VerifyOptions::registered_tags), every point-to-point send/recv tag
//      must be a registered driver tag or a known runtime-internal tag.
//   4. Typed-payload conformance — typed sends stamp the message with a
//      TypeStamp; typed receives verify it, catching size-coincidence type
//      confusion (see Process::send_value / driver::Channel<T>).
//
// A fifth check runs after the job: check_leaks() reports any message
// still sitting in a mailbox, with sender/tag provenance.
//
// Failures poison every mailbox with the report (so all ranks unwind with
// it), record a kVerify trace event, and throw VerifyError in the
// detecting rank. The verifier is created by the runtime when
// RunOptions::verify.enabled is set (the default).
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mpisim/mailbox.h"
#include "mpisim/trace.h"
#include "mpisim/verify.h"

namespace pioblast::mpisim {

class ProtocolVerifier {
 public:
  /// `internal_tags` is the runtime's own tag allowlist (the Process
  /// collective tags); opts.internal_tags extends it.
  ProtocolVerifier(VerifyOptions opts, Tracer* tracer,
                   std::vector<int> internal_tags);

  ProtocolVerifier(const ProtocolVerifier&) = delete;
  ProtocolVerifier& operator=(const ProtocolVerifier&) = delete;

  /// Binds the job's mailboxes (one per rank, not owned) and sets the
  /// live-rank count. Called by World before rank threads start.
  void attach(const std::vector<Mailbox*>& mailboxes);

  // ---- lifecycle (called by the runtime) ---------------------------------

  /// A rank's function returned; the rank no longer counts as live. May
  /// flag a deadlock among the remaining ranks (never throws: poisons).
  void on_rank_done(int rank);

  /// A rank crashed under fault injection: it is retired, not deadlocked.
  /// Ranks later found blocked waiting specifically on a crashed rank are
  /// exonerated by the deadlock scan — they will wake with PeerLostError,
  /// not hang. Never throws (called from the crashing rank's unwind).
  void on_rank_crashed(int rank);

  /// The job is being aborted for an unrelated error: disable all checks
  /// so the unwinding ranks cannot trigger cascading reports.
  void on_abort();

  // ---- point-to-point hooks (called by Process / Mailbox) ----------------

  /// Audits the tag of an outgoing message. Throws VerifyError on a tag
  /// outside the registry.
  void on_send(int src, int dst, int tag);

  /// Audits the tag of a posted receive (catches a typo'd recv tag with a
  /// precise report before deadlock detection has to).
  void on_recv_posted(int rank, int src, int tag);

  /// Registers `rank` as blocked until a message with any of `tags`
  /// arrives from `src` (kAnySource: from anyone). `seq` is the mailbox's
  /// next arrival ordinal at the failed match: only messages queued at or
  /// after it can satisfy this wait. When this block leaves every live
  /// rank registered, runs the deadlock scan and throws VerifyError if it
  /// completes a deadlock. Called without the mailbox lock held.
  void on_block(int rank, int src, std::span<const int> tags,
                std::uint64_t seq);

  /// A message from `src` with `tag` was queued in `dst`'s mailbox at
  /// arrival ordinal `seq`. Clears dst's registered wait if the message
  /// satisfies it. Messages queued before the wait's ordinal were already
  /// seen by its failed match, so a late call for one (the threads
  /// backend runs it after the mailbox lock drops) never clears a later
  /// wait. Called without the mailbox lock held.
  void on_push(int dst, int src, int tag, std::uint64_t seq);

  /// Clears the blocked registration after the wait returns.
  void on_unblock(int rank);

  // ---- collectives -------------------------------------------------------

  /// Records rank's next collective fingerprint and cross-validates it
  /// against the job-wide sequence. Throws VerifyError on mismatch.
  void on_collective(int rank, std::string_view op, int root);

  // ---- typed payloads ----------------------------------------------------

  /// Verifies a received message's type stamp against the receiver's
  /// expectation; unstamped messages pass. Throws VerifyError on mismatch.
  void check_stamp(int rank, int tag, const Message& msg,
                   const TypeStamp& expected);

  // ---- end of job --------------------------------------------------------

  /// Reports messages left undrained in any mailbox. Called by the
  /// runtime after all ranks joined cleanly. Throws VerifyError.
  void check_leaks();

  /// "kTagAssign(2)" when a tag namer is installed, else the bare number.
  std::string tag_label(int tag) const;

 private:
  struct Wait {
    bool blocked = false;
    int src = 0;
    std::vector<int> tags;  ///< acceptable tags (usually one)
    std::uint64_t seq = 0;  ///< mailbox arrival ordinal at the failed match
  };
  struct CollectiveRecord {
    std::string op;
    int root = 0;
    int first_rank = 0;
  };

  /// Scans for a deadlock among the currently blocked ranks once every
  /// live rank has a registered wait. Returns the report ("" when
  /// progress is still possible). Caller holds mu_.
  std::string deadlock_report_locked() const;

  /// Drops `rank`'s registered wait, if any. Caller holds mu_.
  void clear_wait_locked(int rank);

  /// Renders the wait-for cycle (or the blocked set when any-source waits
  /// make the cycle non-unique). Caller holds mu_.
  std::string render_cycle_locked() const;

  /// Poisons every mailbox with `report`, records a kVerify trace event,
  /// and throws VerifyError. Caller holds mu_.
  [[noreturn]] void fail_locked(const std::string& report);

  /// Same, but poisons without throwing (for contexts that must not
  /// throw, e.g. a finished rank's thread). Caller holds mu_.
  void flag_locked(const std::string& report);

  bool tag_registered(int tag) const;

  /// Fails the run for an unregistered tag seen in `use` ("send from rank
  /// 0 to rank 1", ...). The one place a bad tag is classified and worded,
  /// so the report does not depend on which side audits it first. Caller
  /// holds mu_.
  [[noreturn]] void fail_bad_tag_locked(int tag, const std::string& use);

  VerifyOptions opts_;
  Tracer* tracer_;
  std::vector<int> internal_tags_;

  mutable std::mutex mu_;
  bool disabled_ = false;
  int live_ranks_ = 0;
  int blocked_ = 0;  ///< live ranks with a registered wait
  std::vector<Mailbox*> mailboxes_;
  std::vector<Wait> waits_;
  std::vector<bool> done_;
  std::vector<bool> crashed_;
  std::vector<std::uint64_t> collective_seq_;
  std::vector<CollectiveRecord> collective_log_;
};

}  // namespace pioblast::mpisim
