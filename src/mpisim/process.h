// Per-rank execution context: the API rank code programs against.
//
// A Process wraps the rank's virtual clock, phase accounting, and the
// message-passing primitives. Costs follow the LogGP-style network model of
// the cluster the world was created with:
//
//   send:  sender clock += o_s + n/B;   arrival = sender clock + L
//   recv:  receiver clock = max(receiver clock, arrival) + o_r + n/B_copy
//
// Collectives are implemented on top of these primitives: binomial trees
// for broadcast, barrier, and the allreduce reduce phase (O(log P) depth,
// which is what keeps flat fan-in from dominating past a few hundred
// ranks), but a deliberately flat gather at the root — which faithfully
// reproduces master incast serialization. Under an active fault plan every
// collective falls back to flat survivor-aware topologies (a tree that
// forwards through a dead interior rank would strand its subtree). All
// ranks of a job must call collectives in the same order, as in MPI; with
// the protocol verifier on (the default), that rule — plus tag
// registration and typed-payload conformance — is enforced at run time
// (see verifier.h).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "mpisim/fault.h"
#include "mpisim/message.h"
#include "mpisim/world.h"
#include "sim/time.h"
#include "util/phase_timer.h"

namespace pioblast::mpisim {

class Process {
 public:
  Process(int rank, World& world);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  int rank() const { return rank_; }
  int size() const { return world_.size(); }
  bool is_root() const { return rank_ == 0; }
  World& world() { return world_; }
  const sim::ClusterConfig& cluster() const { return world_.cluster(); }
  const sim::CostModel& cost() const { return world_.cluster().cost; }

  // ---- virtual time -----------------------------------------------------

  sim::Time now() const { return clock_.now(); }

  /// Charges `seconds` of nominal CPU work; on a slow node (see
  /// sim::ClusterConfig::node_speed) the clock advances proportionally
  /// more.
  void compute(sim::Time seconds);

  /// Charges `seconds` of device wait (file I/O): independent of the
  /// node's CPU speed.
  void io_wait(sim::Time seconds);

  /// Jumps the clock forward to `t` (never backwards).
  void sync_to(sim::Time t);

  // ---- phases -----------------------------------------------------------

  /// Attributes subsequent virtual time to phase `name` until the next call.
  void set_phase(const std::string& name);

  /// Records a driver-defined annotation in the attached tracer (no-op
  /// when tracing is off).
  void mark(const std::string& detail);

  /// Records a free-text event in the attached tracer (drivers use this
  /// for kRecovery notes).
  void trace(TraceKind kind, std::string detail);

  /// Flushes pending time into the current phase and returns the buckets.
  util::PhaseTimer& phases();

  // ---- point-to-point ----------------------------------------------------

  /// Sends `data` to rank `dst` with `tag`; charges injection cost. Typed
  /// sends attach a TypeStamp so the receiving end can verify the payload
  /// type (raw byte sends leave it empty — unchecked).
  void send(int dst, int tag, std::span<const std::uint8_t> data,
            TypeStamp stamp = {});

  /// Blocking receive; `src` may be kAnySource. Charges receive cost and
  /// max-merges the clock with the message's virtual arrival time.
  Message recv(int src, int tag);

  /// Blocking receive matching any tag in `tags` (from any source).
  /// Earliest virtual arrival across the listed tags wins. Fault-aware
  /// server loops use this to wake for either a work request or a
  /// failure-detector notice, whichever lands first.
  Message recv_any_of(std::span<const int> tags);

  /// Drains every already-delivered message with `tag` without blocking
  /// or charging receive cost. Returns the count. Used by the master to
  /// absorb late failure-detector notices before the final barrier.
  std::size_t drain(int tag);

  /// Sends a trivially-copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_value(int dst, int tag, const T& value) {
    send(dst, tag,
         std::span(reinterpret_cast<const std::uint8_t*>(&value), sizeof(T)),
         type_stamp<T>());
  }

  /// Receives a trivially-copyable value from `src`.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T recv_value(int src, int tag) {
    Message m = recv(src, tag);
    check_stamp(m, tag, type_stamp<T>());
    PIOBLAST_CHECK_MSG(m.payload.size() == sizeof(T),
                       "typed recv size mismatch: got "
                           << m.payload.size() << " bytes, want " << sizeof(T)
                           << " (" << type_stamp<T>().name << ") from rank "
                           << m.src << ", tag " << tag_label(tag));
    T value;
    std::memcpy(&value, m.payload.data(), sizeof(T));
    return value;
  }

  /// Verifies a received message's type stamp against the type this end
  /// expects (no-op when verification is off or the message is
  /// unstamped). Throws VerifyError on type confusion.
  void check_stamp(const Message& msg, int tag, TypeStamp expected);

  /// Registered name of `tag` ("kTagAssign(2)") when the verifier carries
  /// a tag namer, else the bare number.
  std::string tag_label(int tag) const;

  // ---- collectives (flat/binomial over p2p) ------------------------------

  /// Synchronizes all ranks; clocks converge to the barrier completion time.
  void barrier();

  /// Broadcasts root's buffer to every rank via a binomial tree.
  void bcast(std::vector<std::uint8_t>& data, int root);

  /// Gathers every rank's buffer at `root` (rank-ordered). Non-roots get {}.
  std::vector<std::vector<std::uint8_t>> gather(std::span<const std::uint8_t> data,
                                                int root);

  /// All ranks learn the maximum of `value` (barrier-like clock sync).
  sim::Time allreduce_max(sim::Time value);

  // ---- accounting ---------------------------------------------------------

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t messages_sent() const { return messages_sent_; }

  /// The runtime-internal tags the collectives above use; the verifier's
  /// internal-band audit treats them (plus VerifyOptions::internal_tags)
  /// as the only legitimate tags at or above kDriverTagLimit.
  static std::span<const int> internal_tags();

  // ---- race-detector annotations ------------------------------------------
  //
  // Reports an access to driver- or test-level shared state to the
  // attached race detector (no-op when none is installed). `obj` is the
  // identity of the shared state; `what` labels the access site in
  // reports.

  void annotate_read(const void* obj, std::string_view what);
  void annotate_write(const void* obj, std::string_view what);

 private:
  int rank_;
  World& world_;
  sim::Clock clock_;
  util::PhaseTimer phases_;
  std::string current_phase_ = "other";
  sim::Time phase_mark_ = 0.0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t collectives_entered_ = 0;

  // Fault injections for this rank (from the world's FaultPlan; all
  // zero/neutral when no fault targets this rank).
  std::uint64_t crash_at_ = 0;    ///< crash at the Nth comm event (0 = never)
  std::uint64_t comm_events_ = 0; ///< send/recv calls so far
  double slow_ = 1.0;             ///< straggler compute multiplier
  std::vector<std::uint64_t> drop_sends_;  ///< 1-based send ordinals to drop
  std::uint64_t send_seq_ = 0;             ///< sends attempted so far

  /// Internal tag space for collectives (drivers must use tags below this).
  static constexpr int kInternalTagBase = kDriverTagLimit;
  static constexpr int kTagBarrierUp = kInternalTagBase + 0;
  static constexpr int kTagBarrierDown = kInternalTagBase + 1;
  static constexpr int kTagBcast = kInternalTagBase + 2;
  static constexpr int kTagGather = kInternalTagBase + 3;
  static constexpr int kTagReduce = kInternalTagBase + 4;

  void accrue_phase();

  /// Counts one communication event and throws RankCrash when this rank's
  /// scheduled crash point is reached. Called on entry to send and recv.
  void maybe_crash();

  /// The blocking receive behind recv and recv_any_of: the first message
  /// from `src` (or any source) with one of `tags`.
  Message receive(int src, std::span<const int> tags);

  /// Records the collective's trace fingerprint and runs the verifier's
  /// order check. Called on entry by every collective, on every rank.
  void enter_collective(const char* op, int root);

  /// Cooperative-scheduler yield point (no-op when no scheduler is
  /// installed): reports the pending operation and blocks until this rank
  /// is scheduled to run it.
  void yield_point(YieldPoint::Kind kind, int peer, int tag,
                   const char* detail = nullptr);
};

}  // namespace pioblast::mpisim
