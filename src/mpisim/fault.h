// Fault injection for simulated runs.
//
// A FaultPlan describes deterministic failures to inject into a job:
// per-rank crash-at-event (the rank dies instead of performing its Nth
// point-to-point operation), message drops (the Nth send from a rank is
// charged and traced but never delivered), and compute slowdowns
// (stragglers). The plan travels through RunOptions; the runtime arms the
// World with it before any rank thread starts, so every injection is a
// pure function of the plan — same plan, same failure, every run.
//
// Failure detection is modeled as a perfect detector with configurable
// latency: when a rank crashes, the World delivers a zero-byte notice
// (tag kTagFaultNotice, from the crashed rank) to the detector rank
// (rank 0, the master) with virtual arrival = crash time +
// detection_delay. This stands in for a heartbeat timeout on the
// simulated clock without modeling the heartbeat traffic itself.
//
// A plan with any injection — or with arm_detector set — puts the run in
// fault-tolerant mode: Process collectives switch to flat survivor-aware
// topologies and pario collectives synchronize liveness before choosing
// an exchange plan. Failure-free runs with an inactive plan are entirely
// unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mpisim/message.h"
#include "sim/time.h"
#include "util/error.h"

namespace pioblast::mpisim {

/// Internal-band tag of the failure-detector notice the World pushes to
/// the detector rank when a rank crashes. Registered alongside the
/// Process collective tags (see Process::internal_tags).
inline constexpr int kTagFaultNotice = kDriverTagLimit + 32;

/// Control-flow object thrown inside a rank to simulate its death. Not a
/// std::exception on purpose: only the runtime's dedicated handler may
/// catch it; a stray catch (const std::exception&) in rank code cannot
/// swallow a crash.
struct RankCrash {
  int rank = -1;
  std::uint64_t event = 0;  ///< the 1-based comm event that never happened
  sim::Time when = 0.0;     ///< the rank's clock at the point of death
};

/// Thrown by a blocking receive whose specific source rank has crashed
/// and can never send the awaited message. Survivor code catches this to
/// continue in degraded mode (e.g. a gather recording an empty
/// contribution for the lost rank).
class PeerLostError : public util::RuntimeError {
 public:
  PeerLostError(int peer, const std::string& what)
      : util::RuntimeError(what), peer_(peer) {}
  int peer() const { return peer_; }

 private:
  int peer_;
};

/// Injections targeting one rank.
struct RankFault {
  int rank = -1;
  /// Die instead of performing this 1-based send/recv event (0 = never).
  std::uint64_t crash_at = 0;
  /// Compute-time multiplier; 4.0 makes the rank a 4x straggler.
  double slow = 1.0;
  /// 1-based send ordinals whose messages vanish after injection.
  std::vector<std::uint64_t> drop_sends;
};

/// Deterministic failure schedule for one run.
struct FaultPlan {
  std::vector<RankFault> injections;
  /// Virtual latency between a crash and the detector rank's notice —
  /// the heartbeat-timeout stand-in. Must exceed the network wire
  /// latency so pre-crash messages causally precede the notice.
  sim::Time detection_delay = 0.005;
  /// Arms fault-tolerant mode (flat collectives, liveness sync) even
  /// with no injections — the fair baseline for recovery-overhead
  /// benches.
  bool arm_detector = false;

  /// True when the runtime must run in fault-tolerant mode.
  bool active() const { return arm_detector || !injections.empty(); }

  bool has_crash() const;

  /// The injection record for `rank`, created on first use.
  RankFault& at(int rank);

  /// The injection record for `rank`, or null.
  const RankFault* find(int rank) const;

  /// Rejects malformed plans with util::RuntimeError (a plan is user
  /// input, e.g. the CLI's --fault): out-of-range ranks, a crash on rank 0
  /// (the master/detector rank cannot be crash-injected), non-positive
  /// slowdowns, zero event/send ordinals, and a rank record that injects
  /// nothing (no crash, a slowdown of 1, no drop), which would only arm
  /// the detector: `arm_detector` is the one way to do that.
  void validate(int nranks) const;

  /// Parses ';'-separated injection specs, each a comma-separated list of
  /// key=value pairs: "rank=2,crash_at=9", "rank=1,slow=4",
  /// "rank=3,drop_send=2". Plan-wide keys: "detect=<seconds>" and the
  /// bare word "arm". `rank` is an int, `crash_at` and `drop_send` are
  /// 1-based std::uint64_t ordinals; no space around items or keys.
  /// Throws util::RuntimeError naming the key on malformed input.
  static FaultPlan parse(std::string_view specs);

  /// Seeded helper: a deterministic single-worker crash derived from
  /// `seed` (victim in [1, nranks), event in [1, max_event]).
  static FaultPlan random_crash(std::uint64_t seed, int nranks,
                                std::uint64_t max_event);

  /// One-line human-readable summary ("no faults" for an empty plan).
  std::string describe() const;
};

}  // namespace pioblast::mpisim
