// Tests for the protocol verifier (mpisim/verifier.h): deadlock detection
// with wait-for-cycle reports, collective-order cross-validation, tag
// registry auditing, typed-payload conformance, and message-leak checks —
// plus the seeded-bug regressions the verifier exists to catch. Every
// failing job here must terminate with a VerifyError instead of hanging.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "driver/channel.h"
#include "driver/messages.h"
#include "driver/tags.h"
#include "mpisim/exec.h"
#include "mpisim/fault.h"
#include "mpisim/mailbox.h"
#include "mpisim/runtime.h"
#include "mpisim/trace.h"
#include "mpisim/verifier.h"
#include "mpisim/verify.h"
#include "util/error.h"

namespace pioblast::mpisim {
namespace {

sim::ClusterConfig test_cluster() { return sim::ClusterConfig::ornl_altix(); }

/// Runs `body` expecting a VerifyError; returns its report text.
std::string verify_error(const std::function<void()>& body) {
  try {
    body();
  } catch (const VerifyError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no VerifyError was thrown";
  return {};
}

/// Runs a job expecting a VerifyError; returns its report text.
std::string verify_failure(int nranks, const std::function<void(Process&)>& fn,
                           const RunOptions& opts = {}) {
  return verify_error([&] { run(nranks, test_cluster(), fn, opts); });
}

// ---------- type stamps ---------------------------------------------------

TEST(TypeStamp, DistinctTypesGetDistinctFingerprints) {
  constexpr TypeStamp a = type_stamp<std::uint32_t>();
  constexpr TypeStamp b = type_stamp<float>();
  constexpr TypeStamp c = type_stamp<std::uint64_t>();
  EXPECT_NE(a.fp, 0u);
  EXPECT_NE(a.fp, b.fp);
  EXPECT_NE(a.fp, c.fp);
  EXPECT_NE(b.fp, c.fp);
}

TEST(TypeStamp, NameIsHumanReadable) {
  constexpr TypeStamp s = type_stamp<float>();
  EXPECT_EQ(s.name, "float");
}

TEST(TypeStamp, SameTypeSameFingerprint) {
  EXPECT_EQ(type_stamp<double>().fp, type_stamp<double>().fp);
}

// ---------- tag registry --------------------------------------------------

TEST(TagRegistry, LabelsRegisteredTagsByName) {
  EXPECT_EQ(driver::tag_label(driver::kTagAssign), "kTagAssign(2)");
  EXPECT_EQ(driver::tag_label(driver::kTagRanges), "kTagRanges(10)");
  EXPECT_EQ(driver::tag_label(999), "999");
  EXPECT_EQ(driver::tag_name(12345), nullptr);
}

TEST(TagRegistry, ExportsAllTags) {
  const auto tags = driver::registered_tags();
  EXPECT_EQ(tags.size(), 6u);
  for (const int t : tags) EXPECT_NE(driver::tag_name(t), nullptr);
}

// ---------- deadlock detection --------------------------------------------

TEST(VerifierDeadlock, CycleOfFourRanksReported) {
  const std::string report = verify_failure(4, [](Process& p) {
    // Classic ring wait: every rank receives from its successor, nobody
    // sends. Without the verifier this job hangs forever.
    p.recv((p.rank() + 1) % 4, 5);
  });
  EXPECT_NE(report.find("deadlock"), std::string::npos) << report;
  EXPECT_NE(report.find("all 4 live ranks blocked"), std::string::npos)
      << report;
  EXPECT_NE(report.find("wait-for cycle: 0 -> 1 -> 2 -> 3 -> 0"),
            std::string::npos)
      << report;
}

TEST(VerifierDeadlock, TwoRankMutualWaitReported) {
  const std::string report = verify_failure(2, [](Process& p) {
    p.recv(1 - p.rank(), 7);
  });
  EXPECT_NE(report.find("wait-for cycle: 0 -> 1 -> 0"), std::string::npos)
      << report;
}

TEST(VerifierDeadlock, AnySourceWaitAfterPeersExitReported) {
  // Rank 1 waits on a message that no still-running rank can send: the
  // deadlock is discovered when rank 0 retires, not via a wait cycle.
  const std::string report = verify_failure(2, [](Process& p) {
    if (p.rank() == 1) p.recv(kAnySource, 7);
  });
  EXPECT_NE(report.find("deadlock"), std::string::npos) << report;
  EXPECT_NE(report.find("any source"), std::string::npos) << report;
}

TEST(VerifierDeadlock, DeliverableMessageIsNotADeadlock) {
  // The register-vs-arrival race: rank 1 may register as blocked just as
  // rank 0's message lands. The scan must exonerate it via has_match.
  EXPECT_NO_THROW(run(2, test_cluster(), [](Process& p) {
    if (p.rank() == 0) p.send(1, 7, std::vector<std::uint8_t>(8));
    if (p.rank() == 1) p.recv(0, 7);
  }));
}

// ---------- wait accounting -----------------------------------------------
//
// The verifier counts live ranks with a registered wait: a blocking pop
// registers one, a push whose message satisfies it clears it, and the full
// deadlock scan runs only when the count reaches the live-rank count. A
// wait cleared by the wrong message would hide a real deadlock (on the
// threads backend the receiver goes back to sleep without registering
// again, so the job would hang instead of failing). The real runs below
// must still end in today's report text, on both exec models.

constexpr ExecModel kExecModels[] = {ExecModel::kThreads, ExecModel::kEvents};

RunOptions on_exec(ExecModel exec) {
  RunOptions opts;
  opts.exec_model = exec;
  return opts;
}

constexpr const char* kTwoRankCycle =
    "protocol verifier: deadlock: all 2 live ranks blocked in recv with no "
    "deliverable message\n"
    "  rank 0 waiting for src=1 tag=7\n"
    "  rank 1 waiting for src=0 tag=7\n"
    "  wait-for cycle: 0 -> 1 -> 0\n";

constexpr const char* kThreeRankCycle =
    "protocol verifier: deadlock: all 3 live ranks blocked in recv with no "
    "deliverable message\n"
    "  rank 0 waiting for src=1 tag=7\n"
    "  rank 1 waiting for src=2 tag=7\n"
    "  rank 2 waiting for src=0 tag=7\n"
    "  wait-for cycle: 0 -> 1 -> 2 -> 0\n";

TEST(VerifierAccounting, NonMatchingTagLeavesWaitRegistered) {
  for (const ExecModel exec : kExecModels) {
    if (exec == ExecModel::kEvents && !events_supported()) continue;
    SCOPED_TRACE(to_string(exec));
    const std::string report = verify_failure(
        2,
        [](Process& p) {
          // Rank 1 pings rank 0 and waits for tag 7; only then does rank 0
          // send it tag 8, so the stray message lands on a registered wait.
          if (p.rank() == 1) {
            p.send(0, 3, std::vector<std::uint8_t>(1));
            p.recv(0, 7);
          }
          if (p.rank() == 0) {
            p.recv(1, 3);
            p.send(1, 8, std::vector<std::uint8_t>(4));
            p.recv(1, 7);
          }
        },
        on_exec(exec));
    EXPECT_EQ(report, kTwoRankCycle);
  }
}

TEST(VerifierAccounting, WrongSourceLeavesWaitRegistered) {
  for (const ExecModel exec : kExecModels) {
    if (exec == ExecModel::kEvents && !events_supported()) continue;
    SCOPED_TRACE(to_string(exec));
    const std::string report = verify_failure(
        3,
        [](Process& p) {
          // Rank 2 pings rank 1 and waits for tag 7 from rank 0; rank 1
          // then sends it tag 7: right tag, wrong sender.
          if (p.rank() == 2) {
            p.send(1, 3, std::vector<std::uint8_t>(1));
            p.recv(0, 7);
          }
          if (p.rank() == 1) {
            p.recv(2, 3);
            p.send(2, 7, std::vector<std::uint8_t>(4));
            p.recv(2, 7);
          }
          if (p.rank() == 0) p.recv(1, 7);
        },
        on_exec(exec));
    EXPECT_EQ(report, kThreeRankCycle);
  }
}

/// A verifier over real mailboxes that are attached but not bound to it,
/// so a test reports every block and push itself, with explicit arrival
/// ordinals: on the threads backend the windows these cases pin down
/// depend on host timing.
struct HandDriven {
  explicit HandDriven(int n) : boxes(static_cast<std::size_t>(n)) {
    std::vector<Mailbox*> ptrs;
    for (Mailbox& mb : boxes) ptrs.push_back(&mb);
    verifier.attach(ptrs);
  }
  std::deque<Mailbox> boxes;
  ProtocolVerifier verifier{VerifyOptions{}, nullptr, {}};
};

/// Rank 1 already took rank 0's message #0 and now waits for the next one
/// (its wait starts at ordinal 1); then push reports a message at
/// `reported_seq`. Nothing is queued in rank 1's mailbox, so only the
/// accounting decides whether rank 0's block completes a deadlock.
void wait_then_report_arrival(HandDriven& h, std::uint64_t reported_seq) {
  Message first;
  first.src = 0;
  first.tag = 7;
  h.boxes[1].push(first);
  ASSERT_TRUE(h.boxes[1].try_pop(0, 7).has_value());
  const int tag7[] = {7};
  h.verifier.on_block(1, 0, tag7, 1);
  h.verifier.on_push(1, 0, 7, reported_seq);
}

TEST(VerifierAccounting, StaleArrivalLeavesLaterWaitRegistered) {
  // Message #0's push reports after rank 1 consumed it and blocked again:
  // the late report must not clear the newer wait.
  HandDriven h(2);
  wait_then_report_arrival(h, 0);
  const int tag7[] = {7};
  EXPECT_EQ(verify_error([&] { h.verifier.on_block(0, 1, tag7, 0); }),
            kTwoRankCycle);
}

TEST(VerifierAccounting, CurrentArrivalClearsWait) {
  HandDriven h(2);
  wait_then_report_arrival(h, 1);
  const int tag7[] = {7};
  EXPECT_NO_THROW(h.verifier.on_block(0, 1, tag7, 0));
}

TEST(VerifierAccounting, WrongSourceOrTagArrivalLeavesWaitRegistered) {
  // Rank 2 waits for tag 7 from rank 0. A message from rank 1, or one with
  // tag 8, is queued but cannot wake it.
  const int tag7[] = {7};
  for (const auto& [src, tag] : {std::pair{1, 7}, std::pair{0, 8}}) {
    SCOPED_TRACE("tag " + std::to_string(tag) + " from rank " +
                 std::to_string(src));
    HandDriven h(3);
    h.verifier.on_block(2, 0, tag7, 0);
    Message stray;
    stray.src = src;
    stray.tag = tag;
    h.boxes[2].push(stray);
    h.verifier.on_push(2, src, tag, 0);
    h.verifier.on_block(1, 2, tag7, 0);
    EXPECT_EQ(verify_error([&] { h.verifier.on_block(0, 1, tag7, 0); }),
              kThreeRankCycle);
  }
}

TEST(VerifierAccounting, AnyListedTagFromAnySenderClearsWait) {
  // Rank 0 waits for a work request or a fault notice from anyone (the
  // serve loop's pop_any), or for tag 7 from anyone. Nothing is queued in
  // its mailbox, so only a cleared wait keeps the last block from
  // reporting.
  const int work_or_notice[] = {driver::kTagWorkReq, kTagFaultNotice};
  const int tag7[] = {7};
  const int tag9[] = {9};
  for (const std::span<const int> wait_tags :
       {std::span<const int>(work_or_notice), std::span<const int>(tag7)}) {
    for (const int tag : wait_tags) {
      for (const int src : {1, 2}) {
        SCOPED_TRACE("tag " + std::to_string(tag) + " from rank " +
                     std::to_string(src));
        HandDriven h(3);
        h.verifier.on_block(0, kAnySource, wait_tags, 0);
        h.verifier.on_push(0, src, tag, 0);
        h.verifier.on_block(1, 0, tag9, 0);
        EXPECT_NO_THROW(h.verifier.on_block(2, 0, tag9, 0));
      }
    }
    // An unlisted tag leaves the wait registered.
    HandDriven h(3);
    h.verifier.on_block(0, kAnySource, wait_tags, 0);
    h.verifier.on_push(0, 1, 9, 0);
    h.verifier.on_block(1, 0, tag9, 0);
    const std::string report =
        verify_error([&] { h.verifier.on_block(2, 0, tag9, 0); });
    EXPECT_NE(report.find("all 3 live ranks blocked"), std::string::npos)
        << report;
    EXPECT_NE(report.find("rank 0 waiting for any source"), std::string::npos)
        << report;
  }
}

// ---------- collective order ----------------------------------------------

TEST(VerifierCollectives, MisorderedOpsRejected) {
  const std::string report = verify_failure(2, [](Process& p) {
    if (p.rank() == 0) {
      p.barrier();
    } else {
      std::vector<std::uint8_t> buf;
      p.bcast(buf, 0);
    }
  });
  EXPECT_NE(report.find("collective order mismatch"), std::string::npos)
      << report;
  EXPECT_NE(report.find("barrier"), std::string::npos) << report;
  EXPECT_NE(report.find("bcast"), std::string::npos) << report;
}

TEST(VerifierCollectives, RootMismatchRejected) {
  const std::string report = verify_failure(2, [](Process& p) {
    std::vector<std::uint8_t> buf{1};
    p.bcast(buf, p.rank());  // every rank claims a different root
  });
  EXPECT_NE(report.find("collective order mismatch"), std::string::npos)
      << report;
  EXPECT_NE(report.find("root="), std::string::npos) << report;
}

TEST(VerifierCollectives, MatchingSequencePassesAndIsTraced) {
  Tracer tracer;
  RunOptions opts;
  opts.tracer = &tracer;
  EXPECT_NO_THROW(run(3, test_cluster(),
                      [](Process& p) {
                        p.barrier();
                        std::vector<std::uint8_t> buf{42};
                        p.bcast(buf, 0);
                        p.allreduce_max(1.0);
                      },
                      opts));
  int collectives = 0;
  for (const auto& ev : tracer.sorted())
    if (ev.kind == TraceKind::kCollective) ++collectives;
  // 3 ranks x (barrier + bcast + allreduce_max + allreduce's inner bcast).
  EXPECT_EQ(collectives, 12);
}

// ---------- tag audit -----------------------------------------------------

TEST(VerifierTags, UnregisteredDriverTagRejected) {
  RunOptions opts;
  opts.verify.registered_tags = {1, 2};
  opts.verify.tag_name = [](int tag) { return driver::tag_label(tag); };
  const std::string report = verify_failure(
      2,
      [](Process& p) {
        // Tag typo: 99 is not in the registry the job declared.
        if (p.rank() == 0) p.send(1, 99, std::vector<std::uint8_t>(4));
        if (p.rank() == 1) p.recv(0, 99);
      },
      opts);
  EXPECT_NE(report.find("unregistered driver tag 99"), std::string::npos)
      << report;
  EXPECT_NE(report.find("driver/tags.h"), std::string::npos) << report;
}

TEST(VerifierTags, InternalBandMisuseRejected) {
  RunOptions opts;
  opts.verify.registered_tags = {1};
  const std::string report = verify_failure(
      2,
      [](Process& p) {
        // A driver sneaking into the runtime's reserved band.
        if (p.rank() == 0)
          p.send(1, kDriverTagLimit + 999, std::vector<std::uint8_t>(4));
        if (p.rank() == 1) p.recv(0, kDriverTagLimit + 999);
      },
      opts);
  EXPECT_NE(report.find("runtime-internal band"), std::string::npos) << report;
}

TEST(VerifierTags, RegisteredTagsAndCollectivesPass) {
  RunOptions opts;
  opts.verify.registered_tags = {1, 2};
  EXPECT_NO_THROW(run(2, test_cluster(),
                      [](Process& p) {
                        if (p.rank() == 0) p.send_value<int>(1, 2, 11);
                        if (p.rank() == 1) {
                          EXPECT_EQ(p.recv_value<int>(0, 2), 11);
                        }
                        p.barrier();  // internal tags stay legal
                      },
                      opts));
}

TEST(VerifierTags, AuditInactiveWithoutARegistry) {
  // Standalone mpisim programs pick tags freely; the audit only arms when
  // a job declares its registry.
  EXPECT_NO_THROW(run(2, test_cluster(), [](Process& p) {
    if (p.rank() == 0) p.send(1, 424242, std::vector<std::uint8_t>(1));
    if (p.rank() == 1) p.recv(0, 424242);
  }));
}

// ---------- typed payload conformance -------------------------------------

TEST(VerifierTypes, ValueTypeConfusionCaught) {
  // Same size on the wire (4 bytes), so only the stamp can catch it.
  const std::string report = verify_failure(2, [](Process& p) {
    if (p.rank() == 0) p.send_value<std::uint32_t>(1, 5, 77u);
    if (p.rank() == 1) p.recv_value<float>(0, 5);
  });
  EXPECT_NE(report.find("typed payload mismatch"), std::string::npos) << report;
  EXPECT_NE(report.find("float"), std::string::npos) << report;
}

TEST(VerifierTypes, ChannelTypeConfusionCaught) {
  // Two channels accidentally bound to the same tag: the receive must fail
  // on the stamp, not corrupt fields in the decoder.
  const std::string report = verify_failure(2, [](Process& p) {
    constexpr driver::Channel<driver::FetchRequest> req{driver::kTagFetchReq};
    constexpr driver::Channel<driver::FetchResponse> resp{driver::kTagFetchReq};
    if (p.rank() == 0) req.send(p, 1, driver::FetchRequest{3});
    if (p.rank() == 1) resp.recv(p, 0);
  });
  EXPECT_NE(report.find("typed payload mismatch"), std::string::npos) << report;
  EXPECT_NE(report.find("FetchRequest"), std::string::npos) << report;
  EXPECT_NE(report.find("FetchResponse"), std::string::npos) << report;
}

TEST(VerifierTypes, RawByteSendsStayUnchecked) {
  // Untyped sends carry no stamp; a typed receive still size-checks but
  // must not trip the stamp comparison.
  EXPECT_NO_THROW(run(2, test_cluster(), [](Process& p) {
    if (p.rank() == 0) {
      const std::uint32_t v = 9;
      p.send(1, 5,
             std::span(reinterpret_cast<const std::uint8_t*>(&v), sizeof(v)));
    }
    if (p.rank() == 1) {
      EXPECT_EQ(p.recv_value<std::uint32_t>(0, 5), 9u);
    }
  }));
}

TEST(VerifierTypes, SizeMismatchDiagnosticsNameSourceAndType) {
  try {
    run(2, test_cluster(), [](Process& p) {
      if (p.rank() == 0) p.send(1, 5, std::vector<std::uint8_t>(3));
      if (p.rank() == 1) p.recv_value<std::uint32_t>(0, 5);
    });
    FAIL() << "size mismatch not detected";
  } catch (const util::ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("got 3 bytes, want 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("from rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag 5"), std::string::npos) << msg;
  }
}

// ---------- message leaks -------------------------------------------------

TEST(VerifierLeaks, OrphanedSendReported) {
  const std::string report = verify_failure(2, [](Process& p) {
    // Sent but never received: invisible to the job, caught at the end.
    if (p.rank() == 0) p.send(1, 7, std::vector<std::uint8_t>(16));
  });
  EXPECT_NE(report.find("left undrained"), std::string::npos) << report;
  EXPECT_NE(report.find("rank 1 mailbox holds 1 message"), std::string::npos)
      << report;
  EXPECT_NE(report.find("from rank 0 tag=7 (16 bytes)"), std::string::npos)
      << report;
}

TEST(VerifierLeaks, FullyDrainedJobPasses) {
  EXPECT_NO_THROW(run(2, test_cluster(), [](Process& p) {
    if (p.rank() == 0) p.send(1, 7, std::vector<std::uint8_t>(16));
    if (p.rank() == 1) p.recv(0, 7);
    p.barrier();
  }));
}

// ---------- opt-out -------------------------------------------------------

TEST(VerifierOff, SkipsAllChecks) {
  RunOptions opts;
  opts.verify.enabled = false;
  opts.verify.registered_tags = {1};
  // An orphaned send on an unregistered tag: two violations (tag audit,
  // leak check), both ignored with the verifier off.
  EXPECT_NO_THROW(run(2, test_cluster(),
                      [](Process& p) {
                        if (p.rank() == 0)
                          p.send(1, 99, std::vector<std::uint8_t>(4));
                      },
                      opts));
}

}  // namespace
}  // namespace pioblast::mpisim
