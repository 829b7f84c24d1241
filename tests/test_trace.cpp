// Tests for the run tracer: event capture, ordering, rendering, and the
// runtime integration.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>

#include "mpisim/runtime.h"
#include "mpisim/trace.h"

namespace pioblast::mpisim {
namespace {

TEST(Tracer, RecordsAndSortsByTime) {
  Tracer t;
  t.record(1, 2.0, TraceKind::kMark, "b");
  t.record(0, 1.0, TraceKind::kPhase, "a");
  t.record(2, 2.0, TraceKind::kMark, "c");
  const auto sorted = t.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].detail, "a");
  EXPECT_EQ(sorted[1].rank, 1);  // tie at t=2.0 broken by rank
  EXPECT_EQ(sorted[2].rank, 2);
}

TEST(Tracer, ForRankFilters) {
  Tracer t;
  t.record(0, 1.0, TraceKind::kMark, "x");
  t.record(1, 2.0, TraceKind::kMark, "y");
  t.record(0, 3.0, TraceKind::kMark, "z");
  const auto rank0 = t.for_rank(0);
  ASSERT_EQ(rank0.size(), 2u);
  EXPECT_EQ(rank0[0].detail, "x");
  EXPECT_EQ(rank0[1].detail, "z");
}

TEST(Tracer, RenderTruncates) {
  Tracer t;
  for (int i = 0; i < 10; ++i)
    t.record(0, i, TraceKind::kMark, "e" + std::to_string(i));
  std::ostringstream os;
  t.render(os, 3);
  EXPECT_NE(os.str().find("e0"), std::string::npos);
  EXPECT_NE(os.str().find("7 more events"), std::string::npos);
  EXPECT_EQ(os.str().find("e5"), std::string::npos);
}

TEST(Tracer, KindNames) {
  EXPECT_STREQ(to_string(TraceKind::kPhase), "PHASE");
  EXPECT_STREQ(to_string(TraceKind::kSend), "SEND");
  EXPECT_STREQ(to_string(TraceKind::kRecv), "RECV");
  EXPECT_STREQ(to_string(TraceKind::kMark), "MARK");
}

TEST(Tracer, RuntimeIntegrationCapturesProtocol) {
  Tracer tracer;
  run(
      3, sim::ClusterConfig::ornl_altix(),
      [](Process& p) {
        p.set_phase("work");
        if (p.rank() == 0) {
          const std::vector<std::uint8_t> payload{1, 2, 3};
          for (int w = 1; w < p.size(); ++w) p.send(w, 5, payload);
        } else {
          p.recv(0, 5);
          p.mark("got it");
        }
      },
      &tracer);
  // 3 phase events, 2 sends, 2 recvs, 2 marks.
  EXPECT_EQ(tracer.size(), 9u);
  const auto rank1 = tracer.for_rank(1);
  ASSERT_EQ(rank1.size(), 3u);
  EXPECT_EQ(rank1[0].kind, TraceKind::kPhase);
  EXPECT_EQ(rank1[1].kind, TraceKind::kRecv);
  EXPECT_EQ(rank1[1].peer, 0);
  EXPECT_EQ(rank1[1].tag, 5);
  EXPECT_EQ(rank1[1].bytes, 3u);
  EXPECT_EQ(rank1[2].detail, "got it");
  // Causality: each receive happens at or after the matching send.
  sim::Time send_time = -1;
  for (const auto& e : tracer.sorted()) {
    if (e.kind == TraceKind::kSend && send_time < 0) send_time = e.time;
    if (e.kind == TraceKind::kRecv) {
      EXPECT_GE(e.time, send_time);
    }
  }
}

// Golden timeline: a 3-rank event-backend run that records every kind —
// PHASE, MARK, COLL, SEND, RECV (specific and any-source), FAULT (a
// dropped send and a crash), RECOV and VRFY (the leak report) — rendered
// and compared with a committed fixture, so the timeline text cannot drift.
// Regenerate (after an intentional format change) with
//   PIOBLAST_UPDATE_GOLDEN=1 ./test_trace --gtest_filter=Tracer.GoldenTimeline
TEST(Tracer, GoldenTimeline) {
  constexpr int kTagWork = 1;
  constexpr int kTagDone = 2;
  constexpr int kTagStray = 3;
  Tracer tracer;
  RunOptions opts;
  opts.tracer = &tracer;
  opts.exec_model = ExecModel::kEvents;
  opts.faults.at(1).drop_sends = {1};
  opts.faults.at(2).crash_at = 2;  // its bcast receive, then its send
  const auto job = [](Process& p) {
    p.set_phase("work");
    std::vector<std::uint8_t> data{9, 8, 7, 6};
    p.bcast(data, 0);
    if (p.rank() == 0) {
      p.mark("serving");
      const int tags[] = {kTagWork, kTagFaultNotice};
      for (int i = 0; i < 2; ++i) p.recv_any_of(tags);
      p.trace(TraceKind::kRecovery, "requeue rank 2's task");
      p.recv(1, kTagDone);
    } else {
      const std::vector<std::uint8_t> lost{1, 2, 3};
      p.send(0, kTagWork, lost);  // rank 1: dropped; rank 2: crashes here
      p.send(0, kTagWork, std::vector<std::uint8_t>{4, 5});
      p.send(0, kTagDone, std::vector<std::uint8_t>{6});
      p.send(0, kTagStray, std::vector<std::uint8_t>{7});  // never received
    }
  };
  EXPECT_THROW(run(3, sim::ClusterConfig::ornl_altix(), job, opts),
               VerifyError);
  std::ostringstream os;
  tracer.render(os);
  const std::string text = os.str();

  const std::string path =
      std::string(PIOBLAST_TEST_DATA_DIR "/") + "golden_timeline.txt";
  if (std::getenv("PIOBLAST_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path, std::ios::binary);
    f << text;
    ASSERT_TRUE(f.good()) << "failed to write " << path;
    GTEST_SKIP() << "updated golden fixture " << path;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden fixture " << path;
  const std::string expected((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(text, expected) << "timeline diverged from " << path;
}

TEST(Tracer, NullTracerIsHarmless) {
  const auto report = run(2, sim::ClusterConfig::ornl_altix(), [](Process& p) {
    p.set_phase("x");
    if (p.rank() == 0) p.send(1, 1, {});
    else p.recv(0, 1);
    p.mark("ignored");
  });
  EXPECT_EQ(report.ranks.size(), 2u);
}

}  // namespace
}  // namespace pioblast::mpisim
