// Protospec suite (ctest label: protospec): the declarative protocol
// specs, the exhaustive model checker, and the runtime conformance
// monitor.
//
// Covers the static tag-coverage audit, model checking of every spec at
// small worlds with and without a crash budget, detection of seeded spec
// bugs (a dropped fault-notice edge, a dropped end-of-query edge), trace
// parsing, end-to-end conformance of real driver runs (both drivers, both
// exec models, crash faults, forced mpicheck schedules), detection of a
// seeded runtime divergence, and the serve_work crash-notice/final-request
// ordering regression the model checker originally found.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "blast/job.h"
#include "driver/scheduler.h"
#include "driver/work_queue.h"
#include "mpiblast/mpiblast.h"
#include "mpicheck/explore.h"
#include "mpisim/fault.h"
#include "mpisim/runtime.h"
#include "mpisim/trace.h"
#include "mpisim/verify.h"
#include "pioblast/pioblast.h"
#include "protospec/check.h"
#include "protospec/conform.h"
#include "protospec/spec.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"

namespace pioblast::protospec {
namespace {

sim::ClusterConfig altix() { return sim::ClusterConfig::ornl_altix(); }

/// Small model-checking params for a spec by name.
SpecParams small_params(const std::string& name, int nranks) {
  SpecParams p;
  p.nranks = nranks;
  if (name == "pario_write" || name == "pario_read") {
    p.naggs = nranks >= 2 ? 2 : 1;
    p.rounds = 2;
  } else {
    p.tasks = nranks - 1;
    p.queries = 2;
    if (name == "mpiblast") p.fetch_cap = 1;
    if (name == "pioblast") p.batch = 1;
  }
  return p;
}

/// Removes the uniquely named edge from a role's table; asserts it existed.
void drop_edge(Role& role, std::string_view name) {
  const auto before = role.edges.size();
  std::erase_if(role.edges, [name](const Edge& e) {
    return std::string_view(e.name) == name;
  });
  ASSERT_LT(role.edges.size(), before) << "no edge named " << name;
}

// ---------- static audit ---------------------------------------------------

TEST(ProtospecAudit, RegistryAndSpecsAgree) {
  const AuditResult res = audit_tag_coverage();
  for (const std::string& p : res.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(res.ok);
}

// ---------- model checking -------------------------------------------------

TEST(ProtospecModel, AllSpecsPassSmallWorlds) {
  for (const ProtocolSpec* spec : all_specs()) {
    for (int nranks = 2; nranks <= 4; ++nranks) {
      SpecParams p = small_params(spec->name, nranks);
      for (int crashes = 0; crashes <= 1; ++crashes) {
        p.fault_tolerant = crashes > 0;
        ModelCheckOptions opts;
        opts.max_crashes = crashes;
        const ModelCheckResult res = model_check(*spec, p, opts);
        EXPECT_TRUE(res.ok) << spec->name << " nranks=" << nranks
                            << " crashes=" << crashes << ": " << res.error;
        EXPECT_GT(res.stats.states_explored, 0u);
      }
    }
  }
}

TEST(ProtospecModel, PorAndFullExplorationAgree) {
  SpecParams p = small_params("mpiblast", 3);
  p.fault_tolerant = true;
  ModelCheckOptions with;
  with.max_crashes = 1;
  ModelCheckOptions without = with;
  without.por = false;
  const ModelCheckResult a = model_check(*spec_by_name("mpiblast"), p, with);
  const ModelCheckResult b = model_check(*spec_by_name("mpiblast"), p, without);
  EXPECT_TRUE(a.ok) << a.error;
  EXPECT_TRUE(b.ok) << b.error;
  EXPECT_GT(a.stats.states_pruned, 0u);
}

TEST(ProtospecModel, RejectsInvalidParams) {
  {
    SpecParams p = small_params("mpiblast", 1);  // needs >= 2 ranks
    const ModelCheckResult res = model_check(*spec_by_name("mpiblast"), p);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("nranks"), std::string::npos) << res.error;
  }
  {
    SpecParams p = small_params("mpiblast", 3);
    p.tasks = -1;  // the "unbounded" sentinel is conformance-only
    const ModelCheckResult res = model_check(*spec_by_name("mpiblast"), p);
    EXPECT_FALSE(res.ok);
  }
  {
    SpecParams p = small_params("mpiblast", 3);  // crash budget needs ft
    ModelCheckOptions opts;
    opts.max_crashes = 1;
    const ModelCheckResult res =
        model_check(*spec_by_name("mpiblast"), p, opts);
    EXPECT_FALSE(res.ok);
  }
}

/// Seeded spec bug: without the master's fault-notice edge the crash
/// recovery path disappears and a single crash wedges the model.
TEST(ProtospecModel, DroppedFaultNoticeEdgeIsCaught) {
  ProtocolSpec spec = mpiblast_spec();
  drop_edge(spec.roles[0], "serve_notice");

  SpecParams p = small_params("mpiblast", 3);
  p.fault_tolerant = true;
  ModelCheckOptions opts;
  opts.max_crashes = 1;
  const ModelCheckResult res = model_check(spec, p, opts);
  EXPECT_FALSE(res.ok);

  // The same mutilated spec still passes crash-free: the bug is precisely
  // in the recovery path, which the crash budget is what exercises.
  opts.max_crashes = 0;
  p.fault_tolerant = false;
  EXPECT_TRUE(model_check(spec, p, opts).ok);
}

/// Seeded spec bug: dropping the worker's end-of-query edge leaves the
/// master's fan-out message unconsumed — caught without any crash.
TEST(ProtospecModel, DroppedFetchEndEdgeIsCaught) {
  ProtocolSpec spec = mpiblast_spec();
  drop_edge(spec.roles[1], "fetch_end");
  const SpecParams p = small_params("mpiblast", 3);
  const ModelCheckResult res = model_check(spec, p, {});
  EXPECT_FALSE(res.ok);
}

// ---------- end-to-end conformance -----------------------------------------

struct Tiny {
  std::vector<seqdb::FastaRecord> db;
  std::string queries;
};

const Tiny& tiny() {
  static const Tiny* t = [] {
    auto* out = new Tiny();
    seqdb::GeneratorConfig gen;
    gen.target_residues = 60u << 10;
    gen.seed = 9;
    out->db = seqdb::generate_database(gen);
    out->queries = seqdb::write_fasta(seqdb::sample_queries(out->db, 1024, 3));
    return out;
  }();
  return *t;
}

void stage_queries(pario::ClusterStorage& storage) {
  const std::string& fasta = tiny().queries;
  storage.shared().write_all(
      "queries.fa",
      std::span(reinterpret_cast<const std::uint8_t*>(fasta.data()),
                fasta.size()));
}

blast::JobConfig tiny_job() {
  blast::JobConfig job;
  job.db_base = "db";
  job.db_title = "tiny";
  job.query_path = "queries.fa";
  job.params = blast::SearchParams::blastp_defaults();
  return job;
}

blast::DriverResult run_mpi(pario::ClusterStorage& storage, int nprocs,
                            int nfragments, mpiblast::MpiBlastOptions opts) {
  stage_queries(storage);
  const auto parts =
      seqdb::mpiformatdb(storage.shared(), tiny().db, "db",
                         seqdb::SeqType::kProtein, "tiny", nfragments);
  opts.job = tiny_job();
  opts.job.output_path = "out.mpi.txt";
  opts.fragment_bases = parts.fragment_bases;
  opts.fragment_ranges = parts.ranges;
  opts.global_index = parts.global_index;
  return mpiblast::run_mpiblast(altix(), nprocs, storage, opts);
}

blast::DriverResult run_pio(pario::ClusterStorage& storage, int nprocs,
                            pio::PioBlastOptions opts) {
  stage_queries(storage);
  seqdb::format_db(storage.shared(), tiny().db, "db", seqdb::SeqType::kProtein,
                   "tiny");
  opts.job = tiny_job();
  opts.job.output_path = "out.pio.txt";
  return pio::run_pioblast(altix(), nprocs, storage, opts);
}

TEST(ProtospecConform, MpiblastConformsBothExecModels) {
  for (const auto exec :
       {mpisim::ExecModel::kThreads, mpisim::ExecModel::kEvents}) {
    pario::ClusterStorage storage(altix(), 4);
    mpiblast::MpiBlastOptions opts;
    opts.conformance = true;
    opts.exec = exec;
    const auto result = run_mpi(storage, 4, 3, opts);
    EXPECT_NE(result.conformance.find("result=ok"), std::string::npos)
        << result.conformance;
  }
}

TEST(ProtospecConform, MpiblastCrashTraceConforms) {
  for (const auto exec :
       {mpisim::ExecModel::kThreads, mpisim::ExecModel::kEvents}) {
    pario::ClusterStorage storage(altix(), 4);
    mpiblast::MpiBlastOptions opts;
    opts.conformance = true;
    opts.exec = exec;
    opts.faults.at(2).crash_at = 9;
    const auto result = run_mpi(storage, 4, 3, opts);
    EXPECT_NE(result.conformance.find("result=ok"), std::string::npos)
        << result.conformance;
  }
}

TEST(ProtospecConform, PioblastVariantsConform) {
  struct Variant {
    bool dynamic;
    bool early;
    std::uint32_t batch;
  };
  for (const Variant v : {Variant{false, false, 0}, Variant{true, false, 0},
                          Variant{true, true, 0}, Variant{false, true, 1}}) {
    pario::ClusterStorage storage(altix(), 4);
    pio::PioBlastOptions opts;
    opts.conformance = true;
    if (v.dynamic) opts.scheduler = driver::SchedulerKind::kGreedyDynamic;
    opts.early_score_broadcast = v.early;
    opts.query_batch = v.batch;
    const auto result = run_pio(storage, 4, opts);
    EXPECT_NE(result.conformance.find("result=ok"), std::string::npos)
        << "dynamic=" << v.dynamic << " early=" << v.early
        << " batch=" << v.batch << ": " << result.conformance;
  }
}

TEST(ProtospecConform, PioblastCrashTraceConformsBothExecModels) {
  for (const auto exec :
       {mpisim::ExecModel::kThreads, mpisim::ExecModel::kEvents}) {
    pario::ClusterStorage storage(altix(), 4);
    pio::PioBlastOptions opts;
    opts.conformance = true;
    opts.scheduler = driver::SchedulerKind::kGreedyDynamic;
    opts.exec = exec;
    opts.faults.at(3).crash_at = 9;
    const auto result = run_pio(storage, 4, opts);
    EXPECT_NE(result.conformance.find("result=ok"), std::string::npos)
        << result.conformance;
  }
}

/// Seeded runtime divergence: a spec stripped of the worker's fetch-reply
/// edge must reject a real mpiblast trace at that worker's first reply —
/// and the intact spec must accept the very same trace.
TEST(ProtospecConform, SeededDivergenceIsCaught) {
  pario::ClusterStorage storage(altix(), 3);
  mpisim::Tracer tracer;
  mpiblast::MpiBlastOptions opts;
  opts.tracer = &tracer;
  (void)run_mpi(storage, 3, 2, opts);

  ProtocolSpec broken = mpiblast_spec();
  drop_edge(broken.roles[1], "fetch_resp");
  SpecParams sp;
  sp.nranks = 3;
  sp.tasks = 2;
  sp.queries = -1;    // data-dependent bounds: permissive, like the
  sp.fetch_cap = -1;  // driver's own --conformance wiring
  const ConformResult res = check_conformance(broken, sp, tracer.sorted());
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("rank"), std::string::npos) << res.error;

  const ConformResult good =
      check_conformance(*spec_by_name("mpiblast"), sp, tracer.sorted());
  EXPECT_TRUE(good.ok) << good.error;

  // The driver-facing wrapper fails like any protocol-verifier violation.
  EXPECT_THROW(enforce_conformance(broken, sp, tracer.sorted()),
               mpisim::VerifyError);
}

/// A tracer records one run: conformance on a tracer that still holds an
/// earlier run's events would replay both runs as one, so the driver
/// rejects it up front and names the cause.
TEST(ProtospecConform, RejectsTracerFromEarlierRun) {
  mpisim::Tracer tracer;
  {
    pario::ClusterStorage storage(altix(), 3);
    mpiblast::MpiBlastOptions opts;
    opts.tracer = &tracer;
    (void)run_mpi(storage, 3, 2, opts);
  }
  ASSERT_GT(tracer.size(), 0u);
  pario::ClusterStorage storage(altix(), 3);
  pio::PioBlastOptions opts;
  opts.tracer = &tracer;
  opts.conformance = true;
  try {
    (void)run_pio(storage, 3, opts);
    ADD_FAILURE() << "conformance accepted a used tracer";
  } catch (const util::RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("fresh tracer"), std::string::npos)
        << e.what();
  }
}

/// Conformance holds on every forced schedule mpicheck explores, not just
/// the default interleaving: the monitor runs inside the job, so any
/// schedule-dependent divergence fails the checker as "verify".
TEST(ProtospecConform, HoldsUnderForcedCrashSchedules) {
  mpicheck::CheckOptions copts;
  copts.random_schedules = 10;
  copts.preemption_bound = 1;
  copts.max_schedules = 30;
  copts.detect_races = false;
  copts.shrink = false;
  mpicheck::Checker checker(
      [](mpisim::ScheduleHook* s, mpisim::RaceHook* r) {
        pario::ClusterStorage storage(altix(), 3);
        mpiblast::MpiBlastOptions opts;
        opts.conformance = true;
        opts.schedule = s;
        opts.race = r;
        opts.faults.at(1).crash_at = 6;
        (void)run_mpi(storage, 3, 2, opts);
      },
      copts);
  const mpicheck::CheckResult res = checker.run();
  EXPECT_FALSE(res.failed) << res.failure_kind << ": " << res.error
                           << " trace=" << res.failing_trace;
  EXPECT_GT(res.schedules_explored, 1);
}

// ---------- the serve_work ordering regression -----------------------------

/// The model checker's first real catch: a crashed worker's final work
/// request can still be in flight when the failure detector's notice ends
/// the serve loop (the notice pays detection delay but no wire latency).
/// serve_work must drain the stray request or the verifier reports a
/// leaked driver message. Exhaustively explored with mpicheck; before the
/// drain fix in serve_work this failed as "verify: … left undrained".
TEST(ServeWorkRegression, NoticeOvertakingFinalRequestLeaksNothing) {
  const auto serve_job = [](mpisim::ScheduleHook* s, mpisim::RaceHook* r) {
    mpisim::RunOptions ropts;
    ropts.faults.at(1).crash_at = 6;  // dies sending a later work request
    ropts.faults.detection_delay = 1e-7;  // below the wire latency
    ropts.schedule = s;
    ropts.race = r;
    mpisim::run(
        3, altix(),
        [](mpisim::Process& p) {
          if (p.is_root()) {
            auto sched =
                driver::make_scheduler(driver::SchedulerKind::kGreedyDynamic);
            const auto topo = driver::WorkerTopology::from_cluster(altix(), 3);
            driver::serve_work(p, *sched, 4, topo, {}, nullptr);
          } else {
            while (driver::request_work<std::uint32_t>(
                p, [](std::uint32_t id, mpisim::Decoder&) { return id; })) {
            }
          }
        },
        ropts);
  };
  mpicheck::CheckOptions copts;
  copts.random_schedules = 200;
  copts.seed = 11;
  copts.preemption_bound = 2;
  copts.max_schedules = 500;
  copts.detect_races = false;
  mpicheck::Checker checker(serve_job, copts);
  const mpicheck::CheckResult res = checker.run();
  EXPECT_FALSE(res.failed) << res.failure_kind << ": " << res.error
                           << " trace=" << res.failing_trace;
  EXPECT_GT(res.schedules_explored, 1);
}

}  // namespace
}  // namespace pioblast::protospec
