#include "driver/master_worker.h"

#include <cstdint>
#include <vector>

#include "driver/tags.h"
#include "mpisim/runtime.h"
#include "pario/collective.h"
#include "pario/file.h"
#include "util/error.h"

namespace pioblast::driver {

MasterWorkerApp::MasterWorkerApp(const sim::ClusterConfig& cluster, int nprocs,
                                 pario::ClusterStorage& storage,
                                 const RunConfig& config,
                                 std::shared_ptr<const blast::QuerySet> queries,
                                 std::vector<seqdb::LoadedFragment> fragments)
    : cluster_(cluster),
      nprocs_(nprocs),
      storage_(storage),
      config_(config),
      queries_(std::move(queries)),
      fragments_(std::move(fragments)),
      topology_(WorkerTopology::from_cluster(cluster, nprocs)) {
  PIOBLAST_CHECK_MSG(nprocs >= 2, "drivers need a master and >= 1 worker");
  PIOBLAST_CHECK(queries_ != nullptr);
}

void MasterWorkerApp::init_stage(mpisim::Process& p) {
  p.set_phase("other");
  p.compute(p.cost().process_init_seconds());
  std::vector<std::uint8_t> query_bytes;
  if (p.is_root()) {
    query_bytes =
        pario::timed_read_all(p, storage_.shared(), config_.job.query_path, 1);
  }
  p.bcast(query_bytes, 0);
}

void MasterWorkerApp::body(mpisim::Process& p) {
  if (p.is_root()) {
    master(p);
  } else {
    worker(p);
  }
}

void MasterWorkerApp::master(mpisim::Process&) {
  PIOBLAST_CHECK_MSG(false, "driver overrides neither body() nor master()");
}

void MasterWorkerApp::worker(mpisim::Process&) {
  PIOBLAST_CHECK_MSG(false, "driver overrides neither body() nor worker()");
}

blast::DriverResult MasterWorkerApp::run() {
  // Conformance replays the run's events, so it needs a trace of this run
  // alone.
  tracer_ = config_.tracer;
  if (config_.conformance) {
    if (tracer_ == nullptr) tracer_ = &own_tracer_;
    if (tracer_->size() != 0)
      throw util::RuntimeError(
          "conformance needs a fresh tracer, but the one given already holds " +
          std::to_string(tracer_->size()) + " events from an earlier run");
  }
  mpisim::RunOptions opts;
  opts.tracer = tracer_;
  opts.verify.enabled = config_.verify;
  opts.faults = config_.faults;
  opts.schedule = config_.schedule;
  opts.race = config_.race;
  opts.exec_model = config_.exec;
  // Seed the tag audit with the driver registry and the pario two-phase
  // exchange's internal band; any other tag on the wire is a protocol bug.
  auto registered = registered_tags();
  opts.verify.registered_tags.assign(registered.begin(), registered.end());
  auto pario_tags = pario::collective_internal_tags();
  opts.verify.internal_tags.assign(pario_tags.begin(), pario_tags.end());
  opts.verify.tag_name = [](int tag) { return tag_label(tag); };

  // Host time only: the ranks below take these results instead of running
  // the kernel, and charge the same virtual time either way.
  memo_.fill(queries_->contexts(), std::move(fragments_));

  blast::DriverResult result;
  result.report = mpisim::run(
      nprocs_, cluster_,
      [this](mpisim::Process& p) {
        init_stage(p);
        body(p);
        // A rank that crashed after the master stopped listening (e.g.
        // while receiving its retirement) leaves an unread
        // failure-detector notice; absorb it so the leak check stays
        // meaningful for driver traffic.
        if (p.is_root()) p.drain(mpisim::kTagFaultNotice);
        p.barrier();
        // Mirror the final counters into the trace stream so a trace file
        // is self-describing. After the barrier every rank has finished
        // counting, so the snapshot is complete.
        if (tracer_ != nullptr && p.is_root()) {
          for (const auto& [name, value] : metrics_.snapshot())
            p.mark("metric " + name + "=" + std::to_string(value));
        }
      },
      opts);
  result.phases = blast::summarize_run(result.report);

  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_messages = 0;
  std::uint64_t ranks_lost = 0;
  for (const auto& rank : result.report.ranks) {
    wire_bytes += rank.bytes_sent;
    wire_messages += rank.messages_sent;
    if (rank.crashed) ++ranks_lost;
  }
  metrics_.set(kMetricWireBytes, wire_bytes);
  metrics_.set(kMetricWireMessages, wire_messages);
  // Only fault-tolerant runs carry the counter, so failure-free metric
  // snapshots are unchanged.
  if (config_.faults.active()) metrics_.set(kMetricRanksLost, ranks_lost);

  result.metrics = metrics_.snapshot();
  result.output_bytes = metrics_.get(kMetricOutputBytes);
  result.candidates_merged = metrics_.get(kMetricCandidatesMerged);
  result.alignments_reported = metrics_.get(kMetricAlignmentsReported);
  result.memo_misses = memo_.misses();
  return result;
}

}  // namespace pioblast::driver
