// MasterWorkerApp: the shared scaffold of every driver.
//
// Owns what used to be duplicated boilerplate in src/mpiblast and
// src/pioblast: launching the simulated job, the init stage (process
// startup + query broadcast), the final barrier, run summarization, wire
// accounting, and the RunMetrics registry whose snapshot becomes
// DriverResult::metrics.
//
// A driver subclasses it and overrides either master()/worker() (the
// default body() dispatches on rank) or body() itself when the protocol
// interleaves master and worker code textually (pioBLAST does, to keep its
// collective ordering in one place).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "blast/driver.h"
#include "blast/job.h"
#include "blast/query_set.h"
#include "driver/metrics.h"
#include "driver/run_config.h"
#include "driver/scheduler.h"
#include "driver/search_memo.h"
#include "mpisim/process.h"
#include "pario/env.h"
#include "seqdb/formatdb.h"
#include "sim/cluster.h"

namespace pioblast::driver {

class MasterWorkerApp {
 public:
  /// `config` (the run's tracer, verifier, conformance, fault, mpicheck and
  /// backend settings) must outlive the app. `fragments` lists, on the
  /// host, the database fragments the job will search; run() fills the
  /// search memo from them.
  MasterWorkerApp(const sim::ClusterConfig& cluster, int nprocs,
                  pario::ClusterStorage& storage, const RunConfig& config,
                  std::shared_ptr<const blast::QuerySet> queries,
                  std::vector<seqdb::LoadedFragment> fragments);

  virtual ~MasterWorkerApp() = default;

  MasterWorkerApp(const MasterWorkerApp&) = delete;
  MasterWorkerApp& operator=(const MasterWorkerApp&) = delete;

  /// Searches every listed fragment into the search memo on all cores,
  /// then launches the simulated job: init stage, body, metric trace marks,
  /// final barrier; then summarizes phases, folds wire accounting into the
  /// metrics, and returns the DriverResult (metrics snapshot and the memo's
  /// miss count included).
  /// With config.conformance on, the run records into config.tracer (which
  /// must be empty: util::RuntimeError otherwise) or an internal tracer,
  /// and tracer() returns it.
  blast::DriverResult run();

  /// The tracer the last run() recorded into (null when tracing was off).
  const mpisim::Tracer* tracer() const { return tracer_; }

 protected:
  /// Driver protocol. The default dispatches to master()/worker();
  /// override body() directly for interleaved protocols.
  virtual void body(mpisim::Process& p);
  virtual void master(mpisim::Process& p);
  virtual void worker(mpisim::Process& p);

  int nprocs() const { return nprocs_; }
  int nworkers() const { return nprocs_ - 1; }
  const sim::ClusterConfig& cluster() const { return cluster_; }
  pario::ClusterStorage& storage() { return storage_; }
  pario::VirtualFS& shared() { return storage_.shared(); }
  const blast::JobConfig& job() const { return config_.job; }
  const blast::QuerySet& queries() const { return *queries_; }
  RunMetrics& metrics() { return metrics_; }
  /// The job's search memo, for the drivers' SearchStages.
  SearchMemo& memo() { return memo_; }
  const WorkerTopology& topology() const { return topology_; }

 private:
  /// Init stage ("other"): process startup cost, then the master reads the
  /// query file and broadcasts it (all ranks participate).
  void init_stage(mpisim::Process& p);

  const sim::ClusterConfig& cluster_;
  int nprocs_;
  pario::ClusterStorage& storage_;
  const RunConfig& config_;
  std::shared_ptr<const blast::QuerySet> queries_;
  std::vector<seqdb::LoadedFragment> fragments_;  ///< until run() fills memo_
  SearchMemo memo_;
  mpisim::Tracer* tracer_ = nullptr;
  mpisim::Tracer own_tracer_;  ///< conformance's trace when none is given
  WorkerTopology topology_;
  RunMetrics metrics_;
};

}  // namespace pioblast::driver
