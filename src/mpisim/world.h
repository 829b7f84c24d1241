// Shared state of one simulated parallel job.
//
// A World owns one mailbox per rank plus the cluster description and (when
// verification is on) the ProtocolVerifier every mailbox and Process
// reports into. It is created by the runtime (see runtime.h) and shared by
// every rank thread.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mpisim/fault.h"
#include "mpisim/hooks.h"
#include "mpisim/mailbox.h"
#include "mpisim/trace.h"
#include "mpisim/verifier.h"
#include "sim/cluster.h"
#include "util/error.h"

namespace pioblast::mpisim {

class EventLoop;

class World {
 public:
  World(int size, sim::ClusterConfig cluster)
      : size_(size),
        cluster_(std::move(cluster)),
        dead_(std::make_unique<std::atomic<bool>[]>(
            static_cast<std::size_t>(size))) {
    PIOBLAST_CHECK(size >= 1);
    mailboxes_.reserve(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return size_; }
  const sim::ClusterConfig& cluster() const { return cluster_; }

  Mailbox& mailbox(int rank) {
    PIOBLAST_CHECK(rank >= 0 && rank < size_);
    return *mailboxes_[static_cast<std::size_t>(rank)];
  }

  /// Signals a fatal error: every blocked receive throws, unwinding all
  /// rank threads so the runtime can report the original exception. The
  /// verifier (if any) is disabled first so the unwind cannot trigger
  /// cascading protocol reports. Every unwinding rank calls this; only
  /// the first poisons the mailboxes, so a job of P ranks pays P poisons,
  /// not P^2.
  void abort() {
    if (verifier_) verifier_->on_abort();
    if (aborted_.exchange(true, std::memory_order_acq_rel)) return;
    for (auto& mb : mailboxes_) mb->poison();
  }

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Attaches an event tracer (not owned; must outlive the run). Null
  /// disables tracing.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Installs the protocol verifier (owned) and binds every mailbox to
  /// it. Must be called before rank threads start.
  void install_verifier(std::unique_ptr<ProtocolVerifier> verifier) {
    verifier_ = std::move(verifier);
    std::vector<Mailbox*> boxes;
    boxes.reserve(mailboxes_.size());
    for (auto& mb : mailboxes_) boxes.push_back(mb.get());
    verifier_->attach(boxes);
    for (int r = 0; r < size_; ++r)
      mailboxes_[static_cast<std::size_t>(r)]->bind_verifier(verifier_.get(), r);
  }

  /// The installed verifier, or null when verification is off.
  ProtocolVerifier* verifier() const { return verifier_.get(); }

  /// Installs the event loop that runs the ranks (not owned; must outlive
  /// the run) and binds every mailbox to it: Process yields through it and
  /// blocking pops park on it. Must be called before any rank starts.
  /// Unset on the threads backend, where each rank has its own OS thread.
  void set_loop(EventLoop* loop) {
    loop_ = loop;
    for (int r = 0; r < size_; ++r)
      mailboxes_[static_cast<std::size_t>(r)]->bind_loop(loop, r);
  }
  EventLoop* loop() const { return loop_; }

  /// Installs the race detector (not owned; must outlive the run). Null
  /// disables happens-before tracking.
  void set_race(RaceHook* race) { race_ = race; }
  RaceHook* race() const { return race_; }

  // ---- faults -------------------------------------------------------------

  /// Arms the fault plan (validated against the job size). Must be called
  /// before rank threads start; Process reads its injections from here.
  void set_fault_plan(FaultPlan plan) {
    plan.validate(size_);
    faults_ = std::move(plan);
  }
  const FaultPlan& faults() const { return faults_; }

  /// True when the run must tolerate failures: Process collectives use
  /// flat survivor-aware topologies and pario collectives synchronize
  /// liveness before picking an exchange plan.
  bool fault_tolerant() const { return faults_.active(); }

  bool is_dead(int rank) const {
    return dead_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
  }

  int dead_count() const {
    int n = 0;
    for (int r = 0; r < size_; ++r)
      if (is_dead(r)) ++n;
    return n;
  }

  /// Retires a crashed rank: seals its mailbox, pushes the
  /// failure-detector notice (tag kTagFaultNotice, arrival = `when` +
  /// detection delay) to rank 0, wakes every receiver blocked on the dead
  /// rank, and tells the verifier the rank is retired — not deadlocked.
  /// Called by the runtime from the crashing rank's own thread; safe to
  /// call at most once per rank (later calls are no-ops).
  void crash_rank(int rank, sim::Time when) {
    bool expected = false;
    if (!dead_[static_cast<std::size_t>(rank)].compare_exchange_strong(
            expected, true, std::memory_order_acq_rel))
      return;
    mailbox(rank).seal();
    // The notice must be queued before the verifier learns of the crash:
    // its deadlock scan then sees the master's any-source wait as
    // deliverable instead of declaring the surviving ranks stuck.
    if (rank != 0) {
      Message notice;
      notice.src = rank;
      notice.tag = kTagFaultNotice;
      notice.arrival = when + faults_.detection_delay;
      // The crash edge orders everything the dead rank did before the
      // failure detector's notice, same as a regular message send.
      if (race_ != nullptr) notice.hb = race_->on_send(rank);
      mailbox(0).push(std::move(notice));
    }
    for (int r = 0; r < size_; ++r)
      if (r != rank) mailboxes_[static_cast<std::size_t>(r)]->notify_dead(rank);
    if (tracer_ != nullptr)
      tracer_->record({.rank = rank, .time = when, .kind = TraceKind::kFault});
    if (verifier_) verifier_->on_rank_crashed(rank);
  }

 private:
  int size_;
  sim::ClusterConfig cluster_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<bool> aborted_{false};
  Tracer* tracer_ = nullptr;
  EventLoop* loop_ = nullptr;
  RaceHook* race_ = nullptr;
  std::unique_ptr<ProtocolVerifier> verifier_;
  FaultPlan faults_;
  std::unique_ptr<std::atomic<bool>[]> dead_;
};

}  // namespace pioblast::mpisim
