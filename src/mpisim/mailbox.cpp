#include "mpisim/mailbox.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>

#include "mpisim/fault.h"
#include "mpisim/hooks.h"
#include "mpisim/verifier.h"
#include "util/error.h"

namespace pioblast::mpisim {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
constexpr const char* kDefaultPoisonReason =
    "mpisim: receive aborted (job poisoned)";
}  // namespace

void Mailbox::push(Message msg) {
  // Annotated outside the critical section on purpose: the race detector
  // may poison mailboxes on a report, which would self-deadlock under mu_.
  // The mailbox's own lock identity is passed explicitly instead.
  annotate_access(this, "Mailbox::push", /*write=*/true, {this});
  const int src = msg.src;
  const int tag = msg.tag;
  std::uint64_t seq = 0;
  {
    std::lock_guard lock(mu_);
    if (sealed_) return;  // the owning rank crashed; its mail vanishes
    seq = next_seq_++;
    queue_.push_back(std::move(msg));
    seq_.push_back(seq);
  }
  // Called unlocked, like on_block in pop_any: the verifier takes mailbox
  // locks under its own. The arrival ordinal keeps a late call from
  // clearing a wait registered after the message was already taken.
  if (verifier_ != nullptr) verifier_->on_push(rank_, src, tag, seq);
  cv_.notify_all();
  if (schedule_ != nullptr) schedule_->wake(rank_);
}

std::size_t Mailbox::find_match(int src, std::span<const int> tags) const {
  std::size_t best = kNpos;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Message& m = queue_[i];
    if (std::find(tags.begin(), tags.end(), m.tag) == tags.end()) continue;
    if (src != kAnySource) {
      // Point-to-point matching preserves per-sender FIFO order: take the
      // first queued message from that sender with this tag.
      if (m.src == src) return i;
      continue;
    }
    // Wildcard: earliest virtual arrival wins; ties broken by sender rank
    // so the choice is stable.
    if (best == kNpos || m.arrival < queue_[best].arrival ||
        (m.arrival == queue_[best].arrival && m.src < queue_[best].src)) {
      best = i;
    }
  }
  return best;
}

Message Mailbox::take_at(std::size_t idx) {
  Message msg = std::move(queue_[idx]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  seq_.erase(seq_.begin() + static_cast<std::ptrdiff_t>(idx));
  return msg;
}

Message Mailbox::pop(int src, int tag) {
  const int tags[] = {tag};
  return pop_any(src, tags);
}

Message Mailbox::pop_any(int src, std::span<const int> tags) {
  annotate_access(this, "Mailbox::pop", /*write=*/true, {this});
  for (;;) {
    std::uint64_t seq = 0;  // first arrival ordinal this wait has not seen
    {
      std::unique_lock lock(mu_);
      const std::size_t idx = find_match(src, tags);
      if (idx != kNpos) return take_at(idx);
      seq = next_seq_;
      if (poisoned_) {
        if (verify_poison_) throw VerifyError(*poison_reason_);
        throw util::RuntimeError(*poison_reason_);
      }
      if (src != kAnySource && dead_.count(src) != 0) {
        throw PeerLostError(src, "mpisim: receive from rank " +
                                     std::to_string(src) +
                                     " failed: the rank crashed and the "
                                     "message can never arrive");
      }
    }
    // No match: this rank is now blocked. The verifier hooks run with the
    // mailbox lock released — its deadlock scan holds the verifier lock
    // while probing mailboxes, so calling it the other way around (mailbox
    // lock held, then verifier lock) would invert the lock order. A
    // message arriving in the unlocked window is safe: the wait predicate
    // re-checks before sleeping, and the scan consults has_match() before
    // declaring a registered rank truly stuck.
    if (verifier_ != nullptr) verifier_->on_block(rank_, src, tags, seq);
    if (schedule_ != nullptr) {
      // Cooperative mode: park on the scheduler instead of the condition
      // variable. This rank still holds the run token between the match
      // check above and here, so no wakeup can be lost; block() returns
      // once a push/poison/seal/death woke the rank and the scheduler
      // picked it again, and the loop re-checks the predicate.
      schedule_->block(rank_);
    } else {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] {
        return poisoned_ || find_match(src, tags) != kNpos ||
               (src != kAnySource && dead_.count(src) != 0);
      });
    }
    if (verifier_ != nullptr) verifier_->on_unblock(rank_);
  }
}

void Mailbox::seal() {
  {
    std::lock_guard lock(mu_);
    sealed_ = true;
    queue_.clear();
    seq_.clear();
  }
  cv_.notify_all();
  if (schedule_ != nullptr) schedule_->wake(rank_);
}

void Mailbox::notify_dead(int rank) {
  {
    std::lock_guard lock(mu_);
    dead_.insert(rank);
  }
  cv_.notify_all();
  if (schedule_ != nullptr) schedule_->wake(rank_);
}

void Mailbox::poison() { poison(kDefaultPoisonReason, false); }

void Mailbox::poison(std::string reason, bool verify_failure) {
  poison(std::make_shared<const std::string>(std::move(reason)),
         verify_failure);
}

void Mailbox::poison(std::shared_ptr<const std::string> reason,
                     bool verify_failure) {
  {
    std::lock_guard lock(mu_);
    if (!poisoned_) {  // first reason wins; later poisons keep it
      poisoned_ = true;
      verify_poison_ = verify_failure;
      poison_reason_ = std::move(reason);
    }
  }
  cv_.notify_all();
  if (schedule_ != nullptr) schedule_->wake(rank_);
}

void Mailbox::bind_verifier(ProtocolVerifier* verifier, int rank) {
  verifier_ = verifier;
  rank_ = rank;
}

void Mailbox::bind_schedule(ScheduleHook* schedule, int rank) {
  schedule_ = schedule;
  rank_ = rank;  // also set here: bind_verifier is skipped when verify is off
}

std::optional<Message> Mailbox::try_pop(int src, int tag) {
  std::lock_guard lock(mu_);
  const int tags[] = {tag};
  const std::size_t idx = find_match(src, tags);
  if (idx == kNpos) return std::nullopt;
  return take_at(idx);
}

std::size_t Mailbox::pending() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

bool Mailbox::has_match(int src, int tag) const {
  std::lock_guard lock(mu_);
  const int tags[] = {tag};
  return find_match(src, tags) != kNpos;
}

bool Mailbox::has_match_any(int src, std::span<const int> tags) const {
  std::lock_guard lock(mu_);
  return find_match(src, tags) != kNpos;
}

std::vector<Mailbox::PendingInfo> Mailbox::pending_info() const {
  std::lock_guard lock(mu_);
  std::vector<PendingInfo> out;
  out.reserve(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    out.push_back({queue_[i].src, queue_[i].tag, queue_[i].size(), seq_[i]});
  }
  // (src, tag, seq) order keeps leak reports byte-stable across schedules
  // that deliver the same message set in different arrival orders.
  std::sort(out.begin(), out.end(), [](const PendingInfo& a,
                                       const PendingInfo& b) {
    return std::tie(a.src, a.tag, a.seq) < std::tie(b.src, b.tag, b.seq);
  });
  return out;
}

}  // namespace pioblast::mpisim
