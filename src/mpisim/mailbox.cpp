#include "mpisim/mailbox.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>

#include "mpisim/event_loop.h"
#include "mpisim/fault.h"
#include "mpisim/verifier.h"
#include "util/error.h"

namespace pioblast::mpisim {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
/// The source of a taken message's key: below every rank and kAnySource.
constexpr int kHole = std::numeric_limits<int>::min();
constexpr const char* kDefaultPoisonReason =
    "mpisim: receive aborted (job poisoned)";
}  // namespace

void Mailbox::push(Message msg) {
  const int src = msg.src;
  const int tag = msg.tag;
  std::uint64_t seq = 0;
  {
    std::lock_guard lock(mu_);
    if (sealed_) return;  // the owning rank crashed; its mail vanishes
    seq = next_seq_++;
    keys_.push_back({src, tag});
    queue_.push_back(std::move(msg));
    seq_.push_back(seq);
    ++live_;
  }
  // Called unlocked, like on_block in pop_any: the verifier takes mailbox
  // locks under its own. The arrival ordinal keeps a late call from
  // clearing a wait registered after the message was already taken.
  if (verifier_ != nullptr) verifier_->on_push(rank_, src, tag, seq);
  cv_.notify_all();
  if (loop_ != nullptr) loop_->wake(rank_);
}

std::size_t Mailbox::find_match(int src, std::span<const int> tags) const {
  const auto listed = [&](int tag) {
    return std::find(tags.begin(), tags.end(), tag) != tags.end();
  };
  if (src != kAnySource) {
    // Point-to-point matching preserves per-sender FIFO order: take the
    // first queued message from that sender with a listed tag. A hole's
    // source is no rank, so it never matches.
    for (std::size_t i = head_; i < keys_.size(); ++i)
      if (keys_[i].src == src && listed(keys_[i].tag)) return i;
    return kNpos;
  }
  // Wildcard: earliest virtual arrival wins; ties broken by sender rank,
  // then by queue order, so the choice is stable.
  std::size_t best = kNpos;
  for (std::size_t i = head_; i < keys_.size(); ++i) {
    if (keys_[i].src == kHole || !listed(keys_[i].tag)) continue;
    const Message& m = queue_[i];
    if (best == kNpos || m.arrival < queue_[best].arrival ||
        (m.arrival == queue_[best].arrival && m.src < queue_[best].src)) {
      best = i;
    }
  }
  return best;
}

Message Mailbox::take_at(std::size_t idx) {
  Message msg = std::move(queue_[idx]);
  keys_[idx].src = kHole;
  if (--live_ == 0) {
    clear_queue();
  } else {
    while (keys_[head_].src == kHole) ++head_;
    if (keys_.size() - live_ > live_) compact();
  }
  return msg;
}

void Mailbox::compact() {
  std::size_t out = 0;
  for (std::size_t i = head_; i < keys_.size(); ++i) {
    if (keys_[i].src == kHole) continue;
    // Never move an element onto itself: a self-move-assigned vector
    // leaves the payload empty.
    if (out != i) {
      keys_[out] = keys_[i];
      queue_[out] = std::move(queue_[i]);
      seq_[out] = seq_[i];
    }
    ++out;
  }
  keys_.resize(out);
  queue_.resize(out);
  seq_.resize(out);
  head_ = 0;
}

void Mailbox::clear_queue() {
  keys_.clear();
  queue_.clear();
  seq_.clear();
  head_ = 0;
  live_ = 0;
}

Message Mailbox::pop(int src, int tag) {
  const int tags[] = {tag};
  return pop_any(src, tags);
}

Message Mailbox::pop_any(int src, std::span<const int> tags) {
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
    if (loop_ != nullptr) {
      // Event backend: park this rank's fiber on the loop instead of the
      // condition variable. Only this fiber has run since the match check
      // above, so no wakeup can be lost; block() returns once a push/
      // poison/seal/death woke the rank and the loop resumed it, and the
      // enclosing for(;;) re-checks the predicate.
      loop_->block(rank_);
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
    clear_queue();
  }
  cv_.notify_all();
  if (loop_ != nullptr) loop_->wake(rank_);
}

void Mailbox::notify_dead(int rank) {
  {
    std::lock_guard lock(mu_);
    dead_.insert(rank);
  }
  cv_.notify_all();
  if (loop_ != nullptr) loop_->wake(rank_);
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
  if (loop_ != nullptr) loop_->wake(rank_);
}

void Mailbox::bind_verifier(ProtocolVerifier* verifier, int rank) {
  verifier_ = verifier;
  rank_ = rank;
}

void Mailbox::bind_loop(EventLoop* loop, int rank) {
  loop_ = loop;
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
  return live_;
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
  out.reserve(live_);
  for (std::size_t i = head_; i < keys_.size(); ++i) {
    if (keys_[i].src == kHole) continue;
    out.push_back({keys_[i].src, keys_[i].tag, queue_[i].size(), seq_[i]});
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
