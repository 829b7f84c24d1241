#include "mpisim/process.h"

#include <algorithm>

#include "mpisim/event_loop.h"
#include "mpisim/verifier.h"

namespace pioblast::mpisim {

Process::Process(int rank, World& world) : rank_(rank), world_(world) {
  PIOBLAST_CHECK(rank >= 0 && rank < world.size());
  if (const RankFault* f = world.faults().find(rank)) {
    crash_at_ = f->crash_at;
    slow_ = f->slow;
    drop_sends_ = f->drop_sends;
  }
}

void Process::yield_point(YieldPoint::Kind kind, int peer, int tag) {
  if (EventLoop* loop = world_.loop())
    loop->yield(YieldPoint{rank_, kind, peer, tag});
}

void Process::maybe_crash() {
  if (crash_at_ != 0 && ++comm_events_ == crash_at_) {
    // The crash is itself a scheduling-relevant event: exploring where it
    // lands relative to other ranks' progress is how mpicheck exercises
    // detection/recovery interleavings.
    yield_point(YieldPoint::Kind::kFault, -1, 0);
    throw RankCrash{rank_, crash_at_, clock_.now()};
  }
}

void Process::annotate_write(const void* obj, std::string_view what) {
  if (RaceHook* r = world_.race()) r->on_access(rank_, obj, what, true, {});
}

void Process::accrue_phase() {
  phases_.add(current_phase_, clock_.now() - phase_mark_);
  phase_mark_ = clock_.now();
}

void Process::compute(sim::Time seconds) {
  // Heterogeneous machines: a half-speed node takes twice as long for the
  // same nominal work (sim::ClusterConfig::node_speed). An injected
  // straggler fault multiplies the cost on top of the configured speed.
  clock_.advance(seconds * slow_ / cluster().speed_of(rank_));
}

void Process::io_wait(sim::Time seconds) { clock_.advance(seconds); }

void Process::set_phase(const std::string& name) {
  accrue_phase();
  current_phase_ = name;
  if (Tracer* t = world_.tracer())
    t->record(rank_, clock_.now(), TraceKind::kPhase, name);
}

void Process::mark(const std::string& detail) {
  if (Tracer* t = world_.tracer())
    t->record(rank_, clock_.now(), TraceKind::kMark, detail);
}

void Process::trace(TraceKind kind, std::string detail) {
  if (Tracer* t = world_.tracer())
    t->record(rank_, clock_.now(), kind, std::move(detail));
}

util::PhaseTimer& Process::phases() {
  accrue_phase();
  return phases_;
}

void Process::send(int dst, int tag, std::span<const std::uint8_t> data,
                   TypeStamp stamp) {
  PIOBLAST_CHECK_MSG(dst >= 0 && dst < size(), "send to invalid rank " << dst);
  PIOBLAST_CHECK_MSG(dst != rank_, "send to self is not supported");
  yield_point(YieldPoint::Kind::kSend, dst, tag);
  maybe_crash();
  if (ProtocolVerifier* v = world_.verifier()) v->on_send(rank_, dst, tag);
  const auto& net = cluster().network;
  clock_.advance(net.send_cost(data.size()));
  ++send_seq_;
  const bool dropped = std::find(drop_sends_.begin(), drop_sends_.end(),
                                 send_seq_) != drop_sends_.end();
  bytes_sent_ += data.size();
  ++messages_sent_;
  if (Tracer* t = world_.tracer()) {
    t->record({.rank = rank_, .time = clock_.now(),
               .kind = dropped ? TraceKind::kFault : TraceKind::kSend,
               .drop = dropped, .peer = dst, .tag = tag, .bytes = data.size(),
               .seq = dropped ? send_seq_ : 0});
  }
  // The happens-before token is issued even for dropped sends (the send
  // itself still happened on this rank's timeline) but only a delivered
  // message carries it to the receiver.
  std::uint64_t hb = 0;
  if (RaceHook* r = world_.race()) hb = r->on_send(rank_);
  if (dropped) return;  // injection cost charged; the wire eats the message
  Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.arrival = clock_.now() + net.wire_latency();
  msg.payload.assign(data.begin(), data.end());
  msg.stamp = stamp;
  msg.hb = hb;
  world_.mailbox(dst).push(std::move(msg));
}

Message Process::recv(int src, int tag) {
  const int tags[] = {tag};
  return receive(src, tags);
}

Message Process::recv_any_of(std::span<const int> tags) {
  return receive(kAnySource, tags);
}

Message Process::receive(int src, std::span<const int> tags) {
  yield_point(YieldPoint::Kind::kRecv, src, tags.empty() ? 0 : tags[0]);
  if (ProtocolVerifier* v = world_.verifier()) {
    for (const int tag : tags) v->on_recv_posted(rank_, src, tag);
  }
  maybe_crash();
  Message msg = world_.mailbox(rank_).pop_any(src, tags);
  if (RaceHook* r = world_.race(); r != nullptr && msg.hb != 0)
    r->on_recv(rank_, msg.hb);
  clock_.advance_to(msg.arrival);
  clock_.advance(cluster().network.recv_cost(msg.size()));
  if (Tracer* t = world_.tracer()) {
    t->record({.rank = rank_, .time = clock_.now(), .kind = TraceKind::kRecv,
               .peer = msg.src, .tag = msg.tag, .bytes = msg.size()});
  }
  return msg;
}

std::size_t Process::drain(int tag) {
  std::size_t n = 0;
  while (auto msg = world_.mailbox(rank_).try_pop(kAnySource, tag)) {
    if (RaceHook* r = world_.race(); r != nullptr && msg->hb != 0)
      r->on_recv(rank_, msg->hb);
    ++n;
  }
  return n;
}

void Process::check_stamp(const Message& msg, int tag, TypeStamp expected) {
  if (ProtocolVerifier* v = world_.verifier())
    v->check_stamp(rank_, tag, msg, expected);
}

std::string Process::tag_label(int tag) const {
  if (ProtocolVerifier* v = world_.verifier()) return v->tag_label(tag);
  return std::to_string(tag);
}

std::span<const int> Process::internal_tags() {
  static constexpr int kTags[] = {kTagBarrierUp, kTagBarrierDown, kTagBcast,
                                  kTagGather,    kTagReduce,      kTagFaultNotice};
  return kTags;
}

void Process::enter_collective(const char* op, int root) {
  yield_point(YieldPoint::Kind::kCollective, root, 0);
  const std::uint64_t seq = collectives_entered_++;
  if (Tracer* t = world_.tracer()) {
    t->record({.rank = rank_, .time = clock_.now(),
               .kind = TraceKind::kCollective, .peer = root, .seq = seq,
               .op = op});
  }
  if (ProtocolVerifier* v = world_.verifier()) v->on_collective(rank_, op, root);
}

void Process::barrier() {
  enter_collective("barrier", 0);
  const int p = size();
  if (world_.fault_tolerant()) {
    // Flat barrier through rank 0: every rank reports in, rank 0 releases.
    // No rank depends on a non-root peer to forward, so a crashed interior
    // rank cannot strand a subtree. When a rank crashed mid-job its
    // report-in never arrives: rank 0 skips it (PeerLostError) and the
    // release to its sealed mailbox is a no-op, so the survivors still
    // converge.
    if (rank_ == 0) {
      for (int r = 1; r < p; ++r) {
        try {
          recv(r, kTagBarrierUp);
        } catch (const PeerLostError&) {
          // Crashed rank: will never report in.
        }
      }
      for (int r = 1; r < p; ++r) send(r, kTagBarrierDown, {});
    } else {
      send(0, kTagBarrierUp, {});
      recv(0, kTagBarrierDown);
    }
    return;
  }
  // Binomial reduce to rank 0, then binomial release — O(log P) depth
  // instead of the flat O(P) fan-in, which dominates past a few hundred
  // ranks. Up phase: a rank absorbs each child `rank + mask` below its
  // lowest set bit, then reports to parent `rank - lowbit(rank)`. Nobody
  // leaves before the slowest arrival: the release descends from rank 0,
  // which (transitively) waited for everyone, so a barrier still acts as
  // a virtual-clock synchronization point.
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((rank_ & mask) != 0) {
      send(rank_ - mask, kTagBarrierUp, {});
      break;
    }
    if (rank_ + mask < p) recv(rank_ + mask, kTagBarrierUp);
  }
  // Down phase: the exact mirror. lowbit bounds this rank's subtree; the
  // root's bound is the smallest power of two covering the world.
  int top = 1;
  while (top < p) top <<= 1;
  const int lowbit = rank_ == 0 ? top : (rank_ & -rank_);
  if (rank_ != 0) recv(rank_ - lowbit, kTagBarrierDown);
  for (int mask = lowbit >> 1; mask >= 1; mask >>= 1) {
    if (rank_ + mask < p) send(rank_ + mask, kTagBarrierDown, {});
  }
}

void Process::bcast(std::vector<std::uint8_t>& data, int root) {
  PIOBLAST_CHECK(root >= 0 && root < size());
  enter_collective("bcast", root);
  const int p = size();
  if (world_.fault_tolerant()) {
    // Flat root-sends-to-all topology: no rank ever depends on a non-root
    // peer to forward, so a crashed interior rank cannot strand a
    // subtree. Gated on the static plan (not the dynamic dead set) so all
    // ranks agree on the topology. Sends to sealed mailboxes vanish.
    if (rank_ == root) {
      for (int r = 0; r < p; ++r)
        if (r != root) send(r, kTagBcast, data);
    } else {
      Message msg = recv(root, kTagBcast);
      data = std::move(msg.payload);
    }
    return;
  }
  // Binomial tree rooted at `root`, ranks renumbered relative to it.
  // A non-root rank `rel` receives from parent `rel - m` in round
  // log2(m), where m is the highest power of two not exceeding rel, then
  // forwards to `rel + mask` in every later round while that child exists.
  const int rel = (rank_ - root + p) % p;
  int first_send_mask = 1;
  if (rel != 0) {
    int m = 1;
    while (m * 2 <= rel) m <<= 1;
    const int parent = (rel - m + root) % p;
    Message msg = recv(parent, kTagBcast);
    data = std::move(msg.payload);
    first_send_mask = m << 1;
  }
  for (int mask = first_send_mask; mask < p; mask <<= 1) {
    const int target_rel = rel + mask;
    if (rel < mask && target_rel < p) {
      send((target_rel + root) % p, kTagBcast, data);
    }
  }
}

std::vector<std::vector<std::uint8_t>> Process::gather(
    std::span<const std::uint8_t> data, int root) {
  PIOBLAST_CHECK(root >= 0 && root < size());
  enter_collective("gather", root);
  std::vector<std::vector<std::uint8_t>> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(rank_)].assign(data.begin(), data.end());
    // Flat collection in rank order: the root's clock serializes the
    // per-message receive costs, reproducing real master-side incast. A
    // crashed contributor's slot stays empty (callers treat empty as
    // "no contribution").
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      try {
        Message m = recv(r, kTagGather);
        out[static_cast<std::size_t>(r)] = std::move(m.payload);
      } catch (const PeerLostError&) {
        // Crashed rank contributes nothing; impossible without faults.
      }
    }
  } else {
    send(root, kTagGather, data);
  }
  return out;
}

sim::Time Process::allreduce_max(sim::Time value) {
  enter_collective("allreduce_max", 0);
  // Reduce to rank 0, then broadcast the result (bcast picks its own
  // topology for the run mode). Crashed ranks simply drop out of the
  // maximum.
  const int p = size();
  sim::Time best = value;
  if (world_.fault_tolerant()) {
    // Flat reduce: only rank 0 is a fan-in point, so a crashed
    // contributor costs exactly its own value.
    if (rank_ == 0) {
      for (int r = 1; r < p; ++r) {
        try {
          best = std::max(best, recv_value<sim::Time>(r, kTagReduce));
        } catch (const PeerLostError&) {
          // Crashed rank: no contribution.
        }
      }
    } else {
      send_value(0, kTagReduce, value);
    }
  } else {
    // Binomial reduce along the barrier's tree: each rank folds in its
    // children's partial maxima before reporting one value upward.
    for (int mask = 1; mask < p; mask <<= 1) {
      if ((rank_ & mask) != 0) {
        send_value(rank_ - mask, kTagReduce, best);
        break;
      }
      if (rank_ + mask < p)
        best = std::max(best, recv_value<sim::Time>(rank_ + mask, kTagReduce));
    }
  }
  std::vector<std::uint8_t> buf(sizeof(best));
  if (rank_ == 0) std::memcpy(buf.data(), &best, sizeof(best));
  bcast(buf, 0);
  PIOBLAST_CHECK(buf.size() == sizeof(sim::Time));
  std::memcpy(&best, buf.data(), sizeof(best));
  return best;
}

}  // namespace pioblast::mpisim
