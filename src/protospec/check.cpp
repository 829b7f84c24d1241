#include "protospec/check.h"

#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "driver/tags.h"
#include "mpicheck/por.h"
#include "mpisim/fault.h"
#include "mpisim/hooks.h"

namespace pioblast::protospec {
namespace {

struct Msg {
  std::int16_t flavor = 0;
  std::uint64_t stamp = 0;
};

struct ChanKey {
  int src = 0;
  int dst = 0;
  int tag = 0;
  friend auto operator<=>(const ChanKey&, const ChanKey&) = default;
};

struct RankState {
  std::int16_t state = 0;
  std::int16_t coll_edge = -1;  ///< edge index while blocked in a collective
  std::uint8_t crashed = 0;
  Env env;
};

struct GState {
  std::vector<RankState> ranks;
  std::map<ChanKey, std::vector<Msg>> chans;  ///< front = index 0
  int crashes = 0;
};

struct Trans {
  enum Kind : std::uint8_t { kEdge, kCrash } kind = kEdge;
  int rank = -1;
  int edge = -1;  ///< index into the rank's role edges (kEdge only)
  int peer = -1;  ///< resolved concrete peer, -1 if none
  mpisim::YieldPoint yp;
  std::uint64_t sig = 0;  ///< stable identity for sleep sets
};

// The dependence notion for sleep-set pruning. The runtime's relation
// (mpisim::independent) works at mailbox granularity because a rank has
// one mailbox; the checker's queues are per (src, dst, tag) channel, so
// the faithful relation here is finer — two workers' sends to the master
// land in different queues and commute, with the genuine race captured
// at the master's recv *choice*, which same-rank dependence keeps fully
// explored. Independence must also preserve enabledness: every true
// branch below leaves the other action enabled with an identical effect
// in either order (the deterministic tau/collective closure after each
// step is confluent, so closing in either order reaches the same state).
bool edges_independent(const Trans& a, const Trans& b) {
  // Two actions of one rank never commute: taking either moves the
  // control state (or, for a crash, kills the rank) that the other was
  // enabled in. This also pins every crash placement relative to the
  // victim's own steps, as the single-crash sweep requires.
  if (a.rank == b.rank) return false;
  const bool ac = a.kind == Trans::kCrash;
  const bool bc = b.kind == Trans::kCrash;
  if (ac || bc) {
    if (ac && bc) return false;  // both push onto rank 0's notice channel
    const Trans& o = ac ? b : a;
    // crash(v) seals channels INTO v and pushes the fault notice. A send
    // into v commutes: the message is erased by the seal in one order and
    // dropped at apply() in the other — same state either way. A recv
    // FROM a sealed channel would be v's own op (same-rank, above).
    // Still dependent: collectives (their completion condition counts
    // live ranks) and anything touching the notice channel (the master's
    // fault-notice recvs).
    if (o.yp.kind == mpisim::YieldPoint::Kind::kCollective) return false;
    if (o.yp.tag == mpisim::kTagFaultNotice) return false;
    return true;
  }
  if (a.yp.kind == mpisim::YieldPoint::Kind::kCollective ||
      b.yp.kind == mpisim::YieldPoint::Kind::kCollective)
    return false;  // collectives synchronize every live rank
  // P2p ops commute iff they touch different (src, dst, tag) queues.
  const auto chan_of = [](const Trans& t) {
    return t.yp.kind == mpisim::YieldPoint::Kind::kSend
               ? ChanKey{t.rank, t.peer, t.yp.tag}
               : ChanKey{t.peer, t.rank, t.yp.tag};
  };
  return chan_of(a) != chan_of(b);
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void fnv_val(std::uint64_t& h, const T& v) {
  fnv_bytes(h, &v, sizeof(v));
}

class ModelChecker {
 public:
  ModelChecker(const ProtocolSpec& spec, const SpecParams& params,
               const ModelCheckOptions& opts)
      : spec_(spec), params_(params), opts_(opts), n_(params.nranks) {}

  ModelCheckResult run();

 private:
  const Role& role(int rank) const { return spec_.role_for(rank, params_); }

  Ctx make_ctx(GState& g, int rank, int peer, int flavor) {
    refresh_crashed(g);
    Ctx c;
    c.params = &params_;
    c.env = &g.ranks[static_cast<std::size_t>(rank)].env;
    c.self = rank;
    c.nranks = n_;
    c.peer = peer;
    c.flavor = flavor;
    c.crashed = crashed_.data();
    c.strict = true;
    return c;
  }

  void refresh_crashed(const GState& g) {
    crashed_.resize(static_cast<std::size_t>(n_));
    for (int r = 0; r < n_; ++r)
      crashed_[static_cast<std::size_t>(r)] =
          g.ranks[static_cast<std::size_t>(r)].crashed;
  }

  bool done(const GState& g, int rank) const {
    const RankState& rs = g.ranks[static_cast<std::size_t>(rank)];
    return rs.crashed == 0 && rs.state == role(rank).accept;
  }

  bool live(const GState& g, int rank) const {
    return g.ranks[static_cast<std::size_t>(rank)].crashed == 0;
  }

  const std::vector<Msg>* chan(const GState& g, int src, int dst,
                               int tag) const {
    const auto it = g.chans.find(ChanKey{src, dst, tag});
    return it == g.chans.end() || it->second.empty() ? nullptr : &it->second;
  }

  // True when `e`'s lost-peer escape can fire for `rank` with peer `p`:
  // the peer is gone and nothing it sent on this tag is still in flight.
  bool escape_enabled(GState& g, int rank, const Edge& e, int p) {
    if (p < 0 || p >= n_) return false;
    if (g.ranks[static_cast<std::size_t>(p)].crashed == 0) return false;
    if (chan(g, p, rank, e.tag) != nullptr) return false;
    const Ctx c = make_ctx(g, rank, p, 0);
    return guard_ok(e, c);
  }

  // Enabled tau edges of one rank (lost-peer escapes included).
  std::vector<int> enabled_taus(GState& g, int rank) {
    std::vector<int> out;
    const Role& ro = role(rank);
    const RankState& rs = g.ranks[static_cast<std::size_t>(rank)];
    for (std::size_t i = 0; i < ro.edges.size(); ++i) {
      const Edge& e = ro.edges[i];
      if (e.from != rs.state || e.op != Op::kTau) continue;
      if (e.lost_peer_escape) {
        const int p = resolve_peer(e, rs.env);
        if (escape_enabled(g, rank, e, p)) out.push_back(static_cast<int>(i));
        continue;
      }
      const Ctx c = make_ctx(g, rank, -1, 0);
      if (guard_ok(e, c)) out.push_back(static_cast<int>(i));
    }
    return out;
  }

  // Fires deterministic internal steps until quiescence: collective
  // completion (all live unfinished ranks blocked in the same collective)
  // and tau edges. Both are local/commuting, so eager application is a
  // sound reduction. Returns a violation message or nullopt.
  std::optional<std::string> close_internal(GState& g) {
    for (int iter = 0; iter < 100000; ++iter) {
      bool progress = false;
      // Collective completion.
      std::vector<int> waiting;
      bool all_blocked = true;
      for (int r = 0; r < n_; ++r) {
        if (!live(g, r) || done(g, r)) continue;
        if (g.ranks[static_cast<std::size_t>(r)].coll_edge < 0) {
          all_blocked = false;
          break;
        }
        waiting.push_back(r);
      }
      if (all_blocked && !waiting.empty()) {
        const Edge& first =
            role(waiting[0]).edges[static_cast<std::size_t>(
                g.ranks[static_cast<std::size_t>(waiting[0])].coll_edge)];
        for (const int r : waiting) {
          const Edge& e = role(r).edges[static_cast<std::size_t>(
              g.ranks[static_cast<std::size_t>(r)].coll_edge)];
          if (std::string_view(e.coll) != std::string_view(first.coll)) {
            return "collective-order mismatch: rank " +
                   std::to_string(waiting[0]) + " entered '" + first.coll +
                   "' but rank " + std::to_string(r) + " entered '" + e.coll +
                   "'";
          }
        }
        for (const int r : waiting) {
          RankState& rs = g.ranks[static_cast<std::size_t>(r)];
          const Edge& e =
              role(r).edges[static_cast<std::size_t>(rs.coll_edge)];
          rs.coll_edge = -1;
          Ctx c = make_ctx(g, r, -1, 0);
          if (e.effect != nullptr) e.effect(c);
          rs.state = e.to;
        }
        progress = true;
      }
      // Tau closure.
      for (int r = 0; r < n_; ++r) {
        if (!live(g, r) || done(g, r)) continue;
        RankState& rs = g.ranks[static_cast<std::size_t>(r)];
        if (rs.coll_edge >= 0) continue;
        const std::vector<int> taus = enabled_taus(g, r);
        if (taus.size() > 1) {
          return "nondeterministic internal choice at rank " +
                 std::to_string(r) + " state " +
                 state_label(role(r), rs.state) + " (" +
                 std::to_string(taus.size()) + " tau edges enabled)";
        }
        if (taus.empty()) continue;
        const Edge& e = role(r).edges[static_cast<std::size_t>(taus[0])];
        const int p =
            e.lost_peer_escape ? resolve_peer(e, rs.env) : -1;
        Ctx c = make_ctx(g, r, p, 0);
        if (e.effect != nullptr) e.effect(c);
        rs.state = e.to;
        progress = true;
      }
      if (!progress) return std::nullopt;
    }
    return std::string("internal-step closure did not converge (tau cycle)");
  }

  std::uint64_t trans_sig(const Trans& t) const {
    std::uint64_t h = kFnvOffset;
    fnv_val(h, t.kind);
    fnv_val(h, t.rank);
    fnv_val(h, t.edge);
    fnv_val(h, t.peer);
    return h;
  }

  Trans make_edge_trans(int rank, int edge_idx, const Edge& e, int peer) {
    Trans t;
    t.kind = Trans::kEdge;
    t.rank = rank;
    t.edge = edge_idx;
    t.peer = peer;
    t.yp.rank = rank;
    switch (e.op) {
      case Op::kSend:
        t.yp.kind = mpisim::YieldPoint::Kind::kSend;
        break;
      case Op::kRecv:
        t.yp.kind = mpisim::YieldPoint::Kind::kRecv;
        break;
      default:
        t.yp.kind = mpisim::YieldPoint::Kind::kCollective;
        break;
    }
    t.yp.peer = peer;
    t.yp.tag = e.tag;
    t.sig = trans_sig(t);
    return t;
  }

  void enumerate_rank(GState& g, int rank, std::vector<Trans>& out) {
    if (!live(g, rank) || done(g, rank)) return;
    const RankState& rs = g.ranks[static_cast<std::size_t>(rank)];
    if (rs.coll_edge >= 0) return;  // blocked in a collective
    const Role& ro = role(rank);
    for (std::size_t i = 0; i < ro.edges.size(); ++i) {
      const Edge& e = ro.edges[i];
      if (e.from != rs.state) continue;
      std::vector<int> peers;
      switch (e.op) {
        case Op::kTau:
          continue;  // drained by close_internal
        case Op::kCollective: {
          const Ctx c = make_ctx(g, rank, -1, 0);
          if (guard_ok(e, c)) out.push_back(make_edge_trans(
              rank, static_cast<int>(i), e, -1));
          continue;
        }
        case Op::kSend:
        case Op::kRecv: {
          const int p = resolve_peer(e, rs.env);
          if (p == kPeerAny) {
            for (int w = 1; w < n_; ++w) peers.push_back(w);
          } else if (p >= 0 && p < n_) {
            peers.push_back(p);
          }
          break;
        }
      }
      for (const int p : peers) {
        if (e.op == Op::kSend) {
          const Ctx c = make_ctx(g, rank, p, 0);
          if (guard_ok(e, c))
            out.push_back(make_edge_trans(rank, static_cast<int>(i), e, p));
        } else {
          const std::vector<Msg>* q = chan(g, p, rank, e.tag);
          if (q == nullptr) continue;
          const Msg& front = q->front();
          if (e.flavor != kAnyFlavor && e.flavor != front.flavor) continue;
          const Ctx c = make_ctx(g, rank, p, front.flavor);
          if (guard_ok(e, c))
            out.push_back(make_edge_trans(rank, static_cast<int>(i), e, p));
        }
      }
    }
  }

  std::vector<Trans> enumerate(GState& g) {
    std::vector<Trans> out;
    for (int r = 0; r < n_; ++r) enumerate_rank(g, r, out);
    if (g.crashes < opts_.max_crashes) {
      for (int v = 1; v < n_; ++v) {
        if (!live(g, v) || done(g, v)) continue;
        Trans t;
        t.kind = Trans::kCrash;
        t.rank = v;
        t.yp.rank = v;
        // The YieldPoint is descriptive; what a crash commutes with is
        // decided structurally by edges_independent.
        t.yp.kind = mpisim::YieldPoint::Kind::kFault;
        t.sig = trans_sig(t);
        out.push_back(t);
      }
    }
    return out;
  }

  std::optional<std::string> apply(GState& g, const Trans& t) {
    if (t.kind == Trans::kCrash) {
      RankState& rs = g.ranks[static_cast<std::size_t>(t.rank)];
      rs.crashed = 1;
      rs.coll_edge = -1;
      ++g.crashes;
      // Sealed mailbox: everything already queued for the victim is gone.
      for (auto it = g.chans.begin(); it != g.chans.end();) {
        if (it->first.dst == t.rank)
          it = g.chans.erase(it);
        else
          ++it;
      }
      // The failure detector's notice to rank 0.
      g.chans[ChanKey{t.rank, 0, mpisim::kTagFaultNotice}].push_back(Msg{});
      return close_internal(g);
    }
    RankState& rs = g.ranks[static_cast<std::size_t>(t.rank)];
    const Edge& e = role(t.rank).edges[static_cast<std::size_t>(t.edge)];
    switch (e.op) {
      case Op::kSend: {
        if (t.peer >= 0 &&
            g.ranks[static_cast<std::size_t>(t.peer)].crashed == 0)
          g.chans[ChanKey{t.rank, t.peer, e.tag}].push_back(
              Msg{e.flavor, e.stamp});
        Ctx c = make_ctx(g, t.rank, t.peer, 0);
        if (e.effect != nullptr) e.effect(c);
        rs.state = e.to;
        break;
      }
      case Op::kRecv: {
        auto& q = g.chans[ChanKey{t.peer, t.rank, e.tag}];
        const Msg front = q.front();
        q.erase(q.begin());
        if (q.empty()) g.chans.erase(ChanKey{t.peer, t.rank, e.tag});
        if (front.stamp != e.stamp) {
          return "tag-type mismatch on " + driver::tag_label(e.tag) +
                 " at rank " + std::to_string(t.rank) + " edge " + e.name +
                 ": sent stamp " + std::to_string(front.stamp) +
                 ", spec expects " + std::to_string(e.stamp);
        }
        Ctx c = make_ctx(g, t.rank, t.peer, front.flavor);
        if (e.effect != nullptr) e.effect(c);
        rs.state = e.to;
        break;
      }
      case Op::kCollective:
        rs.coll_edge = static_cast<std::int16_t>(t.edge);
        break;
      case Op::kTau:
        break;  // unreachable: taus never become Trans
    }
    return close_internal(g);
  }

  std::uint64_t state_hash(const GState& g) const {
    std::uint64_t h = kFnvOffset;
    fnv_val(h, g.crashes);
    for (const RankState& rs : g.ranks) {
      fnv_val(h, rs.state);
      fnv_val(h, rs.coll_edge);
      fnv_val(h, rs.crashed);
      fnv_bytes(h, rs.env.c, sizeof(rs.env.c));
      fnv_bytes(h, rs.env.hist, sizeof(rs.env.hist[0]) *
                                    static_cast<std::size_t>(n_));
      fnv_bytes(h, rs.env.f, static_cast<std::size_t>(n_));
    }
    for (const auto& [key, q] : g.chans) {
      fnv_val(h, key.src);
      fnv_val(h, key.dst);
      fnv_val(h, key.tag);
      for (const Msg& m : q) fnv_val(h, m.flavor);
    }
    return h;
  }

  std::string dump(const GState& g) {
    std::ostringstream os;
    for (int r = 0; r < n_; ++r) {
      const RankState& rs = g.ranks[static_cast<std::size_t>(r)];
      os << "\n  rank " << r << " [" << role(r).name << "]";
      if (rs.crashed != 0) {
        os << " crashed";
        continue;
      }
      os << " state=" << state_label(role(r), rs.state);
      if (rs.coll_edge >= 0)
        os << " blocked-in="
           << role(r).edges[static_cast<std::size_t>(rs.coll_edge)].coll;
      os << " c=[";
      for (int i = 0; i < 6; ++i) os << (i != 0 ? "," : "") << rs.env.c[i];
      os << "]";
    }
    for (const auto& [key, q] : g.chans) {
      if (q.empty()) continue;
      os << "\n  channel " << key.src << "->" << key.dst << " "
         << driver::tag_label(key.tag) << ": " << q.size() << " message(s)";
    }
    return os.str();
  }

  void note_queues(const GState& g, CheckStats& st) const {
    for (const auto& [key, q] : g.chans)
      if (q.size() > st.max_queue_depth) st.max_queue_depth = q.size();
  }

  const ProtocolSpec& spec_;
  SpecParams params_;
  ModelCheckOptions opts_;
  int n_;
  std::vector<std::uint8_t> crashed_;
};

ModelCheckResult ModelChecker::run() {
  ModelCheckResult res;
  auto fail = [&res](std::string msg) {
    res.ok = false;
    res.error = std::move(msg);
  };

  if (n_ < 2 || n_ > Env::kMaxRanks) {
    fail("nranks must be in [2, " + std::to_string(Env::kMaxRanks) + "]");
    return res;
  }
  if (params_.tasks < 0 || params_.queries < 0 || params_.fetch_cap < 0) {
    fail("model_check requires concrete bounds (tasks/queries/fetch_cap)");
    return res;
  }
  if (opts_.max_crashes > 0 && !params_.fault_tolerant) {
    fail("a crash budget requires fault_tolerant params (a FaultPlan "
         "implies a fault-tolerant world)");
    return res;
  }
  if (params_.naggs < 1 || params_.naggs > n_ || params_.rounds < 1) {
    fail("pario exchange params out of range (naggs in [1, nranks], "
         "rounds >= 1)");
    return res;
  }

  struct Node {
    GState g;
    std::vector<Trans> trans;
    std::set<std::uint64_t> sleep;
    std::set<std::uint64_t> done;
  };

  // Visited states (hash-compacted) with the sleep sets they were
  // expanded under; a revisit is skippable iff a stored set covers it.
  std::unordered_map<std::uint64_t, std::vector<std::set<std::uint64_t>>>
      visited;

  GState root;
  root.ranks.resize(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r) {
    RankState& rs = root.ranks[static_cast<std::size_t>(r)];
    const Role& ro = role(r);
    rs.state = static_cast<std::int16_t>(ro.initial);
    if (ro.init_env != nullptr) rs.env = Env{}, ro.init_env(rs.env, params_, r);
  }
  if (auto v = close_internal(root)) {
    fail(*v + dump(root));
    return res;
  }

  std::vector<Node> stack;
  auto enter = [&](GState&& g, std::set<std::uint64_t>&& sleep) -> bool {
    // Returns false when the state was pruned or is terminal; true when
    // it was pushed. Sets res on violation.
    const std::uint64_t h = state_hash(g);
    auto& seen = visited[h];
    for (const auto& old : seen) {
      if (mpicheck::sleep_covers(old, sleep)) {
        ++res.stats.states_pruned;
        return false;
      }
    }
    seen.push_back(sleep);
    ++res.stats.states_explored;
    if (res.stats.states_explored > opts_.max_states) {
      fail("state space exceeded max_states=" +
           std::to_string(opts_.max_states) +
           " (raise the bound or shrink the params)");
      return false;
    }
    note_queues(g, res.stats);
    Node node;
    node.g = std::move(g);
    node.trans = enumerate(node.g);
    node.sleep = std::move(sleep);
    bool progress_possible = false;
    for (const Trans& t : node.trans)
      if (t.kind != Trans::kCrash) progress_possible = true;
    if (!progress_possible) {
      bool all_done = true;
      for (int r = 0; r < n_; ++r)
        if (live(node.g, r) && !done(node.g, r)) all_done = false;
      if (!all_done) {
        fail("deadlock: no transition enabled" + dump(node.g));
        return false;
      }
      for (const auto& [key, q] : node.g.chans) {
        if (q.empty() || key.tag == mpisim::kTagFaultNotice) continue;
        // serve_work drains dead workers' stray requests at loop exit
        // (the notice-overtakes-final-request ordering), so they are not
        // orphans — exactly as the runtime's leak check never sees them.
        if (key.tag == driver::kTagWorkReq &&
            node.g.ranks[static_cast<std::size_t>(key.src)].crashed != 0)
          continue;
        fail("orphan message(s) at termination on channel " +
             std::to_string(key.src) + "->" + std::to_string(key.dst) + " " +
             driver::tag_label(key.tag) + dump(node.g));
        return false;
      }
      ++res.stats.terminal_states;
      if (node.trans.empty()) return false;
    }
    stack.push_back(std::move(node));
    if (stack.size() > res.stats.max_depth) res.stats.max_depth = stack.size();
    return true;
  };

  enter(std::move(root), {});
  while (!stack.empty() && res.ok) {
    Node& top = stack.back();
    const Trans* pick = nullptr;
    for (const Trans& t : top.trans) {
      if (top.done.contains(t.sig)) continue;
      if (opts_.por && top.sleep.contains(t.sig)) {
        ++res.stats.states_pruned;
        top.done.insert(t.sig);
        continue;
      }
      pick = &t;
      break;
    }
    if (pick == nullptr) {
      stack.pop_back();
      continue;
    }
    const Trans t = *pick;
    top.done.insert(t.sig);
    GState child = top.g;
    ++res.stats.transitions;
    if (t.kind == Trans::kCrash) ++res.stats.crash_branches;
    if (auto v = apply(child, t)) {
      fail(*v + dump(child));
      break;
    }
    std::set<std::uint64_t> sleep;
    if (opts_.por) {
      // op_of looks the signature up among the child's still-pending
      // transitions; computing them twice is avoided by enumerating into
      // a map first. An action absent from the child (no longer enabled)
      // drops out of the sleep set and stays awake — the sound direction.
      std::vector<Trans> child_trans = enumerate(child);
      std::map<std::uint64_t, const Trans*> pending;
      for (const Trans& ct : child_trans) pending[ct.sig] = &ct;
      sleep = mpicheck::inherit_sleep(
          top.sleep, top.done, t.sig, &t,
          [&pending](std::uint64_t sig) -> const Trans* {
            const auto it = pending.find(sig);
            return it == pending.end() ? nullptr : it->second;
          },
          edges_independent);
    }
    enter(std::move(child), std::move(sleep));
  }
  return res;
}

}  // namespace

ModelCheckResult model_check(const ProtocolSpec& spec,
                             const SpecParams& params,
                             const ModelCheckOptions& opts) {
  return ModelChecker(spec, params, opts).run();
}

}  // namespace pioblast::protospec
