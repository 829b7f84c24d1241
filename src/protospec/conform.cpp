#include "protospec/conform.h"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string_view>
#include <utility>

#include "driver/tags.h"
#include "mpisim/fault.h"
#include "mpisim/message.h"
#include "mpisim/verify.h"

namespace pioblast::protospec {
namespace {

constexpr std::size_t kMaxFrontier = 512;

/// One NFA configuration: a control state plus its environment.
struct Config {
  std::int16_t state = 0;
  Env env;
  friend bool operator==(const Config&, const Config&) = default;
};

void add_config(std::vector<Config>& frontier, Config c) {
  if (std::find(frontier.begin(), frontier.end(), c) == frontier.end())
    frontier.push_back(std::move(c));
}

/// Observable events the monitor consumes; everything else is skipped.
bool observable_tag(int tag) {
  return tag < mpisim::kDriverTagLimit || tag == mpisim::kTagFaultNotice;
}

class Monitor {
 public:
  Monitor(const ProtocolSpec& spec, const SpecParams& params)
      : spec_(spec), params_(params), n_(params.nranks) {}

  ConformResult run(const std::vector<mpisim::TraceEvent>& events);

 private:
  Ctx make_ctx(Env& env, int self, int peer, int flavor) const {
    Ctx c;
    c.params = &params_;
    c.env = &env;
    c.self = self;
    c.nranks = n_;
    c.peer = peer;
    c.flavor = flavor;
    c.crashed = crashed_;
    c.strict = false;
    return c;
  }

  /// Epsilon closure: follows tau edges and silent edges until no new
  /// configuration appears (frontier is deduplicated, so cycles stop).
  bool closure(const Role& role, int self, std::vector<Config>& frontier) {
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      if (frontier.size() > kMaxFrontier) return false;
      const Config cur = frontier[i];
      for (const Edge& e : role.edges) {
        if (e.from != cur.state) continue;
        if (e.op != Op::kTau && !e.silent) continue;
        int peer = resolve_peer(e, cur.env);
        if (e.lost_peer_escape) {
          if (peer < 0 || peer >= n_ || crashed_[peer] == 0) continue;
        }
        if (peer == kPeerAny) peer = -1;
        Config next = cur;
        Ctx c = make_ctx(next.env, self, peer,
                         e.flavor >= 0 ? e.flavor : 0);
        if (!guard_ok(e, c)) continue;
        if (e.effect != nullptr) e.effect(c);
        next.state = e.to;
        add_config(frontier, std::move(next));
      }
    }
    return true;
  }

  /// Consumes one observable event; returns the successor frontier (empty
  /// on divergence) and fills `candidates` with the states that were
  /// available.
  std::vector<Config> step(const Role& role, int self,
                           const std::vector<Config>& frontier,
                           const mpisim::TraceEvent& ev,
                           std::string& candidates) {
    std::vector<Config> next;
    std::ostringstream cand;
    const char* sep = "";
    for (const Config& cur : frontier) {
      cand << sep << state_label(role, cur.state);
      sep = ", ";
      for (const Edge& e : role.edges) {
        if (e.from != cur.state) continue;
        switch (ev.kind) {
          case mpisim::TraceKind::kSend:
          case mpisim::TraceKind::kFault:  // drop-send, pre-filtered
            if (e.op != Op::kSend) continue;
            break;
          case mpisim::TraceKind::kRecv:
            if (e.op != Op::kRecv) continue;
            break;
          case mpisim::TraceKind::kCollective:
            if (e.op != Op::kCollective) continue;
            break;
          default:
            continue;
        }
        if (e.op == Op::kCollective) {
          if (std::string_view(e.coll == nullptr ? "" : e.coll) !=
              std::string_view(ev.op))
            continue;
        } else {
          if (e.tag != ev.tag) continue;
          if (ev.bytes < e.min_bytes || ev.bytes > e.max_bytes) continue;
          const int rp = resolve_peer(e, cur.env);
          if (rp == kPeerAny) {
            if (ev.peer < 1 || ev.peer >= n_) continue;
          } else if (rp != ev.peer) {
            continue;
          }
        }
        Config succ = cur;
        Ctx c = make_ctx(succ.env, self, ev.peer,
                         e.flavor >= 0 ? e.flavor : 0);
        if (!guard_ok(e, c)) continue;
        if (e.effect != nullptr) e.effect(c);
        succ.state = e.to;
        add_config(next, std::move(succ));
      }
    }
    candidates = cand.str();
    return next;
  }

  const ProtocolSpec& spec_;
  SpecParams params_;
  int n_;
  std::uint8_t crashed_[Env::kMaxRanks]{};
};

std::string describe(const mpisim::TraceEvent& e) {
  return std::string(mpisim::to_string(e.kind)) + " " + mpisim::trace_detail(e);
}

ConformResult Monitor::run(const std::vector<mpisim::TraceEvent>& events) {
  ConformResult res;
  auto fail = [&res](std::string msg) {
    res.ok = false;
    res.error = std::move(msg);
  };
  if (n_ < 2 || n_ > Env::kMaxRanks) {
    fail("conformance requires nranks in [2, " +
         std::to_string(Env::kMaxRanks) + "]");
    return res;
  }

  // The monitor's failure view is time-free: a rank counts as crashed for
  // lost-peer escapes if it crashes anywhere in the trace. Permissive, and
  // sound for an NFA monitor.
  for (const mpisim::TraceEvent& e : events) {
    if (e.kind == mpisim::TraceKind::kFault && !e.drop && e.rank < n_)
      crashed_[e.rank] = 1;
  }

  for (int rank = 0; rank < n_ && res.ok; ++rank) {
    const Role& role = spec_.role_for(rank, params_);
    std::vector<Config> frontier;
    {
      Config init;
      init.state = static_cast<std::int16_t>(role.initial);
      if (role.init_env != nullptr) role.init_env(init.env, params_, rank);
      frontier.push_back(std::move(init));
    }
    bool crashed_here = false;
    std::size_t index = 0;  // per-rank observable event index
    for (const mpisim::TraceEvent& e : events) {
      if (e.rank != rank) continue;
      bool observable = false;
      switch (e.kind) {
        case mpisim::TraceKind::kSend:
        case mpisim::TraceKind::kRecv:
          observable = observable_tag(e.tag);
          break;
        case mpisim::TraceKind::kCollective:
          observable = true;
          break;
        case mpisim::TraceKind::kFault:
          // A crash is terminal: the rank is gone. A dropped send still
          // left the sender's send edge: replay it as the SEND it would
          // have been.
          if (!e.drop) crashed_here = true;
          observable = e.drop && observable_tag(e.tag);
          break;
        default:
          break;  // phases, marks, verifier and recovery notes
      }
      if (!observable) {
        ++res.events_skipped;
        continue;
      }
      if (crashed_here) {
        fail("spec " + std::string(spec_.name) + ": rank " +
             std::to_string(rank) + " produced " + describe(e) +
             " after its crash");
        break;
      }
      if (!closure(role, rank, frontier)) {
        fail("spec " + std::string(spec_.name) + ": rank " +
             std::to_string(rank) + " frontier exceeded " +
             std::to_string(kMaxFrontier) +
             " configurations (spec too permissive?)");
        break;
      }
      std::string candidates;
      std::vector<Config> next = step(role, rank, frontier, e, candidates);
      if (next.empty()) {
        fail("spec " + std::string(spec_.name) + ": rank " +
             std::to_string(rank) + " [" + role.name + "] diverged at its " +
             "observable event #" + std::to_string(index) + ": " +
             describe(e) + "; spec allowed states: {" + candidates + "}");
        break;
      }
      frontier = std::move(next);
      ++res.events_checked;
      ++index;
    }
    if (!res.ok) break;
    if (!crashed_here) {
      if (!closure(role, rank, frontier)) {
        fail("spec " + std::string(spec_.name) + ": rank " +
             std::to_string(rank) + " frontier exceeded " +
             std::to_string(kMaxFrontier) + " configurations at end of trace");
        break;
      }
      const bool accepted =
          std::any_of(frontier.begin(), frontier.end(),
                      [&role](const Config& c) {
                        return c.state == role.accept;
                      });
      if (!accepted) {
        std::ostringstream states;
        const char* sep = "";
        for (const Config& c : frontier) {
          states << sep << state_label(role, c.state);
          sep = ", ";
        }
        fail("spec " + std::string(spec_.name) + ": rank " +
             std::to_string(rank) + " [" + role.name +
             "] ended without reaching accept; final states: {" +
             states.str() + "}");
        break;
      }
    }
    ++res.ranks_checked;
  }
  return res;
}

}  // namespace

std::string ConformResult::summary(const std::string& spec_name) const {
  std::string out = "CONFORM spec=" + spec_name +
                    " ranks=" + std::to_string(ranks_checked) +
                    " events=" + std::to_string(events_checked) +
                    " skipped=" + std::to_string(events_skipped) +
                    " result=" + (ok ? "ok" : "diverged");
  if (!ok) out += " error=" + error;
  return out;
}

ConformResult check_conformance(const ProtocolSpec& spec,
                                const SpecParams& params,
                                const std::vector<mpisim::TraceEvent>& events) {
  return Monitor(spec, params).run(events);
}

std::string enforce_conformance(const ProtocolSpec& spec,
                                const SpecParams& params,
                                const std::vector<mpisim::TraceEvent>& events) {
  const ConformResult res = check_conformance(spec, params, events);
  if (!res.ok) throw mpisim::VerifyError(res.summary(spec.name));
  return res.summary(spec.name);
}

}  // namespace pioblast::protospec
