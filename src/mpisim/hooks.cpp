#include "mpisim/hooks.h"

namespace pioblast::mpisim {

const char* to_string(YieldPoint::Kind kind) {
  switch (kind) {
    case YieldPoint::Kind::kBegin: return "begin";
    case YieldPoint::Kind::kSend: return "send";
    case YieldPoint::Kind::kRecv: return "recv";
    case YieldPoint::Kind::kCollective: return "collective";
    case YieldPoint::Kind::kFault: return "fault";
  }
  return "?";
}

bool independent(const YieldPoint& a, const YieldPoint& b) {
  using Kind = YieldPoint::Kind;
  // Collectives are checked against a job-global order, a fault retires a
  // rank everywhere at once, and a not-yet-started rank's first op is
  // unknown: all dependent with everything.
  auto global = [](const YieldPoint& p) {
    return p.kind == Kind::kBegin || p.kind == Kind::kCollective ||
           p.kind == Kind::kFault;
  };
  if (global(a) || global(b)) return false;
  // Point-to-point ops commute iff they touch different mailboxes. Two
  // sends into the same mailbox are kept dependent even though matching is
  // arrival-ordered — cheap insurance against matching-rule changes.
  auto mailbox_of = [](const YieldPoint& p) {
    return p.kind == Kind::kSend ? p.peer : p.rank;
  };
  return mailbox_of(a) != mailbox_of(b);
}

}  // namespace pioblast::mpisim
