#include "mpisim/fault.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "util/parse.h"
#include "util/rng.h"

namespace pioblast::mpisim {

namespace {

/// What FaultPlan::parse fills: the plan, and the rank the current spec's
/// rank=K names.
struct PlanReader {
  FaultPlan plan;
  std::optional<int> rank;

  RankFault& target() {
    if (!rank) throw util::RuntimeError("needs rank=K before it");
    return plan.at(*rank);
  }
};

constexpr util::Key<PlanReader> kFaultKeys[] = {
    {"rank",
     [](auto& r, auto v) {
       const int rank = util::read_number<int>(v);
       r.rank = rank;
       r.plan.at(rank);
     }},
    {"crash_at",
     [](auto& r, auto v) {
       r.target().crash_at = util::read_number<std::uint64_t>(v, 1);
     }},
    {"slow",
     [](auto& r, auto v) { r.target().slow = util::read_number<double>(v); }},
    {"drop_send",
     [](auto& r, auto v) {
       r.target().drop_sends.push_back(util::read_number<std::uint64_t>(v, 1));
     }},
    {"detect",
     [](auto& r, auto v) {
       r.plan.detection_delay = util::read_number<double>(v);
     }},
};

}  // namespace

bool FaultPlan::has_crash() const {
  return std::any_of(injections.begin(), injections.end(),
                     [](const RankFault& f) { return f.crash_at != 0; });
}

RankFault& FaultPlan::at(int rank) {
  for (RankFault& f : injections)
    if (f.rank == rank) return f;
  injections.push_back({});
  injections.back().rank = rank;
  return injections.back();
}

const RankFault* FaultPlan::find(int rank) const {
  for (const RankFault& f : injections)
    if (f.rank == rank) return &f;
  return nullptr;
}

void FaultPlan::validate(int nranks) const {
  const auto reject = [](const auto&... why) {
    std::ostringstream os;
    (os << "fault plan: " << ... << why);
    throw util::RuntimeError(os.str());
  };
  if (!(detection_delay > 0))
    reject("detection_delay must be > 0, got ", detection_delay);
  for (const RankFault& f : injections) {
    if (f.rank < 0 || f.rank >= nranks)
      reject("rank ", f.rank, " outside the job's 0..", nranks - 1, " range");
    if (f.rank == 0 && f.crash_at != 0)
      reject("rank 0 (the master/failure-detector rank) cannot be "
             "crash-injected");
    if (!(std::isfinite(f.slow) && f.slow > 0))
      reject("rank ", f.rank, " slowdown ", f.slow, " must be finite and > 0");
    if (f.crash_at == 0 && f.slow == 1.0 && f.drop_sends.empty())
      reject("rank ", f.rank, " injects nothing: give it crash_at, slow or ",
             "drop_send, or arm the detector alone with 'arm'");
    for (const std::uint64_t s : f.drop_sends) {
      if (s < 1)
        reject("drop_send ordinals are 1-based; got 0 for rank ", f.rank);
    }
  }
}

FaultPlan FaultPlan::parse(std::string_view specs) {
  PlanReader r;
  for (const std::string_view spec : util::read_list(specs, ';')) {
    r.rank.reset();
    if (spec == "arm")
      r.plan.arm_detector = true;
    else
      util::read_fields(spec, ',', kFaultKeys, r);
  }
  return r.plan;
}

FaultPlan FaultPlan::random_crash(std::uint64_t seed, int nranks,
                                  std::uint64_t max_event) {
  PIOBLAST_CHECK_MSG(nranks >= 2, "random_crash needs a worker to kill");
  PIOBLAST_CHECK(max_event >= 1);
  util::Rng rng(seed);
  FaultPlan plan;
  RankFault& f =
      plan.at(1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(nranks - 1))));
  f.crash_at = rng.between(1, max_event);
  return plan;
}

std::string FaultPlan::describe() const {
  if (!active()) return "no faults";
  std::ostringstream os;
  bool first = true;
  for (const RankFault& f : injections) {
    if (!first) os << "; ";
    first = false;
    os << "rank " << f.rank << ":";
    if (f.crash_at != 0) os << " crash@" << f.crash_at;
    if (f.slow != 1.0) os << " slow=" << f.slow;
    for (const std::uint64_t s : f.drop_sends) os << " drop#" << s;
  }
  if (injections.empty()) os << "detector armed";
  os << " (detect=" << detection_delay << "s)";
  return os.str();
}

}  // namespace pioblast::mpisim
