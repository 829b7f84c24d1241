#include "mpisim/fault.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/rng.h"

namespace pioblast::mpisim {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw util::RuntimeError("fault spec \"" + std::string(spec) + "\": " + why +
                           " (want e.g. rank=2,crash_at=9 | rank=1,slow=4 | "
                           "rank=3,drop_send=2 | detect=0.01 | arm)");
}

std::uint64_t parse_u64(std::string_view spec, std::string_view value) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(std::string(value), &used);
    if (used != value.size()) bad_spec(spec, "trailing junk in number");
    return v;
  } catch (const util::RuntimeError&) {
    throw;
  } catch (...) {
    bad_spec(spec, "bad integer \"" + std::string(value) + "\"");
  }
}

double parse_f64(std::string_view spec, std::string_view value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(value), &used);
    if (used != value.size()) bad_spec(spec, "trailing junk in number");
    return v;
  } catch (const util::RuntimeError&) {
    throw;
  } catch (...) {
    bad_spec(spec, "bad number \"" + std::string(value) + "\"");
  }
}

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
    for (const std::uint64_t s : f.drop_sends) {
      if (s < 1)
        reject("drop_send ordinals are 1-based; got 0 for rank ", f.rank);
    }
  }
}

FaultPlan FaultPlan::parse(std::string_view specs) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= specs.size()) {
    const std::size_t sep = std::min(specs.find(';', pos), specs.size());
    const std::string_view spec = trim(specs.substr(pos, sep - pos));
    pos = sep + 1;
    if (spec.empty()) continue;

    if (spec == "arm") {
      plan.arm_detector = true;
      continue;
    }

    RankFault* target = nullptr;
    std::size_t kpos = 0;
    while (kpos <= spec.size()) {
      const std::size_t ksep = std::min(spec.find(',', kpos), spec.size());
      const std::string_view pair = trim(spec.substr(kpos, ksep - kpos));
      kpos = ksep + 1;
      if (pair.empty()) continue;
      const std::size_t eq = pair.find('=');
      if (eq == std::string_view::npos) bad_spec(spec, "expected key=value");
      const std::string_view key = trim(pair.substr(0, eq));
      const std::string_view value = trim(pair.substr(eq + 1));

      if (key == "detect") {
        plan.detection_delay = parse_f64(spec, value);
        continue;
      }
      if (key == "rank") {
        target = &plan.at(static_cast<int>(parse_u64(spec, value)));
        continue;
      }
      if (target == nullptr)
        bad_spec(spec, "rank=K must precede " + std::string(key));
      if (key == "crash_at") {
        const std::uint64_t event = parse_u64(spec, value);
        if (event == 0) bad_spec(spec, "crash_at events are 1-based");
        target->crash_at = event;
      } else if (key == "slow") {
        target->slow = parse_f64(spec, value);
      } else if (key == "drop_send") {
        target->drop_sends.push_back(parse_u64(spec, value));
      } else {
        bad_spec(spec, "unknown key \"" + std::string(key) + "\"");
      }
    }
  }
  return plan;
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
