#include "mpicheck/coop.h"

#include <algorithm>
#include <memory>
#include <random>
#include <utility>

namespace pioblast::mpicheck {

namespace {
bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}
}  // namespace

Schedule schedule_of(const std::vector<DecisionRecord>& records) {
  Schedule out;
  out.reserve(records.size());
  for (const DecisionRecord& r : records)
    out.push_back(Decision{r.chosen, r.enabled});
  return out;
}

CoopScheduler::CoopScheduler(Chooser chooser) : chooser_(std::move(chooser)) {}

int CoopScheduler::choose(const std::vector<int>& enabled,
                          const std::vector<mpisim::YieldPoint>& ops) {
  int chosen = enabled[0];
  if (chooser_) {
    const int want = chooser_(records_.size(), enabled, ops);
    if (contains(enabled, want)) chosen = want;
  }
  records_.push_back(DecisionRecord{enabled, ops, chosen});
  return chosen;
}

CoopScheduler::Chooser CoopScheduler::first_enabled() {
  return [](std::size_t, const std::vector<int>& enabled,
            const std::vector<mpisim::YieldPoint>&) { return enabled[0]; };
}

CoopScheduler::Chooser CoopScheduler::random(std::uint64_t seed) {
  // Modulo instead of uniform_int_distribution: the distribution's
  // algorithm is implementation-defined, and schedule seeds must replay
  // identically everywhere.
  auto rng = std::make_shared<std::mt19937_64>(seed);
  return [rng](std::size_t, const std::vector<int>& enabled,
               const std::vector<mpisim::YieldPoint>&) {
    return enabled[(*rng)() % enabled.size()];
  };
}

CoopScheduler::Chooser CoopScheduler::forced(Schedule forced) {
  return [forced = std::move(forced)](std::size_t index,
                                      const std::vector<int>& enabled,
                                      const std::vector<mpisim::YieldPoint>&) {
    if (index < forced.size() && contains(enabled, forced[index].rank))
      return forced[index].rank;
    return enabled[0];
  };
}

}  // namespace pioblast::mpicheck
