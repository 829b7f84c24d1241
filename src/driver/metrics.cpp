#include "driver/metrics.h"

#include <sstream>

namespace pioblast::driver {

void RunMetrics::add(std::string_view name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void RunMetrics::set(std::string_view name, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

std::uint64_t RunMetrics::get(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t> RunMetrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {counters_.begin(), counters_.end()};
}

std::string RunMetrics::to_json() const { return metrics_json(snapshot()); }

std::string metrics_json(const std::map<std::string, std::uint64_t>& counters) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) os << ',';
    first = false;
    os << '"' << name << "\":" << value;
  }
  os << '}';
  return os.str();
}

}  // namespace pioblast::driver
