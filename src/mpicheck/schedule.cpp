#include "mpicheck/schedule.h"

#include "util/parse.h"

namespace pioblast::mpicheck {

std::string format_schedule(const Schedule& schedule) {
  std::string out;
  for (const Decision& d : schedule) {
    if (!out.empty()) out += ',';
    out += std::to_string(d.rank);
  }
  return out;
}

Schedule parse_schedule(std::string_view text, int nranks) {
  Schedule out;
  for (const std::string_view rank : util::read_list(text))
    out.push_back(Decision{util::read_number<int>(rank, 0, nranks - 1), {}});
  return out;
}

}  // namespace pioblast::mpicheck
