#include "mpicheck/race.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace pioblast::mpicheck {

void RaceDetector::start(int nranks) {
  std::lock_guard lock(mu_);
  PIOBLAST_CHECK(nranks >= 1);
  vc_.assign(static_cast<std::size_t>(nranks),
             std::vector<std::uint64_t>(static_cast<std::size_t>(nranks), 0));
  // Own components start at 1: an access made before any synchronization
  // must not look covered by another rank's all-zero initial clock.
  for (std::size_t r = 0; r < vc_.size(); ++r) vc_[r][r] = 1;
  next_token_ = 1;
  in_flight_.clear();
  last_write_.clear();
  races_ = 0;
  accesses_ = 0;
}

std::uint64_t RaceDetector::on_send(int src) {
  std::lock_guard lock(mu_);
  auto& vc = vc_[static_cast<std::size_t>(src)];
  ++vc[static_cast<std::size_t>(src)];
  const std::uint64_t token = next_token_++;
  in_flight_.emplace(token, vc);
  return token;
}

void RaceDetector::on_recv(int dst, std::uint64_t hb) {
  std::lock_guard lock(mu_);
  const auto it = in_flight_.find(hb);
  if (it == in_flight_.end()) return;  // duplicate join; nothing to add
  auto& vc = vc_[static_cast<std::size_t>(dst)];
  for (std::size_t i = 0; i < vc.size(); ++i)
    vc[i] = std::max(vc[i], it->second[i]);
  ++vc[static_cast<std::size_t>(dst)];
  in_flight_.erase(it);
}

void RaceDetector::on_write(int rank, const void* obj, std::string_view what) {
  std::lock_guard lock(mu_);
  if (vc_.empty()) return;  // not started (job without a detector)
  ++accesses_;
  const auto& vc = vc_[static_cast<std::size_t>(rank)];
  Epoch& last = last_write_[obj];
  // The last write's whole past is summarized by its own-clock component:
  // this rank has seen it iff a message chain carried that component over.
  if (last.rank >= 0 && last.rank != rank &&
      last.clock > vc[static_cast<std::size_t>(last.rank)]) {
    ++races_;
    std::ostringstream out;
    out << "mpicheck: data race on shared state " << obj << "\n  rank "
        << last.rank << " " << (last.what.empty() ? "write" : last.what)
        << " is unordered with rank " << rank << " " << what
        << " (write)\n  no happens-before edge (message/collective) "
           "connects them";
    throw RaceError(out.str());
  }
  last = Epoch{rank, vc[static_cast<std::size_t>(rank)], std::string(what)};
}

std::uint64_t RaceDetector::races_found() const {
  std::lock_guard lock(mu_);
  return races_;
}

std::uint64_t RaceDetector::accesses() const {
  std::lock_guard lock(mu_);
  return accesses_;
}

}  // namespace pioblast::mpicheck
