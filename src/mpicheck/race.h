// Happens-before race detector for simulated shared state.
//
// The runtime reports message edges (Process::send issues a token via
// RaceHook::on_send, carried in Message::hb; the receive joins it back via
// on_recv) and the writes rank code annotates with Process::annotate_write
// (the driver scheduler state serve_work mutates, test shared variables).
// The detector keeps one vector clock per rank, advanced at send/recv
// edges, and remembers each object's last write as a (rank, clock) epoch.
// Two writes to the same object from different ranks are a race when no
// happens-before edge orders them: the earlier epoch is not covered by
// the later rank's vector clock.
//
// A detected race throws RaceError from the writing rank; the runtime
// treats it like any rank failure (poison, unwind, rethrow), so the
// readable report reaches the caller as the job's error.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mpisim/hooks.h"
#include "mpisim/verify.h"

namespace pioblast::mpicheck {

/// A data-race report. Derives from VerifyError so every layer that
/// already surfaces protocol failures surfaces races the same way.
class RaceError : public mpisim::VerifyError {
 public:
  explicit RaceError(const std::string& what) : mpisim::VerifyError(what) {}
};

class RaceDetector final : public mpisim::RaceHook {
 public:
  // RaceHook ----------------------------------------------------------------
  void start(int nranks) override;
  std::uint64_t on_send(int src) override;
  void on_recv(int dst, std::uint64_t hb) override;
  void on_write(int rank, const void* obj, std::string_view what) override;

  // Results -----------------------------------------------------------------
  std::uint64_t races_found() const;
  std::uint64_t accesses() const;

 private:
  /// An object's last write: the writer's (rank, own-clock) epoch and a
  /// label for reports.
  struct Epoch {
    int rank = -1;
    std::uint64_t clock = 0;
    std::string what;
  };

  mutable std::mutex mu_;
  std::vector<std::vector<std::uint64_t>> vc_;  ///< vector clock per rank
  std::uint64_t next_token_ = 1;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> in_flight_;
  std::map<const void*, Epoch> last_write_;
  std::uint64_t races_ = 0;
  std::uint64_t accesses_ = 0;
};

}  // namespace pioblast::mpicheck
