// Micro-benchmark (host wall time) of the mpisim runtime on the event
// backend: point-to-point message rate and collective latency at each world
// size, with the protocol verifier on and off. The verifier is on by
// default in every driver run, so the gap between the two rows is what that
// audit costs the simulator.
//
// Each job runs a ring of point-to-point messages (every rank sends 64
// bytes to its successor, then receives from its predecessor), then
// barriers, broadcasts, allreduces and gathers at rank 0. Every section is
// fenced by a barrier and timed on rank 0; iteration counts shrink as the
// world grows. Each (ranks, verify) cell is the median of kRepeats jobs,
// verifier off and on alternating, and prints one machine-readable
// `ROW {...}` line carrying `nproc`; tools/bench_to_json.py folds them into
// BENCH_mpisim.json.
//
// Gate: at the largest world size, the verified sections must take at most
// 2x the unverified ones, or the bench exits 1. A deadlock scan that walks
// every rank on every blocking receive costs several times that at 4096
// ranks.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "mpisim/exec.h"
#include "mpisim/runtime.h"
#include "util/args.h"
#include "util/table.h"
#include "workloads.h"

using namespace pioblast;

namespace {

using Clock = std::chrono::steady_clock;

/// Jobs per (ranks, verify) cell; the median is reported.
constexpr int kRepeats = 3;

/// Timed sections of one job, in run order.
enum Section { kRing, kBarrier, kBcast, kAllreduce, kGather, kSections };

struct Cell {
  int msgs = 0;   ///< ring rounds (each rank sends and receives one per round)
  int colls = 0;  ///< calls per collective section
  std::array<double, kSections> secs{};  ///< wall seconds per section
  double total() const {
    double t = 0;
    for (const double s : secs) t += s;
    return t;
  }
};

/// One job at `n` ranks; returns each section's wall time.
Cell run_job(int n, bool verify) {
  Cell cell;
  cell.msgs = std::max(4, 100000 / n);
  cell.colls = std::max(4, 16384 / n);
  constexpr int kTag = 1;
  std::array<Clock::time_point, kSections + 1> t{};
  mpisim::RunOptions opts;
  opts.exec_model = mpisim::ExecModel::kEvents;
  opts.verify.enabled = verify;
  mpisim::run(
      n, bench::altix(),
      [&](mpisim::Process& p) {
        const std::vector<std::uint8_t> payload(64, 0x5a);
        std::vector<std::uint8_t> buf = payload;
        auto fence = [&](int i) {
          p.barrier();
          if (p.is_root()) t[static_cast<std::size_t>(i)] = Clock::now();
        };
        fence(kRing);
        for (int i = 0; i < cell.msgs; ++i) {
          p.send((p.rank() + 1) % n, kTag, payload);
          (void)p.recv((p.rank() + n - 1) % n, kTag);
        }
        fence(kBarrier);
        for (int i = 0; i < cell.colls; ++i) p.barrier();
        fence(kBcast);
        for (int i = 0; i < cell.colls; ++i) p.bcast(buf, 0);
        fence(kAllreduce);
        for (int i = 0; i < cell.colls; ++i) (void)p.allreduce_max(p.now());
        fence(kGather);
        for (int i = 0; i < cell.colls; ++i) (void)p.gather(payload, 0);
        fence(kSections);
      },
      opts);
  for (std::size_t s = 0; s < kSections; ++s)
    cell.secs[s] = std::chrono::duration<double>(t[s + 1] - t[s]).count();
  return cell;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Per-section median over repeated jobs of one (ranks, verify) cell.
Cell median_cell(const std::vector<Cell>& runs) {
  Cell out = runs.front();
  for (std::size_t s = 0; s < kSections; ++s) {
    std::vector<double> v;
    for (const Cell& c : runs) v.push_back(c.secs[s]);
    out.secs[s] = median(std::move(v));
  }
  return out;
}

struct Rates {
  double p2p_msgs_per_s, barrier_us, bcast_us, allreduce_us, gather_us;
};

Rates rates(int n, const Cell& c) {
  const double per_call = 1e6 / c.colls;
  return {static_cast<double>(c.msgs) * n / c.secs[kRing],
          c.secs[kBarrier] * per_call, c.secs[kBcast] * per_call,
          c.secs[kAllreduce] * per_call, c.secs[kGather] * per_call};
}

void emit_row(int n, bool verify, const Cell& c) {
  const Rates r = rates(n, c);
  std::printf(
      "ROW {\"bench\":\"micro_mpisim\",\"exec\":\"events\",\"ranks\":%d,"
      "\"verify\":\"%s\",\"nproc\":%u,\"repeats\":%d,\"ring_rounds\":%d,"
      "\"colls\":%d,\"p2p_msgs_per_s\":%.0f,\"barrier_us\":%.1f,"
      "\"bcast_us\":%.1f,\"allreduce_us\":%.1f,\"gather_us\":%.1f,"
      "\"total_s\":%.6f}\n",
      n, verify ? "on" : "off", std::thread::hardware_concurrency(), kRepeats,
      c.msgs, c.colls, r.p2p_msgs_per_s, r.barrier_us, r.bcast_us,
      r.allreduce_us, r.gather_us, c.total());
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("micro_mpisim",
                       "mpisim host wall time on the event backend: ring "
                       "p2p rate and collective latency, verifier on vs off");
  args.add("ranks", "64,512,4096", "comma-separated world sizes");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error();
    return args.error().rfind("usage:", 0) == 0 ? 0 : 2;
  }
  if (!mpisim::events_supported()) {
    std::cerr << "micro_mpisim: the event backend is unavailable in this "
                 "build\n";
    return 2;
  }
  const auto ranks = bench::parse_ranks(args.get("ranks"));

  util::Table table({"Ranks", "Verify", "p2p msgs/s", "barrier (us)",
                     "bcast (us)", "allreduce (us)", "gather (us)",
                     "total (s)", "on/off"});
  const int largest = *std::max_element(ranks.begin(), ranks.end());
  double largest_ratio = 0;
  for (const int n : ranks) {
    std::vector<Cell> off_runs, on_runs;
    for (int rep = 0; rep < kRepeats; ++rep) {
      off_runs.push_back(run_job(n, false));
      on_runs.push_back(run_job(n, true));
    }
    const Cell off = median_cell(off_runs);
    const Cell on = median_cell(on_runs);
    const double ratio = on.total() / off.total();
    if (n == largest) largest_ratio = ratio;
    for (const bool verify : {false, true}) {
      const Cell& c = verify ? on : off;
      emit_row(n, verify, c);
      const Rates r = rates(n, c);
      table.add_row({std::to_string(n), verify ? "on" : "off",
                     util::fixed(r.p2p_msgs_per_s, 0),
                     util::fixed(r.barrier_us, 1), util::fixed(r.bcast_us, 1),
                     util::fixed(r.allreduce_us, 1),
                     util::fixed(r.gather_us, 1), util::fixed(c.total(), 3),
                     verify ? util::fixed(ratio, 2) + "x" : ""});
    }
    std::printf(
        "ROW {\"bench\":\"micro_mpisim\",\"exec\":\"events\",\"ranks\":%d,"
        "\"verify\":\"on/off\",\"nproc\":%u,\"ratio\":%.3f}\n",
        n, std::thread::hardware_concurrency(), ratio);
  }
  table.print(std::cout);
  const bool pass = largest_ratio <= 2.0;
  std::printf("verified <= 2x unverified at %d ranks: %s (%.2fx)\n", largest,
              pass ? "yes" : "NO", largest_ratio);
  return pass ? 0 : 1;
}
