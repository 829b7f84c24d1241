// pbbench: runs one named benchmark workload per process and prints what
// it measured as `RESULT {json}` lines; run_benchmark.py turns those into
// metrics, checks outputs against references and keeps the references.
//
// Both of the system's clocks are measured from outside, through public
// functions only. Host wall time covers just the run_pioblast /
// run_mpiblast call: storage staging and formatdb happen before the timer,
// on a fresh ClusterStorage per job, as in a user's job. Virtual time and
// the drivers' counters are deterministic, so every job of a run must
// repeat them exactly.
//
// A workload's query set is sampled with --sample-seed (default 4242, the
// seed the references are recorded for); --seed only shuffles its order.
//
//   pbbench --workload W --seed N --seconds S   timed jobs for S seconds
//   pbbench --workload W --seed N --cross       the other driver, once
//   pbbench --workload W --seed N --seconds S --traced --trace-out F
//                                               per-layer probes + trace
//   pbbench --smoke | --determinism-audit | --list
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "blast/engine.h"
#include "blast/query_set.h"
#include "driver/tags.h"
#include "mpisim/runtime.h"
#include "mpisim/trace.h"
#include "protospec/spec.h"
#include "seqdb/partition.h"
#include "util/args.h"
#include "util/rng.h"
#include "workloads.h"

using namespace pioblast;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  PIOBLAST_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

rusage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

/// User + system CPU seconds of this process so far, all threads.
double cpu_seconds() {
  const rusage ru = usage();
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Builds one flat JSON object. Numbers keep every digit (%.17g), so
/// virtual times compare exactly after a round trip.
class Json {
 public:
  Json& num(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& count(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(std::string_view key, std::string_view v) {
    return raw(key, "\"" + std::string(v) + "\"");
  }
  Json& raw(std::string_view key, std::string_view value) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- workloads --------------------------------------------------------------

/// One benchmark workload; pbbench/README.md records why each exists.
struct Workload {
  std::string_view name;
  bool mpiblast;  ///< the mpiBLAST baseline, else pioBLAST
  int ranks;
  mpisim::ExecModel exec;
  bool nt;     ///< nt-analogue DNA database + blastn, else nr + blastp
  bool blade;  ///< NCSU blade model (NFS + local disks), else the Altix
  std::uint64_t query_bytes;  ///< size of the sampled query set
};

constexpr Workload kWorkloads[] = {
    {"pio-nr-4-threads", false, 4, mpisim::ExecModel::kThreads, false, false,
     bench::QuerySizes::kDefault},
    {"mpi-nr-62-events", true, 62, mpisim::ExecModel::kEvents, false, false,
     bench::QuerySizes::kMedium},
    {"pio-nr-4096-events", false, 4096, mpisim::ExecModel::kEvents, false,
     false, 1u << 10},
    {"pio-nt-blade-32-events", false, 32, mpisim::ExecModel::kEvents, true,
     true, 32u << 10},
};

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return w;
  throw util::RuntimeError("unknown workload '" + std::string(name) +
                           "' (pbbench --list names them)");
}

/// The workload's other driver at 4 ranks on the event backend: its report
/// must be byte-identical (the paper's invariant).
Workload cross_of(const Workload& w) {
  Workload other = w;
  other.mpiblast = !w.mpiblast;
  other.ranks = 4;
  other.exec = mpisim::ExecModel::kEvents;
  return other;
}

const std::vector<seqdb::FastaRecord>& database(const Workload& w) {
  return w.nt ? bench::nt_database() : bench::nr_database();
}

sim::ClusterConfig cluster_of(const Workload& w) {
  return w.blade ? bench::blade() : bench::altix();
}

blast::JobConfig job_of(const Workload& w) {
  return w.nt ? bench::nt_job() : bench::nr_job();
}

/// A workload's inputs. `queries` is the set bench::make_query_set samples
/// at the workload's size and `sample_seed` (seqdb::sample_queries, which
/// it wraps), written in the order `order_seed` shuffles it into. The order
/// changes the job's input file and report layout but not its work, so runs
/// with different order seeds measure the same job. `probe`, the set-up's
/// one-query job, is the set's first query.
struct Inputs {
  std::string queries;
  std::string probe;
};

Inputs make_inputs(const Workload& w, std::uint64_t sample_seed,
                   std::uint64_t order_seed) {
  auto queries = seqdb::sample_queries(database(w), w.query_bytes, sample_seed);
  Inputs in;
  in.probe = seqdb::write_fasta({queries.front()});
  util::Rng rng(order_seed);
  for (std::size_t i = queries.size(); i > 1; --i)
    std::swap(queries[i - 1], queries[rng.below(i)]);
  in.queries = seqdb::write_fasta(queries);
  return in;
}

/// FNV-1a 64 of a report with its query sections ("Query= query_<n> ...")
/// put back in sampled order. A section's text does not depend on where
/// its query sat in the input, so every order seed of a query set has the
/// same digest, and the other driver's report must have it too.
std::uint64_t report_digest(const std::vector<std::uint8_t>& bytes) {
  const std::string_view report(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size());
  constexpr std::string_view kHeader = "Query= query_";
  const std::string boundary = "\n" + std::string(kHeader);
  PIOBLAST_CHECK_MSG(report.starts_with(kHeader),
                     "report does not start with a query section");
  std::vector<std::pair<std::uint64_t, std::string_view>> sections;
  for (std::size_t start = 0; start < report.size();) {
    const std::size_t next = report.find(boundary, start);
    const std::size_t end = next == std::string_view::npos ? report.size() : next + 1;
    const std::string_view section = report.substr(start, end - start);
    sections.emplace_back(
        std::stoull(std::string(section.substr(kHeader.size(), 20))), section);
    start = end;
  }
  std::sort(sections.begin(), sections.end());
  std::vector<std::uint8_t> canonical;
  canonical.reserve(bytes.size());
  for (const auto& [n, section] : sections)
    canonical.insert(canonical.end(), section.begin(), section.end());
  return fnv1a64(canonical);
}

// ---- host spans -------------------------------------------------------------

/// Host wall-clock spans around the benchmark's calls into each layer, kept
/// in memory and written as Chrome trace events at exit. Spans opened on a
/// null HostTrace (the untraced run) record nothing.
class HostTrace {
 public:
  struct Event {
    std::string name;
    double start_us;
    double dur_us;
  };

  class Span {
   public:
    Span(HostTrace* trace, std::string name)
        : trace_(trace), name_(std::move(name)), t0_(Clock::now()) {}
    ~Span() {
      if (trace_ == nullptr) return;
      using us = std::chrono::duration<double, std::micro>;
      trace_->events_.push_back({std::move(name_),
                                 us(t0_ - trace_->origin_).count(),
                                 us(Clock::now() - t0_).count()});
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    HostTrace* trace_;
    std::string name_;
    Clock::time_point t0_;
  };

  const std::vector<Event>& events() const { return events_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Event> events_;
};

// ---- one job ----------------------------------------------------------------

struct JobKnobs {
  mpisim::Tracer* tracer = nullptr;
  bool verify = true;
  bool conformance = false;
};

struct Job {
  blast::DriverResult result;
  double wall_s = 0;
  double cpu_s = 0;
  double format_s = 0;
  std::uint64_t formatted_bytes = 0;
  std::uint64_t digest = 0;
};

/// Runs one job as a user would: fresh storage, staged queries, formatdb
/// (pioBLAST) or mpiformatdb into ranks-1 fragments (mpiBLAST), then the
/// driver. Only the driver call is inside wall_s and cpu_s.
Job run_job(const Workload& w, const std::string& queries,
            const JobKnobs& knobs = {}, HostTrace* trace = nullptr) {
  const sim::ClusterConfig cluster = cluster_of(w);
  const blast::JobConfig job = job_of(w);
  const auto& db = database(w);
  Job out;
  pario::ClusterStorage storage(cluster, w.ranks);
  storage.shared().write_all(
      job.query_path,
      std::span(reinterpret_cast<const std::uint8_t*>(queries.data()),
                queries.size()));

  mpiblast::MpiBlastOptions mpi;
  {
    HostTrace::Span span(trace, "seqdb.format");
    const auto t0 = Clock::now();
    if (w.mpiblast) {
      auto parts = seqdb::mpiformatdb(storage.shared(), db, job.db_base,
                                      job.params.type, job.db_title,
                                      w.ranks - 1);
      out.formatted_bytes = parts.bytes_written;
      mpi.fragment_bases = std::move(parts.fragment_bases);
      mpi.fragment_ranges = std::move(parts.ranges);
      mpi.global_index = std::move(parts.global_index);
    } else {
      out.formatted_bytes =
          seqdb::format_db(storage.shared(), db, job.db_base, job.params.type,
                           job.db_title)
              .formatted_bytes;
    }
    out.format_s = since(t0);
  }

  HostTrace::Span span(trace, "driver.run");
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  if (w.mpiblast) {
    mpi.job = job;
    mpi.exec = w.exec;
    mpi.tracer = knobs.tracer;
    mpi.verify = knobs.verify;
    mpi.conformance = knobs.conformance;
    out.result = mpiblast::run_mpiblast(cluster, w.ranks, storage, mpi);
  } else {
    pio::PioBlastOptions pio;
    pio.job = job;
    pio.exec = w.exec;
    pio.tracer = knobs.tracer;
    pio.verify = knobs.verify;
    pio.conformance = knobs.conformance;
    out.result = pio::run_pioblast(cluster, w.ranks, storage, pio);
  }
  out.wall_s = since(t0);
  out.cpu_s = cpu_seconds() - cpu0;
  out.digest = report_digest(storage.shared().read_all(job.output_path));
  return out;
}

/// Everything about a job that is deterministic: virtual-time phases and
/// exact counts. Every job of a run, and the seed's reference, must agree.
Json exact_fields(const blast::DriverResult& r) {
  Json j;
  j.num("vtime_total_s", r.phases.total)
      .num("vtime_nonsearch_s", r.phases.nonsearch())
      .num("driver.vtime_search_s", r.phases.search)
      .num("driver.vtime_output_s", r.phases.output)
      .num("driver.vtime_other_s", r.phases.other)
      .num("pario.vtime_input_s", r.phases.copy_input);
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (const auto& rank : r.report.ranks) {
    messages += rank.messages_sent;
    bytes += rank.bytes_sent;
  }
  j.count("mpisim.messages", messages).count("mpisim.bytes", bytes);
  for (const auto& [name, value] : r.metrics) j.count("driver." + name, value);
  return j;
}

// ---- RESULT lines -----------------------------------------------------------

struct Stamp {
  std::string sha;
  std::string workload;
  std::uint64_t seed = 0;         ///< query order
  std::uint64_t sample_seed = 0;  ///< query sampling
};

/// Every RESULT line carries where and how it was measured.
Json stamped(const Stamp& s, std::string_view kind) {
  Json j;
  j.str("kind", kind)
      .str("workload", s.workload)
      .count("seed", s.seed)
      .count("sample_seed", s.sample_seed)
      .str("sha", s.sha)
      .count("nproc", std::thread::hardware_concurrency())
      .str("build_type", PBBENCH_BUILD_TYPE);
  return j;
}

void emit(const Json& j) {
  std::printf("RESULT %s\n", j.text().c_str());
  std::fflush(stdout);
}

/// The RESULT line of one job: its wall and CPU time, output digest and
/// deterministic fields.
Json job_line(const Stamp& stamp, int rep, std::string_view variant,
              const Job& job) {
  Json j = stamped(stamp, "job");
  j.num("rep", rep)
      .str("variant", variant)
      .num("wall_s", job.wall_s)
      .num("cpu_s", job.cpu_s)
      .str("output_fnv64", hex(job.digest))
      .raw("exact", exact_fields(job.result).text());
  return j;
}

/// Runs one job and emits its RESULT line. A job that throws counts against
/// the run instead of ending it: its line carries an `error` field.
std::optional<Job> attempt(const Workload& w, const std::string& queries,
                           const Stamp& stamp, int rep,
                           std::string_view variant, const JobKnobs& knobs = {},
                           HostTrace* trace = nullptr) {
  try {
    Job job = run_job(w, queries, knobs, trace);
    emit(job_line(stamp, rep, variant, job));
    return job;
  } catch (const std::exception& e) {
    Json j = stamped(stamp, "job");
    j.num("rep", rep).str("variant", variant).str("error", "job threw");
    emit(j);
    std::fprintf(stderr, "pbbench: %s rep %d threw: %s\n",
                 stamp.workload.c_str(), rep, e.what());
    return std::nullopt;
  }
}

// ---- measured run -------------------------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// A run keeps starting jobs until --seconds have passed, and times at
/// least this many.
constexpr int kMinReps = 3;

int measure(const Workload& w, const Stamp& stamp, double seconds) {
  (void)database(w);  // the generated input, cached for the process

  // A set-up makes the inputs, then stages, formats and runs the one-query
  // probe job: the time to a user's first result.
  Inputs in;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    in = make_inputs(w, stamp.sample_seed, stamp.seed);
    (void)run_job(w, in.probe);
    setups.push_back(since(t0));
  }

  const auto loop0 = Clock::now();
  for (int rep = 0; rep < kMinReps || since(loop0) < seconds; ++rep)
    (void)attempt(w, in.queries, stamp, rep, "timed");

  Json summary = stamped(stamp, "summary");
  summary.num("setup_s", median(setups))
      .num("peak_rss_mb", static_cast<double>(usage().ru_maxrss) / 1024.0);
  emit(summary);
  return 0;
}

int cross(const Workload& w, const Stamp& stamp) {
  const Workload other = cross_of(w);
  const Job job =
      run_job(other, make_inputs(w, stamp.sample_seed, stamp.seed).queries);
  Json j = stamped(stamp, "cross");
  j.str("driver", other.mpiblast ? "mpiblast" : "pioblast")
      .count("ranks", static_cast<std::uint64_t>(other.ranks))
      .str("output_fnv64", hex(job.digest));
  emit(j);
  return 0;
}

// ---- traced run: per-layer probes ---------------------------------------------

struct KernelProbe {
  double wall_s = 0;
  std::uint64_t cells = 0;
  std::uint64_t seeds = 0;
  std::uint64_t hsps = 0;
};

/// Rebuilds the job's exact fragments — pioBLAST's virtual partition read
/// back through fragment_from_slices, or mpiBLAST's mpiformatdb fragments
/// through load_volumes — and times the fast kernel over each, on this
/// thread alone.
KernelProbe probe_kernel(const Workload& w, const std::string& queries,
                         HostTrace* trace) {
  const blast::JobConfig job = job_of(w);
  const seqdb::SeqType type = job.params.type;
  pario::VirtualFS fs;
  std::vector<seqdb::LoadedFragment> frags;
  blast::GlobalDbStats stats;
  if (w.mpiblast) {
    const auto parts = seqdb::mpiformatdb(fs, database(w), job.db_base, type,
                                          job.db_title, w.ranks - 1);
    stats = {parts.global_index.total_residues, parts.global_index.num_seqs};
    for (std::size_t i = 0; i < parts.fragment_bases.size(); ++i)
      frags.push_back(seqdb::load_volumes(fs, parts.fragment_bases[i], type,
                                          parts.ranges[i].first));
  } else {
    seqdb::format_db(fs, database(w), job.db_base, type, job.db_title);
    const auto names = seqdb::volume_names(job.db_base, type);
    const auto index = seqdb::DbIndex::deserialize(fs.read_all(names.index));
    stats = {index.total_residues, index.num_seqs};
    seqdb::DbIndex header;
    header.type = type;
    auto slice = [&](const std::string& file, const pario::Region& r) {
      return fs.pread(file, r.offset, r.length);
    };
    for (const auto& r : seqdb::virtual_partition(index, w.ranks - 1))
      frags.push_back(seqdb::fragment_from_slices(
          header, r, slice(names.index, r.pin_seq_off),
          slice(names.index, r.pin_hdr_off), slice(names.sequence, r.psq),
          slice(names.header, r.phr)));
  }
  const auto qset = blast::QuerySet::build(queries, job.params, stats);

  KernelProbe out;
  for (const auto& frag : frags) {
    HostTrace::Span span(trace, "blast.search_fragment_batch");
    const auto t0 = Clock::now();
    const auto results = blast::search_fragment_batch(
        qset->contexts(), frag, blast::KernelKind::kFast);
    out.wall_s += since(t0);
    for (const auto& r : results) {
      out.cells += r.counters.ungapped_cells + r.counters.gapped_cells +
                   r.counters.traceback_cells;
      out.seeds += r.counters.seed_hits;
      out.hsps += r.counters.hsps_found;
    }
  }
  return out;
}

struct MpisimProbe {
  double p2p_msgs_per_s = 0;
  double barrier_us = 0;
  double bcast_us = 0;
  double allreduce_us = 0;
};

/// mpisim alone at the workload's world size and backend: a ring of
/// point-to-point messages, then barriers, broadcasts and allreduces, each
/// section fenced by a barrier and timed on rank 0. Iteration counts shrink
/// as the world grows, keeping the probe within about two seconds.
MpisimProbe probe_mpisim(const Workload& w) {
  const int n = w.ranks;
  const int msgs = std::max(4, 100000 / n);
  const int colls = std::max(4, 16384 / n);
  constexpr int kTag = 1;
  Clock::time_point t[5];
  mpisim::RunOptions opts;
  opts.exec_model = w.exec;
  mpisim::run(
      n, cluster_of(w),
      [&](mpisim::Process& p) {
        const std::vector<std::uint8_t> payload(64, 0x5a);
        std::vector<std::uint8_t> buf = payload;
        auto fence = [&](int i) {
          p.barrier();
          if (p.is_root()) t[i] = Clock::now();
        };
        fence(0);
        for (int i = 0; i < msgs; ++i) {
          p.send((p.rank() + 1) % n, kTag, payload);
          (void)p.recv((p.rank() + n - 1) % n, kTag);
        }
        fence(1);
        for (int i = 0; i < colls; ++i) p.barrier();
        fence(2);
        for (int i = 0; i < colls; ++i) p.bcast(buf, 0);
        fence(3);
        for (int i = 0; i < colls; ++i) (void)p.allreduce_max(p.now());
        fence(4);
      },
      opts);
  auto secs = [&](int i) {
    return std::chrono::duration<double>(t[i + 1] - t[i]).count();
  };
  MpisimProbe out;
  out.p2p_msgs_per_s = static_cast<double>(msgs) * n / secs(0);
  out.barrier_us = secs(1) / colls * 1e6;
  out.bcast_us = secs(2) / colls * 1e6;
  out.allreduce_us = secs(3) / colls * 1e6;
  return out;
}

/// Writes the host spans (pid 1, wall clock) and the traced job's per-rank
/// virtual-time phases (pid 2, one track per rank) as Chrome trace-event
/// JSON, which chrome://tracing and Perfetto open directly.
void write_chrome_trace(const std::string& path, const HostTrace& host,
                        const std::vector<mpisim::TraceEvent>& events,
                        const mpisim::RunReport& report) {
  std::ofstream os(path);
  PIOBLAST_CHECK_MSG(os.good(), "cannot write trace file " << path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     << R"({"ph":"M","pid":1,"name":"process_name","args":{"name":"host wall clock"}},)"
     << "\n"
     << R"({"ph":"M","pid":2,"name":"process_name","args":{"name":"virtual time"}})";
  auto span = [&](int pid, std::size_t tid, const std::string& name,
                  double ts_us, double dur_us) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"X\",\"pid\":%d,\"tid\":%zu,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  pid, tid, name.c_str(), ts_us, dur_us);
    os << buf;
  };
  for (const auto& e : host.events()) span(1, 0, e.name, e.start_us, e.dur_us);

  // A rank's phase lasts from its kPhase event to its next one; the last
  // phase ends at the rank's final clock.
  std::vector<std::vector<const mpisim::TraceEvent*>> phases(
      report.ranks.size());
  for (const auto& e : events)
    if (e.kind == mpisim::TraceKind::kPhase)
      phases.at(static_cast<std::size_t>(e.rank)).push_back(&e);
  for (std::size_t r = 0; r < phases.size(); ++r) {
    for (std::size_t i = 0; i < phases[r].size(); ++i) {
      const double start = phases[r][i]->time;
      const double end = i + 1 < phases[r].size() ? phases[r][i + 1]->time
                                                  : report.ranks[r].final_clock;
      if (end > start)
        span(2, r, phases[r][i]->detail, start * 1e6, (end - start) * 1e6);
    }
  }
  os << "\n]}\n";
}

/// Per-layer numbers. Rounds of {plain, traced, verify off, conformance}
/// jobs run until --seconds have passed, and overheads compare the
/// variants' medians; then the kernel and mpisim probes run once.
int traced(const Workload& w, const Stamp& stamp, double seconds,
           const std::string& trace_out) {
  HostTrace host;
  const auto t0 = Clock::now();
  {
    HostTrace::Span span(&host, "seqdb.generate");
    (void)database(w);
  }
  const double generate_s = since(t0);
  const std::string queries =
      make_inputs(w, stamp.sample_seed, stamp.seed).queries;

  // Conformance rejects worlds larger than the spec's bound.
  const bool conformance = w.ranks <= protospec::Env::kMaxRanks;
  std::vector<double> plain, with_trace, no_verify, with_conf, cpu, format;
  std::optional<Job> last;
  std::optional<Job> last_traced;
  std::unique_ptr<mpisim::Tracer> tracer;  // the one last_traced ran with
  int rep = 0;
  // A job that throws is counted by the runner and left out of the medians.
  auto run = [&](std::string_view variant, const JobKnobs& knobs,
                 std::vector<double>& walls) {
    auto job = attempt(w, queries, stamp, rep++, variant, knobs, &host);
    if (job) {
      walls.push_back(job->wall_s);
      format.push_back(job->format_s);
    }
    return job;
  };
  const auto loop0 = Clock::now();
  do {
    if (auto job = run("plain", {}, plain)) {
      cpu.push_back(job->cpu_s);
      last = std::move(job);
    }
    auto next = std::make_unique<mpisim::Tracer>();
    if (auto job = run("traced", {next.get()}, with_trace)) {
      tracer = std::move(next);
      last_traced = std::move(job);
    }
    (void)run("noverify", {nullptr, false}, no_verify);
    if (conformance) (void)run("conformance", {nullptr, true, true}, with_conf);
  } while (since(loop0) < seconds);
  PIOBLAST_CHECK_MSG(last && last_traced && !no_verify.empty() &&
                         (!conformance || !with_conf.empty()),
                     "every job of one variant threw: no per-layer numbers");

  KernelProbe kernel;
  {
    HostTrace::Span span(&host, "blast.probe");
    kernel = probe_kernel(w, queries, &host);
  }
  MpisimProbe mpi;
  {
    HostTrace::Span span(&host, "mpisim.probe");
    mpi = probe_mpisim(w);
  }

  const auto events = tracer->sorted();
  std::uint64_t collectives = 0;
  std::uint64_t fetches = 0;
  for (const auto& e : events) {
    if (e.kind == mpisim::TraceKind::kCollective) ++collectives;
    mpisim::ParsedEvent pe;
    if (e.kind == mpisim::TraceKind::kSend &&
        mpisim::parse_trace_event(e, pe) && pe.tag == driver::kTagFetchResp)
      ++fetches;
  }
  double search_max = 0;
  double search_sum = 0;
  int workers = 0;
  for (const auto& r : last->result.report.ranks) {
    if (r.rank == 0) continue;
    search_max = std::max(search_max, r.phases.get("search"));
    search_sum += r.phases.get("search");
    ++workers;
  }
  const auto& m = last->result.metrics;
  auto counter = [&](const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? std::uint64_t{0} : it->second;
  };

  const double wall = median(plain);
  const double cpu_s = median(cpu);
  Json metrics;
  metrics.num("seqdb.generate_s", generate_s)
      .num("seqdb.format_s", median(format))
      .count("seqdb.formatted_bytes", last->formatted_bytes)
      .num("blast.wall_s", kernel.wall_s)
      .count("blast.cells", kernel.cells)
      .count("blast.seeds", kernel.seeds)
      .count("blast.hsps", kernel.hsps)
      .num("blast.mcells_per_s",
           static_cast<double>(kernel.cells) / kernel.wall_s / 1e6)
      .num("blast.share", kernel.wall_s / cpu_s)
      .num("mpisim.cpu_s", cpu_s)
      .num("mpisim.parallelism", cpu_s / wall)
      .count("mpisim.collectives", collectives)
      .num("mpisim.p2p_msgs_per_s", mpi.p2p_msgs_per_s)
      .num("mpisim.barrier_us", mpi.barrier_us)
      .num("mpisim.bcast_us", mpi.bcast_us)
      .num("mpisim.allreduce_us", mpi.allreduce_us)
      .num("mpisim.verify_overhead_s", wall - median(no_verify))
      .num("mpisim.trace_overhead_s", median(with_trace) - wall)
      .count("mpisim.trace_events", events.size())
      .count("pario.list_requests", counter("pario_list_requests"))
      .count("pario.device_reads", counter("pario_device_reads"))
      .count("pario.bytes_read", counter("pario_bytes_read"))
      .count("pario.bytes_wanted", counter("pario_bytes_wanted"))
      .num("pario.useful_ratio",
           static_cast<double>(counter("pario_bytes_wanted")) /
               static_cast<double>(counter("pario_bytes_read")))
      .count("driver.fetch_round_trips", fetches)
      .num("driver.search_imbalance", search_max / (search_sum / workers))
      .count("driver.tasks_assigned", counter("tasks_assigned"))
      .count("driver.candidates_merged", counter("candidates_merged"))
      .count("driver.alignments_reported", counter("alignments_reported"))
      .count("driver.output_bytes", counter("output_bytes"))
      .count("driver.wire_messages", counter("wire_messages_sent"))
      .count("driver.wire_bytes", counter("wire_bytes_sent"));
  // Kernel time is a share of wall time only on one host thread.
  if (w.exec == mpisim::ExecModel::kEvents)
    metrics.num("mpisim.nonkernel_s", wall - kernel.wall_s);
  if (conformance)
    metrics.num("protospec.conformance_overhead_s", median(with_conf) - wall);

  Json j = stamped(stamp, "layer");
  j.count("rounds", plain.size()).raw("metrics", metrics.text());
  emit(j);
  write_chrome_trace(trace_out, host, events, last_traced->result.report);
  return 0;
}

// ---- smoke test and determinism audit -------------------------------------------

/// Every workload shape shrunk to one query and at most 256 ranks. Each
/// runs twice and once on the other driver: the reports must be
/// byte-identical and virtual time and counts must repeat.
int smoke() {
  int failures = 0;
  for (Workload w : kWorkloads) {
    w.ranks = std::min(w.ranks, w.ranks > 62 ? 256 : 8);
    w.query_bytes = 1;
    const std::string queries = make_inputs(w, 4242, 4242).queries;
    const Job a = run_job(w, queries);
    const Job b = run_job(w, queries);
    const Job c = run_job(cross_of(w), queries);
    const bool repeat =
        exact_fields(a.result).text() == exact_fields(b.result).text();
    const bool identical = a.digest == b.digest && a.digest == c.digest;
    std::printf("smoke %-24s ranks=%-4d vtime_total_s=%.6f repeat=%s "
                "cross_identical=%s\n",
                std::string(w.name).c_str(), w.ranks, a.result.phases.total,
                repeat ? "yes" : "NO", identical ? "yes" : "NO");
    failures += repeat && identical ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

/// mpiBLAST's greedy master serves work requests in host arrival order, so
/// on the threads backend its virtual time need not repeat (a known
/// defect; the events backend is deterministic). Prints what three runs
/// give and exits 0 either way.
int determinism_audit() {
  const Workload w{"mpi-nr-16-threads", true, 16, mpisim::ExecModel::kThreads,
                   false, false, bench::QuerySizes::kSmall};
  const std::string queries = make_inputs(w, 4242, 4242).queries;
  std::vector<std::string> runs;
  for (int i = 0; i < 3; ++i) {
    const Job job = run_job(w, queries);
    std::printf("audit run %d: search_s=%.6f total_s=%.6f output_fnv64=%s\n",
                i, job.result.phases.search, job.result.phases.total,
                hex(job.digest).c_str());
    runs.push_back(exact_fields(job.result).text());
  }
  const bool repeats = std::all_of(runs.begin(), runs.end(),
                                   [&](const auto& r) { return r == runs[0]; });
  std::printf("audit %s: virtual time repeats: %s\n",
              std::string(w.name).c_str(), repeats ? "yes" : "no");
  return 0;
}

int run(const util::ArgParser& args) {
  if (args.get_flag("list")) {
    for (const Workload& w : kWorkloads)
      std::printf("%s\n", std::string(w.name).c_str());
    return 0;
  }
  if (args.get_flag("smoke")) return smoke();
  if (args.get_flag("determinism-audit")) return determinism_audit();

  const Workload& w = find_workload(args.get("workload"));
  const Stamp stamp{args.get("sha"), std::string(w.name),
                    static_cast<std::uint64_t>(args.get_int("seed")),
                    static_cast<std::uint64_t>(args.get_int("sample-seed"))};
  const double seconds = args.get_double("seconds");
  if (args.get_flag("cross")) return cross(w, stamp);
  if (args.get_flag("traced")) {
    PIOBLAST_CHECK_MSG(!args.get("trace-out").empty(),
                       "--traced needs --trace-out");
    return traced(w, stamp, seconds, args.get("trace-out"));
  }
  return measure(w, stamp, seconds);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("pbbench", "one pioBLAST benchmark workload per process");
  args.add("workload", "", "workload name (see --list)")
      .add("seed", "4242", "query-order seed")
      .add("sample-seed", "4242", "query-sampling seed")
      .add("seconds", "10", "start timed jobs until this many seconds passed")
      .add("sha", "unknown", "commit stamped on every RESULT line")
      .add("trace-out", "", "Chrome trace file written by --traced")
      .add_flag("cross", "run the other driver once (4 ranks, events)")
      .add_flag("traced", "per-layer probes, overhead passes and a trace file")
      .add_flag("smoke", "every shape shrunk: cross-driver identity, "
                         "repeatable virtual time")
      .add_flag("determinism-audit",
                "mpiBLAST on threads, 3 runs: does virtual time repeat?")
      .add_flag("list", "print the workload names");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error();
    return args.error().rfind("usage:", 0) == 0 ? 0 : 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbbench: %s\n", e.what());
    return 1;
  }
}
