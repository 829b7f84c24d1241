// pioblast_cli — command-line front end for the simulated parallel BLAST.
//
// Runs either driver (or both, with output comparison) on a configurable
// simulated cluster, against a synthetic database or a user-supplied FASTA
// file, and writes the NCBI-style report plus a phase summary. With
// --trace, prints the head of the run's event timeline.
//
// Examples:
//   pioblast_cli --driver=pioblast --procs 16 --db-residues 1048576
//   pioblast_cli --driver=both --cluster=blade --query-bytes 8192
//   pioblast_cli --db-fasta my.fa --queries-fasta q.fa --output report.txt
//   pioblast_cli --procs 4 --check schedules=50,preempt=2   # explore
//   pioblast_cli --procs 4 --schedule 0,2,1,1               # replay
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "blast/job.h"
#include "driver/metrics.h"
#include "driver/run_config.h"
#include "driver/scheduler.h"
#include "mpiblast/mpiblast.h"
#include "mpicheck/explore.h"
#include "mpicheck/schedule.h"
#include "mpisim/trace.h"
#include "pioblast/pioblast.h"
#include "protospec/spec.h"
#include "seqdb/generator.h"
#include "seqdb/partition.h"
#include "util/args.h"
#include "util/table.h"
#include "util/units.h"

using namespace pioblast;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::RuntimeError("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Parses FASTA `text` read from `path`, which must hold a record.
std::vector<seqdb::FastaRecord> parse_records(const std::string& text,
                                              const std::string& path) {
  const auto records = seqdb::parse_fasta(text);
  if (records.empty()) throw util::RuntimeError(path + ": no FASTA records");
  return records;
}

void print_metrics(const char* name, const blast::DriverResult& r) {
  // One machine-readable line per driver: METRICS <driver> {json}.
  std::printf("METRICS %s %s\n", name, driver::metrics_json(r.metrics).c_str());
}

/// Parses a --check field's whole value into `out`; an empty value keeps
/// the default. Anything else that is not a whole T (trailing characters,
/// a value out of T's range) throws naming the key.
template <class T>
void check_number(const std::string& key, const std::string& val, T& out) {
  if (val.empty()) return;
  const char* const end = val.data() + val.size();
  const auto [ptr, ec] = std::from_chars(val.data(), end, out);
  if (ec == std::errc::result_out_of_range)
    throw util::RuntimeError("--check: " + key + "=" + val + " is out of range");
  if (ec != std::errc{} || ptr != end)
    throw util::RuntimeError("--check: " + key + " expects an integer, got '" +
                             val + "'");
}

/// Parses a --check on|off field into `out`; an empty value keeps the
/// default.
void check_switch(const std::string& key, const std::string& val, bool& out) {
  if (val.empty()) return;
  if (val != "on" && val != "off")
    throw util::RuntimeError("--check: " + key + " expects on | off, got '" +
                             val + "'");
  out = val == "on";
}

/// Throws naming `key` when `value` is below `min`.
void check_at_least(const std::string& key, int value, int min) {
  if (value < min)
    throw util::RuntimeError("--check: " + key + " must be at least " +
                             std::to_string(min) + ", got " +
                             std::to_string(value));
}

/// Parses the --check spec ("schedules=50,seed=1,preempt=2,dpor=on,
/// races=on,shrink=on,max=2000"; every field optional; a negative preempt
/// turns the preemption sweep off).
mpicheck::CheckOptions parse_check(const std::string& spec) {
  mpicheck::CheckOptions opts;
  std::istringstream in(spec);
  std::string field;
  while (std::getline(in, field, ',')) {
    if (field.empty()) continue;
    const auto eq = field.find('=');
    if (eq == std::string::npos)
      throw util::RuntimeError("--check: bad field '" + field +
                               "' (want key=value)");
    const std::string key = field.substr(0, eq);
    const std::string val = field.substr(eq + 1);
    if (key == "schedules") check_number(key, val, opts.random_schedules);
    else if (key == "seed") check_number(key, val, opts.seed);
    else if (key == "preempt") check_number(key, val, opts.preemption_bound);
    else if (key == "dpor") check_switch(key, val, opts.dpor);
    else if (key == "races") check_switch(key, val, opts.detect_races);
    else if (key == "shrink") check_switch(key, val, opts.shrink);
    else if (key == "max") check_number(key, val, opts.max_schedules);
    else
      throw util::RuntimeError("--check: unknown key '" + key + "'");
  }
  check_at_least("schedules", opts.random_schedules, 0);
  check_at_least("max", opts.max_schedules, 1);
  return opts;
}

/// Explores (or replays) `drive` under mpicheck and prints the CHECK
/// metrics line. Returns false when a failing schedule was found.
bool run_checked(
    const char* name, const mpicheck::CheckOptions& check,
    const std::function<void(mpisim::ScheduleHook*, mpisim::RaceHook*)>&
        drive) {
  mpicheck::Checker checker(drive, check);
  const mpicheck::CheckResult res = checker.run();
  std::printf("%s driver=%s\n", mpicheck::summary(res).c_str(), name);
  if (res.failed) {
    std::printf("%s\nreplay with: --schedule %s\n", res.error.c_str(),
                res.failing_trace.c_str());
  }
  return !res.failed;
}

/// Parses option `name`'s value with `parse`; a util::RuntimeError it
/// throws is rethrown with the option's name in front.
template <class Parse>
auto parse_option(const util::ArgParser& args, const std::string& name,
                  const Parse& parse) {
  try {
    return parse(args.get(name));
  } catch (const util::RuntimeError& e) {
    throw util::RuntimeError("--" + name + ": " + e.what());
  }
}

/// Returns option `name`'s value, which must be one of `allowed`.
std::string choice(const util::ArgParser& args, const std::string& name,
                   std::initializer_list<const char*> allowed) {
  const std::string value = args.get(name);
  std::string want;
  for (const char* a : allowed) {
    if (value == a) return value;
    want += (want.empty() ? "" : " | ") + std::string(a);
  }
  throw util::RuntimeError("--" + name + ": unknown value '" + value +
                           "' (want " + want + ")");
}

/// Returns option `name`'s integer value, which must lie in [min, T's
/// maximum].
template <class T>
T int_option(const util::ArgParser& args, const std::string& name, T min) {
  const std::int64_t value = args.get_int(name);
  const T max = std::numeric_limits<T>::max();
  if (std::cmp_less(value, min) || std::cmp_greater(value, max))
    throw util::RuntimeError("--" + name + ": must be in [" +
                             std::to_string(min) + ", " + std::to_string(max) +
                             "], got " + std::to_string(value));
  return static_cast<T>(value);
}

/// Everything the options and input files ask for, read before any driver
/// runs.
struct Setup {
  std::string driver;
  int nprocs = 0;
  int nfragments = 0;  ///< fragments the database is split into
  sim::ClusterConfig cluster;
  std::vector<seqdb::FastaRecord> db;
  std::string query_fasta;
  driver::RunConfig run;  ///< the settings both drivers share
  std::optional<driver::SchedulerKind> scheduler;
  bool checking = false;  ///< --check explores many schedules, --schedule one
  mpicheck::CheckOptions check;
};

/// Reads every option value and input file. A bad value or an unreadable
/// or malformed file throws util::RuntimeError naming the option.
Setup configure(const util::ArgParser& args) {
  Setup s;
  s.driver = choice(args, "driver", {"pioblast", "mpiblast", "both"});
  const seqdb::SeqType type = choice(args, "type", {"protein", "dna"}) == "dna"
                                  ? seqdb::SeqType::kNucleotide
                                  : seqdb::SeqType::kProtein;
  s.nprocs = static_cast<int>(args.get_int("procs"));
  if (s.nprocs < 2)
    throw util::RuntimeError("--procs: needs a master and at least one "
                             "worker (2 or more), got " +
                             std::to_string(s.nprocs));
  s.cluster = choice(args, "cluster", {"altix", "blade"}) == "blade"
                  ? sim::ClusterConfig::ncsu_blade()
                  : sim::ClusterConfig::ornl_altix();

  if (!args.get("db-fasta").empty()) {
    s.db = parse_option(args, "db-fasta", [](const std::string& path) {
      return parse_records(read_file(path), path);
    });
  } else {
    seqdb::GeneratorConfig gen;
    gen.type = type;
    gen.target_residues = int_option<std::uint64_t>(args, "db-residues", 1);
    gen.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    gen.family_fraction = 0.6;
    s.db = seqdb::generate_database(gen);
  }
  if (!args.get("queries-fasta").empty()) {
    s.query_fasta = parse_option(args, "queries-fasta",
                                 [](const std::string& path) {
                                   const std::string text = read_file(path);
                                   parse_records(text, path);
                                   return text;
                                 });
  } else {
    s.query_fasta = seqdb::write_fasta(seqdb::sample_queries(
        s.db, int_option<std::uint64_t>(args, "query-bytes", 1),
        static_cast<std::uint64_t>(args.get_int("seed")) + 1));
  }

  blast::JobConfig& job = s.run.job;
  job.db_base = "db";
  job.db_title = "cli database";
  job.query_path = "queries.fa";
  job.params = type == seqdb::SeqType::kProtein
                   ? blast::SearchParams::blastp_defaults()
                   : blast::SearchParams::blastn_defaults();
  job.params.hitlist_size = int_option(args, "hitlist", 0);
  job.params.evalue_cutoff = args.get_double("evalue");
  if (!std::isfinite(job.params.evalue_cutoff) ||
      job.params.evalue_cutoff <= 0)
    throw util::RuntimeError("--evalue: must be finite and above 0, got " +
                             args.get("evalue"));
  job.nfragments = int_option(args, "fragments", 0);
  // Every fragment holds at least one database sequence; 0 fragments
  // means one per worker.
  s.nfragments = job.nfragments > 0 ? job.nfragments : s.nprocs - 1;
  if (static_cast<std::size_t>(s.nfragments) > s.db.size()) {
    const std::string option = job.nfragments > 0 ? "--fragments" : "--procs";
    throw util::RuntimeError(option + ": " + std::to_string(s.nfragments) +
                             " fragments need as many database sequences, "
                             "the database has " +
                             std::to_string(s.db.size()));
  }

  s.run.verify = choice(args, "verify", {"on", "off"}) == "on";
  s.run.conformance = args.get_flag("conformance");
  if (s.run.conformance && s.nprocs > protospec::Env::kMaxRanks)
    throw util::RuntimeError(
        "--conformance: the protocol monitor checks at most "
        "protospec::Env::kMaxRanks = " +
        std::to_string(protospec::Env::kMaxRanks) + " ranks, got " +
        std::to_string(s.nprocs));
  if (!args.get("scheduler").empty()) {
    s.scheduler = parse_option(args, "scheduler", [](const std::string& v) {
      return driver::parse_scheduler(v);
    });
  }
  if (!args.get("fault").empty()) {
    s.run.faults = parse_option(args, "fault", [&s](const std::string& v) {
      const mpisim::FaultPlan plan = mpisim::FaultPlan::parse(v);
      plan.validate(s.nprocs);
      return plan;
    });
  }
  if (!args.get("pario-hints").empty())
    s.run.hints = pario::Hints::parse(args.get("pario-hints"));

  s.checking = !args.get("check").empty() || !args.get("schedule").empty();
  if (!args.get("check").empty() && args.get("check") != "default")
    s.check = parse_check(args.get("check"));
  if (!args.get("schedule").empty()) {
    s.check.replay_trace = parse_option(args, "schedule",
                                        [](const std::string& v) {
                                          mpicheck::parse_schedule(v);
                                          return v;
                                        });
  }
  return s;
}

/// Runs one driver: once, or under mpicheck when --check or --schedule
/// asked for it. With `tracing`, every run (each schedule a check replays
/// too) records into a fresh tracer, and `trace` keeps the last run's.
/// Returns false when mpicheck found a failing schedule.
template <class Options, class Drive>
bool run_driver(const char* name, const Setup& setup, Options opts,
                bool tracing, const Drive& drive,
                std::optional<mpisim::Tracer>& trace,
                blast::DriverResult& result) {
  const auto once = [&](mpisim::ScheduleHook* schedule,
                        mpisim::RaceHook* race) {
    if (tracing) opts.tracer = &trace.emplace();
    opts.schedule = schedule;
    opts.race = race;
    result = drive(opts);
  };
  if (!setup.checking) {
    once(nullptr, nullptr);
    return true;
  }
  return run_checked(name, setup.check, once);
}

void report(const char* name, const blast::DriverResult& r) {
  util::Table table({"Program", "Copy/Input", "Search", "Output", "Other",
                     "Total", "Search %"});
  table.add_row({name, util::fixed(r.phases.copy_input, 3),
                 util::fixed(r.phases.search, 2), util::fixed(r.phases.output, 3),
                 util::fixed(r.phases.other, 3), util::fixed(r.phases.total, 2),
                 util::format_percent(r.phases.search_fraction())});
  table.print(std::cout);
  std::printf("alignments: %llu, output: %s, candidates screened: %llu\n\n",
              static_cast<unsigned long long>(r.alignments_reported),
              util::format_bytes(r.output_bytes).c_str(),
              static_cast<unsigned long long>(r.candidates_merged));
  if (!r.conformance.empty()) std::printf("%s\n\n", r.conformance.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("pioblast_cli",
                       "simulated parallel BLAST (pioBLAST vs mpiBLAST)");
  args.add("driver", "pioblast", "pioblast | mpiblast | both")
      .add("cluster", "altix", "altix (XFS parallel FS) | blade (NFS + local disks)")
      .add("procs", "16", "number of simulated processes (1 master + workers)")
      .add("type", "protein", "protein | dna")
      .add("db-residues", "1048576", "synthetic database size in residues")
      .add("db-fasta", "", "use this FASTA file as the database instead")
      .add("queries-fasta", "", "use this FASTA file as the query set")
      .add("query-bytes", "8192", "synthetic query-set size in FASTA bytes")
      .add("fragments", "0", "virtual fragments (0 = one per worker)")
      .add("hitlist", "25", "max alignments reported per query")
      .add("evalue", "10", "E-value cutoff")
      .add("output", "", "write the report to this host file")
      .add("seed", "42", "RNG seed for synthetic data")
      .add("scheduler", "",
           "task scheduler: greedy | roundrobin | speed-weighted "
           "(default: greedy for mpiblast, roundrobin for pioblast)")
      .add("verify", "on",
           "protocol verifier (deadlock, collective order, tag audit, typed "
           "payloads, message leaks): on | off")
      .add("fault", "",
           "fault injections, ';'-separated: \"rank=K,crash_at=N\" | "
           "\"rank=K,slow=X\" | \"rank=K,drop_send=N\"; plan-wide: "
           "\"detect=<seconds>\", \"arm\"")
      .add("check", "",
           "explore schedules with mpicheck: \"schedules=N,seed=S,preempt=P,"
           "dpor=on|off,races=on|off,shrink=on|off,max=M\" (empty value "
           "fields use defaults; pass \"default\" for all defaults)")
      .add("schedule", "",
           "replay one forced schedule (a comma-separated rank trace as "
           "printed by a failing --check run)")
      .add("pario-hints", "",
           "MPI-IO-style access hints, comma-separated key=value: "
           "cb_nodes=N, cb_buffer_size=SIZE (0 = unbounded), ds_read="
           "auto|enable|disable, ds_buffer_size=SIZE, ds_density=FRACTION, "
           "list=on|off; sizes accept k/m/g suffixes "
           "(e.g. \"cb_nodes=8,cb_buffer_size=1m,ds_read=enable\")")
      .add_flag("early-score-broadcast", "enable the §5 pruning extension")
      .add_flag("metrics", "print one machine-readable METRICS line per run")
      .add_flag("trace", "print the head of the event timeline")
      .add_flag("conformance",
                "replay the run's trace against the protospec protocol "
                "machines (src/protospec) and fail on the first divergent "
                "event; prints one CONFORM summary line per run");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error();
    return args.error().rfind("usage:", 0) == 0 ? 0 : 2;
  }

  // Bad option values and unreadable inputs are reported here, before any
  // driver runs, and exit 2 like an unknown option.
  Setup setup;
  try {
    setup = configure(args);
  } catch (const util::RuntimeError& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  const int nprocs = setup.nprocs;
  const sim::ClusterConfig& cluster = setup.cluster;
  const blast::JobConfig& job = setup.run.job;
  std::printf("database: %zu sequences; query set: %zu bytes; cluster: %s; "
              "%d processes\n\n",
              setup.db.size(), setup.query_fasta.size(), cluster.name.c_str(),
              nprocs);
  if (!args.get("fault").empty())
    std::printf("fault plan: %s\n\n", setup.run.faults.describe().c_str());
  if (!args.get("pario-hints").empty())
    std::printf("pario hints: %s\n\n", setup.run.hints.describe().c_str());

  // --- job -------------------------------------------------------------------
  pario::ClusterStorage storage(cluster, nprocs);
  storage.shared().write_all(
      "queries.fa",
      std::span(reinterpret_cast<const std::uint8_t*>(setup.query_fasta.data()),
                setup.query_fasta.size()));
  const bool both = setup.driver == "both";
  const bool tracing = args.get_flag("trace");
  // One tracer per driver run; with both drivers each timeline is printed
  // under its driver's name.
  std::optional<mpisim::Tracer> trace;
  const auto finish = [&](const char* name, const char* key,
                          const blast::DriverResult& result) {
    report(name, result);
    if (args.get_flag("metrics")) print_metrics(key, result);
    if (!trace) return;
    std::printf("--- %s%sevent timeline (first 60 events of %zu) ---\n",
                both ? name : "", both ? " " : "", trace->size());
    trace->render(std::cout, 60);
  };

  // Errors inside a run (a conformance divergence, a verifier report)
  // are reported here and exit 1.
  std::vector<std::uint8_t> mpi_out, pio_out;
  try {
    if (setup.driver != "pioblast") {
      const auto parts = seqdb::mpiformatdb(storage.shared(), setup.db,
                                            job.db_base, job.params.type,
                                            job.db_title, setup.nfragments);
      mpiblast::MpiBlastOptions opts;
      static_cast<driver::RunConfig&>(opts) = setup.run;
      opts.job.output_path = "out.mpiblast.txt";
      opts.fragment_bases = parts.fragment_bases;
      opts.fragment_ranges = parts.ranges;
      opts.global_index = parts.global_index;
      if (setup.scheduler) opts.scheduler = *setup.scheduler;
      blast::DriverResult result;
      if (!run_driver("mpiblast", setup, opts, tracing,
                      [&](const mpiblast::MpiBlastOptions& o) {
                        return mpiblast::run_mpiblast(cluster, nprocs, storage,
                                                      o);
                      },
                      trace, result))
        return 1;
      finish("mpiBLAST", "mpiblast", result);
      mpi_out = storage.shared().read_all("out.mpiblast.txt");
    }
    if (setup.driver != "mpiblast") {
      seqdb::format_db(storage.shared(), setup.db, job.db_base,
                       job.params.type, job.db_title);
      pio::PioBlastOptions opts;
      static_cast<driver::RunConfig&>(opts) = setup.run;
      opts.job.output_path = "out.pioblast.txt";
      opts.early_score_broadcast = args.get_flag("early-score-broadcast");
      if (setup.scheduler) opts.scheduler = *setup.scheduler;
      blast::DriverResult result;
      if (!run_driver("pioblast", setup, opts, tracing,
                      [&](const pio::PioBlastOptions& o) {
                        return pio::run_pioblast(cluster, nprocs, storage, o);
                      },
                      trace, result))
        return 1;
      finish("pioBLAST", "pioblast", result);
      pio_out = storage.shared().read_all("out.pioblast.txt");
    }
  } catch (const util::RuntimeError& e) {
    std::cerr << e.what() << '\n';
    return 1;
  }

  if (both) {
    std::printf("outputs identical: %s\n", mpi_out == pio_out ? "yes" : "NO");
    if (mpi_out != pio_out) return 1;
  }

  if (!args.get("output").empty()) {
    const auto& out = pio_out.empty() ? mpi_out : pio_out;
    std::ofstream f(args.get("output"), std::ios::binary);
    f.write(reinterpret_cast<const char*>(out.data()),
            static_cast<std::streamsize>(out.size()));
    std::printf("report written to %s (%s)\n", args.get("output").c_str(),
                util::format_bytes(out.size()).c_str());
  }
  return 0;
}
