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
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "blast/job.h"
#include "driver/metrics.h"
#include "driver/scheduler.h"
#include "mpiblast/mpiblast.h"
#include "mpicheck/explore.h"
#include "mpisim/trace.h"
#include "pioblast/pioblast.h"
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

/// Parses the --check spec ("schedules=50,seed=1,preempt=2,dpor=on,
/// races=on,shrink=on,max=2000"; every field optional).
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
    else if (key == "dpor") opts.dpor = val != "off";
    else if (key == "races") opts.detect_races = val != "off";
    else if (key == "shrink") opts.shrink = val != "off";
    else if (key == "max") check_number(key, val, opts.max_schedules);
    else
      throw util::RuntimeError("--check: unknown key '" + key + "'");
  }
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

/// Everything the options and input files ask for, read before any driver
/// runs.
struct Setup {
  int nprocs = 0;
  sim::ClusterConfig cluster;
  std::vector<seqdb::FastaRecord> db;
  std::string query_fasta;
  blast::JobConfig job;
  mpisim::ExecModel exec = mpisim::ExecModel::kThreads;
  std::optional<driver::SchedulerKind> scheduler;
  mpisim::FaultPlan faults;
  pario::Hints hints;
  bool checking = false;  ///< --check explores many schedules, --schedule one
  mpicheck::CheckOptions check;
};

/// Reads every option value and input file. A bad value or an unreadable
/// file throws util::RuntimeError naming the option.
Setup configure(const util::ArgParser& args) {
  Setup s;
  const seqdb::SeqType type = args.get("type") == "dna"
                                  ? seqdb::SeqType::kNucleotide
                                  : seqdb::SeqType::kProtein;
  s.nprocs = static_cast<int>(args.get_int("procs"));
  s.cluster = args.get("cluster") == "blade" ? sim::ClusterConfig::ncsu_blade()
                                             : sim::ClusterConfig::ornl_altix();

  if (!args.get("db-fasta").empty()) {
    s.db = seqdb::parse_fasta(parse_option(args, "db-fasta", read_file));
  } else {
    seqdb::GeneratorConfig gen;
    gen.type = type;
    gen.target_residues = static_cast<std::uint64_t>(args.get_int("db-residues"));
    gen.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    gen.family_fraction = 0.6;
    s.db = seqdb::generate_database(gen);
  }
  if (!args.get("queries-fasta").empty()) {
    s.query_fasta = parse_option(args, "queries-fasta", read_file);
  } else {
    s.query_fasta = seqdb::write_fasta(seqdb::sample_queries(
        s.db, static_cast<std::uint64_t>(args.get_int("query-bytes")),
        static_cast<std::uint64_t>(args.get_int("seed")) + 1));
  }

  s.job.db_base = "db";
  s.job.db_title = "cli database";
  s.job.query_path = "queries.fa";
  s.job.params = type == seqdb::SeqType::kProtein
                     ? blast::SearchParams::blastp_defaults()
                     : blast::SearchParams::blastn_defaults();
  s.job.params.hitlist_size = static_cast<int>(args.get_int("hitlist"));
  s.job.params.evalue_cutoff = args.get_double("evalue");
  s.job.nfragments = static_cast<int>(args.get_int("fragments"));

  s.exec = parse_option(args, "exec-model", [](const std::string& v) {
    return mpisim::parse_exec_model(v);
  });
  if (!args.get("scheduler").empty()) {
    s.scheduler = parse_option(args, "scheduler", [](const std::string& v) {
      return driver::parse_scheduler(v);
    });
  }
  if (!args.get("fault").empty()) {
    s.faults = parse_option(args, "fault", [](const std::string& v) {
      return mpisim::FaultPlan::parse(v);
    });
    s.faults.validate(s.nprocs);
  }
  if (!args.get("pario-hints").empty())
    s.hints = pario::Hints::parse(args.get("pario-hints"));

  s.checking = !args.get("check").empty() || !args.get("schedule").empty();
  if (!args.get("check").empty() && args.get("check") != "default")
    s.check = parse_check(args.get("check"));
  if (!args.get("schedule").empty())
    s.check.replay_trace = args.get("schedule");
  return s;
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
      .add("exec-model", "threads",
           "rank execution backend: threads (one OS thread per rank) | "
           "events (stackful fibers on one thread; required in practice "
           "for worlds beyond a few hundred ranks)")
      .add("pario-hints", "",
           "MPI-IO-style access hints, comma-separated key=value: "
           "cb_nodes=N, cb_buffer_size=SIZE (0 = unbounded), ds_read="
           "auto|enable|disable, ds_buffer_size=SIZE, ds_density=FRACTION, "
           "list=on|off; sizes accept k/m/g suffixes "
           "(e.g. \"cb_nodes=8,cb_buffer_size=1m,ds_read=enable\")")
      .add_flag("early-score-broadcast", "enable the §5 pruning extension")
      .add_flag("dynamic-scheduling", "greedy range scheduling (§5)")
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
  const blast::JobConfig& job = setup.job;
  std::printf("database: %zu sequences; query set: %zu bytes; cluster: %s; "
              "%d processes\n\n",
              setup.db.size(), setup.query_fasta.size(), cluster.name.c_str(),
              nprocs);
  if (!args.get("fault").empty())
    std::printf("fault plan: %s\n\n", setup.faults.describe().c_str());
  if (!args.get("pario-hints").empty())
    std::printf("pario hints: %s\n\n", setup.hints.describe().c_str());

  // --- job -------------------------------------------------------------------
  pario::ClusterStorage storage(cluster, nprocs);
  storage.shared().write_all(
      "queries.fa",
      std::span(reinterpret_cast<const std::uint8_t*>(setup.query_fasta.data()),
                setup.query_fasta.size()));
  const std::string driver = args.get("driver");
  const bool verify = args.get("verify") != "off";
  mpisim::Tracer tracer;
  mpisim::Tracer* trace_ptr = args.get_flag("trace") ? &tracer : nullptr;

  std::vector<std::uint8_t> mpi_out, pio_out;
  if (driver == "mpiblast" || driver == "both") {
    const int nfragments = job.nfragments > 0 ? job.nfragments : nprocs - 1;
    const auto parts = seqdb::mpiformatdb(storage.shared(), setup.db, job.db_base,
                                          job.params.type, job.db_title,
                                          nfragments);
    mpiblast::MpiBlastOptions opts;
    opts.job = job;
    opts.tracer = trace_ptr;
    opts.verify = verify;
    opts.conformance = args.get_flag("conformance");
    opts.job.output_path = "out.mpiblast.txt";
    opts.fragment_bases = parts.fragment_bases;
    opts.fragment_ranges = parts.ranges;
    opts.global_index = parts.global_index;
    opts.hints = setup.hints;
    opts.faults = setup.faults;
    opts.exec = setup.exec;
    if (setup.scheduler) opts.scheduler = *setup.scheduler;
    blast::DriverResult result;
    if (setup.checking) {
      const bool ok = run_checked(
          "mpiblast", setup.check,
          [&](mpisim::ScheduleHook* s, mpisim::RaceHook* r) {
            mpiblast::MpiBlastOptions o = opts;
            o.schedule = s;
            o.race = r;
            result = mpiblast::run_mpiblast(cluster, nprocs, storage, o);
          });
      if (!ok) return 1;
    } else {
      result = mpiblast::run_mpiblast(cluster, nprocs, storage, opts);
    }
    report("mpiBLAST", result);
    if (args.get_flag("metrics")) print_metrics("mpiblast", result);
    mpi_out = storage.shared().read_all("out.mpiblast.txt");
  }
  if (driver == "pioblast" || driver == "both") {
    seqdb::format_db(storage.shared(), setup.db, job.db_base, job.params.type,
                     job.db_title);
    pio::PioBlastOptions opts;
    opts.job = job;
    opts.tracer = trace_ptr;
    opts.verify = verify;
    opts.conformance = args.get_flag("conformance");
    opts.job.output_path = "out.pioblast.txt";
    opts.early_score_broadcast = args.get_flag("early-score-broadcast");
    opts.dynamic_scheduling = args.get_flag("dynamic-scheduling");
    opts.hints = setup.hints;
    opts.faults = setup.faults;
    opts.exec = setup.exec;
    if (setup.scheduler) opts.scheduler = *setup.scheduler;
    blast::DriverResult result;
    if (setup.checking) {
      const bool ok = run_checked(
          "pioblast", setup.check,
          [&](mpisim::ScheduleHook* s, mpisim::RaceHook* r) {
            pio::PioBlastOptions o = opts;
            o.schedule = s;
            o.race = r;
            result = pio::run_pioblast(cluster, nprocs, storage, o);
          });
      if (!ok) return 1;
    } else {
      result = pio::run_pioblast(cluster, nprocs, storage, opts);
    }
    report("pioBLAST", result);
    if (args.get_flag("metrics")) print_metrics("pioblast", result);
    pio_out = storage.shared().read_all("out.pioblast.txt");
  }

  if (driver == "both") {
    std::printf("outputs identical: %s\n", mpi_out == pio_out ? "yes" : "NO");
    if (mpi_out != pio_out) return 1;
  }

  if (trace_ptr != nullptr) {
    std::printf("--- event timeline (first 60 events of %zu) ---\n",
                tracer.size());
    tracer.render(std::cout, 60);
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
