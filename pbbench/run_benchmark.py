#!/usr/bin/env python3
"""The pioBLAST benchmark's one command.

Builds pbbench from the checkout it sits in, runs the workloads one after
another (one process at a time), prints every metric as
`<workload> <metric> <value> <unit>`, checks that every job's report is
byte-identical to the reference, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

A workload's query set is sampled with --sample-seed (default 4242);
--seed only shuffles the order of its queries, which changes the input
file but not the work, so runs with different seeds measure the same job.

  python3 pbbench/run_benchmark.py                      all workloads, seed 4242
  python3 pbbench/run_benchmark.py --workload W --seed N --seconds S --trace 0
  python3 pbbench/run_benchmark.py --traced             per-layer metrics + traces
  python3 pbbench/run_benchmark.py --check              fail on virtual-time drift
  python3 pbbench/run_benchmark.py --record --sample-seed N --seed N
                                                        store references

Metric names, units and bounds live in BENCHMARK.json at the repository
root; references live in pbbench/reference.json, keyed by sample seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "pbbench"
REFERENCE = HERE / "reference.json"
TRACES = ROOT / "results" / "bench"
# Per-layer numbers that exist only on some workloads, so BENCHMARK.json
# cannot list them: kernel share of one host thread (events backend) and
# conformance, which rejects worlds above 33 ranks.
EXTRA_UNITS = {"mpisim.nonkernel_s": "s", "protospec.conformance_overhead_s": "s"}


def die(message):
    print(f"run_benchmark: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, rebuilds incrementally, refuses a stale binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"{ROOT} holds no pioblast sources (CMakeLists.txt, src/) to benchmark")
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", str(BUILD), "--target", "pbbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        die("build failed")
    sources = [HERE / "pbbench.cpp", HERE / "CMakeLists.txt"]
    if BINARY.stat().st_mtime < max(p.stat().st_mtime for p in sources):
        die(f"{BINARY} is older than the pbbench/ sources; rebuild it with "
            f"`cmake --build {BUILD} --target pbbench`")


def git_sha():
    """The checkout's commit, or "unknown" outside a git checkout (the
    lookup never climbs above ROOT)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def pbbench(*args):
    """Runs pbbench and returns its RESULT records."""
    command = [str(BINARY), *map(str, args)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(command)}")
    if proc.returncode != 0:
        die(f"exit {proc.returncode}: {' '.join(command)}")
    return [json.loads(line[len("RESULT "):])
            for line in proc.stdout.splitlines() if line.startswith("RESULT ")]


def cross_digest(workload, seeds, sha):
    """Report digest of the other driver (4 ranks, events) on the same
    queries: the paper's invariant makes it the expected output."""
    (record,) = pbbench("--workload", workload, *seeds, "--cross", "--sha", sha)
    return record["output_fnv64"]


def run_workload(workload, seeds, seconds, traced, sha, expected):
    """One pbbench process. A job fails when it threw, when its report
    differs from `expected`, or when its virtual time or counts differ from
    the run's first job."""
    args = ["--workload", workload, *seeds, "--seconds", seconds, "--sha", sha]
    if traced:
        TRACES.mkdir(parents=True, exist_ok=True)
        args += ["--traced", "--trace-out", TRACES / f"trace-{workload}.json"]
    records = pbbench(*args)
    jobs = [r for r in records if r["kind"] == "job"]
    done = [j for j in jobs if "error" not in j]
    exact = done[0]["exact"] if done else None
    failed = sum(1 for j in jobs if "error" in j or j["output_fnv64"] != expected
                 or j["exact"] != exact)
    summary = next(r for r in records if r["kind"] in ("summary", "layer"))
    if traced:
        values = dict(exact or {}, **summary["metrics"])
        reps = summary["rounds"]
    else:
        walls = [j["wall_s"] for j in done if j["variant"] == "timed"]
        values = {"setup_s": summary["setup_s"], "peak_rss_mb": summary["peak_rss_mb"]}
        if walls:
            values["wall_s"] = statistics.median(walls)
        reps = len(walls)
    return {"workload": workload, "values": values, "attempted": len(jobs),
            "failed": failed, "exact": exact, "reps": reps, "stamp": summary}


def report(result, registry):
    """Prints `<workload> <metric> <value> <unit>` lines and the stamp;
    returns the contract metrics of this workload."""
    name, values = result["workload"], result["values"]
    metrics = {}
    for spec in registry:
        if spec["name"] not in values:
            die(f"{name}: pbbench reported no {spec['name']}")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    for metric, unit in EXTRA_UNITS.items():
        if metric in values:
            metrics[metric] = {"value": values[metric], "unit": unit}
    for metric, m in metrics.items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(f"{name} samples {result['reps']} count")
    print(f"{name} jobs_failed_frac {result['failed'] / max(result['attempted'], 1):.6g} ratio")
    s = result["stamp"]
    print(f"# {name} sha={s['sha']} nproc={s['nproc']} build_type={s['build_type']} "
          f"seed={s['seed']} sample_seed={s['sample_seed']} reps={result['reps']}")
    return {m: v for m, v in metrics.items() if m not in EXTRA_UNITS}


def check(result, reference, bounds):
    """Drift gate: virtual time and exact counts must equal the reference
    of the run's seeds. Wall time, set-up and memory are reported against
    their bounds but not gated (they depend on the host)."""
    name, now, ref = result["workload"], result["exact"] or {}, reference["exact"]
    drift = [k for k in sorted(set(ref) | set(now)) if ref.get(k) != now.get(k)]
    for key in drift:
        print(f"check {name} DRIFT {key}: reference {ref.get(key)} now {now.get(key)}")
    for metric, bound in bounds.items():
        now, ref = result["values"].get(metric), reference.get(metric)
        if now is None or ref is None:
            continue
        change = now / ref - 1
        verdict = "within" if change <= bound else "outside"
        print(f"check {name} {metric} {now:.4g} vs reference {ref:.4g} "
              f"({change:+.1%}, bound {bound:.0%}: {verdict}; not gated)")
    return not drift


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=4242, help="query-order seed")
    parser.add_argument("--sample-seed", type=int, default=4242,
                        help="query-sampling seed (references exist for 4242 and 9001)")
    parser.add_argument("--seconds", type=float, default=20,
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from the traced run")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if virtual time or counts drift from the reference")
    parser.add_argument("--record", action="store_true",
                        help="store references for these seeds after a cross-driver check")
    args = parser.parse_args()
    if args.trace and (args.check or args.record):
        die("--check and --record compare untraced runs; drop --trace")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    registry = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    build()
    workloads = ([args.workload] if args.workload else
                 subprocess.run([str(BINARY), "--list"], capture_output=True,
                                text=True, check=True).stdout.split())
    sha = git_sha()
    seeds = ["--seed", args.seed, "--sample-seed", args.sample_seed]
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    # One digest per workload and query set; exact fields per order seed.
    sample_refs = references.setdefault(str(args.sample_seed), {})
    if args.check and any(str(args.seed) not in sample_refs.get(w, {}).get("seeds", {})
                          for w in workloads):
        die(f"no reference for --sample-seed {args.sample_seed} --seed {args.seed}; "
            f"record one with --record")

    metrics, attempted, failed, drift_free = {}, 0, 0, True
    for workload in workloads:
        ref = sample_refs.get(workload)
        if args.record or ref is None:
            expected = cross_digest(workload, seeds, sha)  # untimed
        else:
            expected = ref["output_fnv64"]
        result = run_workload(workload, seeds, args.seconds, args.trace, sha, expected)
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in report(result, registry).items():
            metrics[metric if args.workload else f"{workload}/{metric}"] = value
        if args.check:
            drift_free &= check(result, ref["seeds"][str(args.seed)], bounds)
        if args.record and result["failed"] == 0:
            entry = sample_refs.setdefault(workload, {"seeds": {}})
            entry["output_fnv64"] = expected
            entry["seeds"][str(args.seed)] = {
                "exact": result["exact"], "sha": sha, "nproc": result["stamp"]["nproc"],
                **{m: result["values"][m] for m in bounds}}
    if args.record:
        if failed:
            die(f"{failed} job(s) failed; no reference recorded")
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if args.check and (failed or not drift_free):
        sys.exit(1)


if __name__ == "__main__":
    main()
