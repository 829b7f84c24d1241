#!/usr/bin/env python3
"""Fold bench `ROW {...}` lines into a JSON results file, or check them
against one.

The benches emit one machine-readable line per measurement, e.g. bench/paper
one per configuration it runs:

    ROW {"figures":"table1 fig3a","cluster":"altix","procs":32,...}

This script collects those lines, from files given on the command line or
from stdin, and writes them as one JSON document, so the numbers survive as
an artifact instead of scrollback:

    build/bench/paper | tools/bench_to_json.py -o BENCH_paper.json

Lines that are not ROW lines are ignored, so piping the bench's full
stdout (banner, tables) through is fine.

With --check FILE, nothing is written: the collected rows are compared
with FILE's, in order and exactly, field by field. Every differing row and
field, and any missing or extra row, is listed and the exit status is 1.
Virtual times are deterministic, so any difference is a behaviour change;
a change that means it regenerates FILE in the same commit:

    build/bench/paper | tee paper.txt
    tools/bench_to_json.py --check BENCH_paper.json paper.txt
"""

import argparse
import json
import sys


def collect_rows(stream):
    rows = []
    for line in stream:
        line = line.strip()
        if not line.startswith("ROW "):
            continue
        try:
            rows.append(json.loads(line[len("ROW "):]))
        except json.JSONDecodeError as e:
            print(f"bench_to_json: skipping malformed ROW line: {e}",
                  file=sys.stderr)
    return rows


def diff_rows(want, got):
    """Lists how `got` differs from `want`, in order: each differing row
    followed by its differing fields, then any missing or extra row.
    Returns the lines and the number of rows that differ."""
    lines, bad = [], 0
    for i, (w, g) in enumerate(zip(want, got)):
        fields = [f"  {key}: want {w.get(key)!r}, got {g.get(key)!r}"
                  for key in sorted(set(w) | set(g))
                  if w.get(key) != g.get(key)]
        if fields:
            bad += 1
            lines += [f"row {i}: {json.dumps(w, sort_keys=True)}"] + fields
    for i in range(len(got), len(want)):
        bad += 1
        lines.append(f"row {i}: missing {json.dumps(want[i], sort_keys=True)}")
    for i in range(len(want), len(got)):
        bad += 1
        lines.append(f"row {i}: extra {json.dumps(got[i], sort_keys=True)}")
    return lines, bad


def main():
    ap = argparse.ArgumentParser(
        description="collect bench ROW lines into a JSON results file, or "
                    "check them against one")
    ap.add_argument("inputs", nargs="*",
                    help="bench output files (default: stdin)")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("-o", "--output", help="write the rows to this path")
    mode.add_argument("--check", metavar="FILE",
                      help="compare the rows with FILE's exactly; exit 1 "
                           "on any difference")
    args = ap.parse_args()

    rows = []
    if args.inputs:
        for path in args.inputs:
            with open(path, encoding="utf-8") as f:
                rows.extend(collect_rows(f))
    else:
        rows.extend(collect_rows(sys.stdin))

    if not rows:
        print("bench_to_json: no ROW lines found", file=sys.stderr)
        return 1

    if args.check:
        with open(args.check, encoding="utf-8") as f:
            want = json.load(f).get("rows", [])
        lines, bad = diff_rows(want, rows)
        print("\n".join(lines + [f"{args.check}: {len(want)} rows, "
                                  f"{bad} differ"]))
        return 1 if bad else 0

    doc = {"rows": rows}
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"{args.output}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
