#!/usr/bin/env python3
"""Run the benchmark in two checkouts as alternating pairs and compare.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload catalog-certify --pairs 10 --seconds 55

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, the
parent first in even pairs and the change first in odd ones. Prints JSON:
each side's per-pair end-to-end metrics, their medians and quartiles,
and for each metric the number of pairs where the change is lower. A run
that exits nonzero or prints no result stops the script with exit code 1:
it names the run on stderr and prints the runs that finished.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    """One run's end-to-end metrics and failed-question count, or None
    when the run exits nonzero or its last stdout line is no result; and
    the finished process."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = {**{m: v["value"] for m, v in result["metrics"].items()},
                   "failed": result["failed"]}
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        metrics = None
    return (metrics if proc.returncode == 0 else None), proc


def fail(args, side, pair, proc, runs):
    """Name the failed run and its last stderr lines on stderr, print the
    runs that did finish as JSON, and exit 1."""
    print(f"error: the {side} run in {getattr(args, side)} failed at pair "
          f"{pair} (seed {pair}) with exit code {proc.returncode}"
          + ("" if proc.returncode else " and no JSON result line"),
          file=sys.stderr)
    for line in proc.stderr.splitlines()[-10:]:
        print(f"  {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "finished": runs}, indent=2))
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=55)
    args = ap.parse_args()
    if args.pairs < 2:  # the quartiles need two runs a side
        ap.error(f"--pairs must be at least 2, got {args.pairs}")
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        for side in ("parent", "change")[::1 if k % 2 == 0 else -1]:
            metrics, proc = run(getattr(args, side), args.workload, k,
                                args.seconds)
            if metrics is None:
                fail(args, side, k, proc, runs)
            runs[side].append(metrics)
    metrics = [m for m in runs["parent"][0] if m != "failed"]
    report = {"workload": args.workload, "pairs": args.pairs,
              "seconds": args.seconds}
    for side, rs in runs.items():
        report[side] = {
            "runs": rs,
            "median": {m: statistics.median(r[m] for r in rs) for m in metrics},
            "quartiles": {m: statistics.quantiles([r[m] for r in rs], n=4)
                          for m in metrics}}
    report["change_lower"] = {
        m: sum(c[m] < p[m] for p, c in zip(runs["parent"], runs["change"]))
        for m in metrics}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
