#!/usr/bin/env python3
"""Run the benchmark in two checkouts as alternating pairs and compare.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload catalog-certify --pairs 10 --seconds 55

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, the
parent first in even pairs and the change first in odd ones. Prints JSON:
each side's per-pair end-to-end metrics, their medians and quartiles, and
its totals of failed and attempted questions; for each metric the number
of pairs where the change is lower; for each end-to-end metric of
``BENCHMARK.json`` a verdict (see ``verdict``) under its ``bound`` and
``better`` fields; and a ``failed_share`` verdict: "worse" when the
change's share of failed questions exceeds the parent's, else "within
bound". A run that exits nonzero or prints no result stops the script
with exit code 1: it names the run on stderr and prints the runs that
finished.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(checkout, workload, seed, seconds):
    """One run's end-to-end metrics and failed and attempted question
    counts, or None when the run exits nonzero or its last stdout line is
    no result; and the finished process."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = {**{m: v["value"] for m, v in result["metrics"].items()},
                   "failed": result["failed"],
                   "attempted": result["attempted"]}
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        metrics = None
    return (metrics if proc.returncode == 0 else None), proc


def verdict(parent, change, bound, better):
    """The verdict on one metric from its paired runs, in pair order.
    ``bound`` is relative to the parent's median; ``better`` is "lower"
    or "higher". In this order:

    * "worse": the change's median is past the parent's median by more
      than the bound;
    * "gain": the change is better in at least 9 of 10 pairs (a tie
      counts for neither side), and its median is better by more than
      the parent's interquartile range;
    * "unresolved": the parent's interquartile range is wider than the
      bound times its median, unless every change run is better than
      every parent run;
    * "within bound": otherwise.
    """
    sign = 1 if better == "lower" else -1  # signed values: lower is better
    p, c = [sign * x for x in parent], [sign * x for x in change]
    p_med, c_med = statistics.median(p), statistics.median(c)
    q1, _, q3 = statistics.quantiles(p, n=4)
    wins = sum(y < x for x, y in zip(p, c))
    if c_med > p_med + bound * abs(p_med):
        return "worse"
    if 10 * wins >= 9 * len(p) and p_med - c_med > q3 - q1:
        return "gain"
    if q3 - q1 > bound * abs(p_med) and not max(c) < min(p):
        return "unresolved"
    return "within bound"


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
    counts = ("failed", "attempted")
    metrics = [m for m in runs["parent"][0] if m not in counts]
    report = {"workload": args.workload, "pairs": args.pairs,
              "seconds": args.seconds}
    for side, rs in runs.items():
        report[side] = {
            "runs": rs,
            **{c: sum(r[c] for r in rs) for c in counts},
            "median": {m: statistics.median(r[m] for r in rs) for m in metrics},
            "quartiles": {m: statistics.quantiles([r[m] for r in rs], n=4)
                          for m in metrics}}
    report["change_lower"] = {
        m: sum(c[m] < p[m] for p, c in zip(runs["parent"], runs["change"]))
        for m in metrics}
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    report["verdict"] = {
        e["name"]: verdict([r[e["name"]] for r in runs["parent"]],
                           [r[e["name"]] for r in runs["change"]],
                           e["bound"], e["better"])
        for e in end_to_end if e["name"] in metrics}
    p, c = report["parent"], report["change"]
    # the change's share of failed questions exceeds the parent's, with
    # the two fractions cross-multiplied so that no total is a divisor
    worse = c["failed"] * p["attempted"] > p["failed"] * c["attempted"]
    report["failed_share"] = "worse" if worse else "within bound"
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
