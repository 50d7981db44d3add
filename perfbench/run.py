"""The qlca benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It writes the workload's inputs
under ``perfbench/.work``, then asks the workload's CLI questions through
``qlca.cli.main`` one after another (a closed loop, one process, one
thread) for about ``--seconds`` seconds, and checks every answer against
the recorded reference fingerprints in ``perfbench/reference.json``.

Answer times are rescaled to a reference host speed measured while the
run goes on (see ``hostspeed.py``). With ``--trace 0`` the last line
carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of traced passes (see ``tracer.py``). The line before
it is run metadata: Python version, CPU count, seed, per-question times
and per-command totals.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_PROBE_S, HostSpeed, time_probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SETUP_SAMPLES = 31
SETUP_PROBES = 3  # probes before and after each setup sample

# Child process of the setup_s measurement: it reports the monotonic clock,
# which all processes of the machine share, once the CLI modules are loaded.
_SETUP_CHILD = "import qlca, qlca.cli, time; print(repr(time.monotonic()))"


def fingerprint(cmd, rc, report):
    """The answer fields a question is judged by. They do not depend on the
    basis the algebra is written in. A missing field reads as None, so a
    changed report fails the check instead of the run."""
    fp = {"exit": rc}
    if not isinstance(report, dict):
        return fp
    if cmd == "extend":
        for method in ("theorem", "direct"):
            if method in report:
                fp[method] = {k: report[method].get(k)
                              for k in ("dimension", "per_degree", "stable", "verified")}
        fp["agreement"] = report.get("agreement")
    elif cmd == "derive":
        for k in ("solution_dimension", "inner_dimension", "outer_dimension",
                  "outer_at_bounds", "theorem_dimension", "solvers_agree"):
            if k in report:
                fp[k] = report[k]
        fp["theorem_skipped"] = "theorem_solver" in report
    elif cmd == "check":
        fp["verdict"] = report.get("verdict")
        fp["checks"] = report.get("checks")
    elif cmd == "coeff":
        for k in ("mode_cocycle_check", "closed_form_consistency", "verdict"):
            fp[k] = report.get(k)
    return fp


def ask(cli, cmd, argv):
    """Ask one question through ``cli.main``; returns (start, end,
    fingerprint), the times from ``time.perf_counter``. Output is captured inside the timed region, so rendering
    is part of the answer time. A question that raises is a wrong answer,
    not the end of the run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # noqa: BLE001  (reported as the answer)
            rc = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    return t0, t1, fingerprint(cmd, rc, report)


def reference_key(cmd, label):
    return f"{cmd} {label}"


class Measurement:
    """Per-question answer times and the count of wrong answers."""

    def __init__(self, questions, reference, speed=None):
        self.questions = questions
        self.reference = reference
        self.speed = speed  # the HostSpeed that rescales answer times
        self.spans = [[] for _ in questions]
        self.times = [[] for _ in questions]
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def ask(self, cli, index):
        cmd, label, argv = self.questions[index]
        t0, t1, fp = ask(cli, cmd, argv)
        self.spans[index].append((t0, t1))
        self.times[index].append(t1 - t0)
        self.attempted += 1
        expected = self.reference.get(reference_key(cmd, label))
        if fp != expected:
            self.failed += 1
            self.mismatches.append({"question": reference_key(cmd, label),
                                    "got": fp, "expected": expected})

    def ask_all(self, cli):
        for i in range(len(self.questions)):
            self.ask(cli, i)

    def run(self, cli, seconds):
        """Ask the list once, then keep asking, least-asked question first,
        until ``seconds`` have passed; a question is started only if its
        median time says it ends within the budget."""
        start = time.perf_counter()
        self.ask_all(cli)
        while True:
            left = seconds - (time.perf_counter() - start)
            fits = [i for i, t in enumerate(self.times) if statistics.median(t) <= left]
            if not fits:
                break
            self.ask(cli, min(fits, key=lambda i: len(self.times[i])))

    def rescaled(self):
        """Each repeat's answer time at the reference host speed."""
        return [[self.speed.rescale(t0, t1) for t0, t1 in s] for s in self.spans]

    def question_s(self):
        """Each question's median repeat at the reference host speed."""
        return [statistics.median(t) for t in self.rescaled()]

    def wall_s(self):
        """Time to answer the whole list: the sum of the question times."""
        return sum(self.question_s())

    def raw_wall_s(self):
        """The same sum of medians, as measured, without rescaling."""
        return sum(statistics.median(t) for t in self.times)

    def command_s(self):
        out = {}
        for (cmd, _, _), t in zip(self.questions, self.question_s()):
            out[cmd] = out.get(cmd, 0.0) + t
        return out


def setup_sample():
    """Seconds from starting a fresh interpreter until ``import qlca`` and
    the CLI module finish."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip()) - t0


def measure_setup():
    """``setup_s``: the median of fresh-interpreter samples, each rescaled
    to the reference host speed by the probes timed just before and after
    it. Call it with the probe timer off: a probe running beside the child
    would slow both."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probes = [time_probe()[1] for _ in range(SETUP_PROBES)]
        seconds = setup_sample()
        probes += [time_probe()[1] for _ in range(SETUP_PROBES)]
        samples.append(seconds * REFERENCE_PROBE_S / statistics.median(probes))
    return statistics.median(samples)


def load_program():
    """Import qlca from this checkout's sources, never from elsewhere."""
    if not (SRC / "qlca" / "__init__.py").is_file():
        sys.exit(f"error: no qlca sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qlca.cli

    if Path(qlca.cli.__file__).resolve().parent != SRC / "qlca":
        sys.exit(f"error: imported qlca from {qlca.cli.__file__}, not {SRC}")
    return qlca.cli


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not REFERENCE.is_file():
        sys.exit(f"error: missing reference answers {REFERENCE}")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    cli = load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    questions = workloads.materialize(
        workloads.questions(args.workload),
        BENCH / ".work" / f"{args.workload}-{args.seed}")

    speed = HostSpeed()
    run = Measurement(questions, reference, speed)
    if args.trace:
        from tracer import Tracer

        # untraced and traced passes over the list in turn, while another
        # pair fits in the budget; at least one pair
        traced = Measurement(questions, reference, speed)
        tr = Tracer()
        start = time.perf_counter()
        passes = 0
        with speed:
            while True:
                run.ask_all(cli)
                with tr:
                    traced.ask_all(cli)
                passes += 1
                spent = time.perf_counter() - start
                if spent + spent / passes > args.seconds:
                    break
        derives = sum(cmd == "derive" for cmd, _, _ in questions)
        metrics = {k: metric(v, u) for k, (v, u) in tr.metrics(derives, passes).items()}
        metrics["trace_overhead_s"] = metric(traced.wall_s() - run.wall_s(), "s")
        checked = (run, traced)
    else:
        with speed:
            run.run(cli, args.seconds)
        metrics = {
            "wall_s": metric(run.wall_s(), "s"),
            "setup_s": metric(measure_setup(), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        checked = (run,)
    attempted = sum(m.attempted for m in checked)
    failed = sum(m.failed for m in checked)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "error_rate": failed / attempted,
        "command_s": run.command_s(),
        "raw_wall_s": run.raw_wall_s(),
        "probes": len(speed.durations),
        "probe_median_s": statistics.median(speed.durations),
        "questions": [{"question": reference_key(cmd, label), "times_s": t,
                       "rescaled_s": r}
                      for (cmd, label, _), t, r in zip(questions, run.times,
                                                       run.rescaled())],
        "mismatches": [x for m in checked for x in m.mismatches][:5],
    }
    print(json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
