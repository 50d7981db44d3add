#!/usr/bin/env python3
"""Write the ``--json`` reports whose bytes must not change to a directory.

Every report is asked through ``qlca.cli.main`` and leaves three files in
OUTDIR: ``NAME.out`` (stdout), ``NAME.err`` (stderr) and ``NAME.exit``
(the exit code). The questions are ``check``, ``extend`` (default and
``--degree 0..3``), ``derive`` (default, ``--partial-bound 1
--lambda-bound 0``, ``--partial-bound 0 --lambda-bound 2`` and
``--assert-simple``) and ``coeff --cocycle-index 0`` (``--window 3``,
``--window 1`` and ``--window 6``) on the 14 standard catalog entries, on
``trunc_poly`` n=6 κ∈{0,1} and on two tables that break the axioms: a
2-dimensional one that breaks Novikov alone, and a 3-dimensional one that
breaks Novikov and compatibility, so its conformal Jacobi residuals mix
∂, λ and μ. Their reports hold the ``check`` violations and the ``axiom
violation:`` stderr of the other commands. The last four targets are
written to OUTDIR as ``.alg`` files first. That is 18 targets × 13
questions = 234 reports.

To compare two versions of the program, snapshot each and diff::

    PYTHONPATH=OLD/src python scripts/snapshot_reports.py /tmp/old
    PYTHONPATH=src python scripts/snapshot_reports.py /tmp/new
    diff -r /tmp/old /tmp/new
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT))  # after PYTHONPATH, so its qlca is the one asked

from perfbench.workloads import trunc_poly  # noqa: E402
from qlca import entry_label, standard_entries  # noqa: E402
from qlca.algfile import emit_algebra  # noqa: E402
from qlca.cli import main as qlca_main  # noqa: E402

# a Novikov table whose axioms fail at several basis triples
INVALID = ("algebra bad\ndim 2\nbasis a b\n"
           "novikov a b = b:1\nnovikov b a = a:1\nend\n")

# a Novikov table and a Lie bracket that also break compatibility
INCOMPATIBLE = ("algebra incompatible\ndim 3\nbasis a b c\n"
                "novikov a a = a:1\nnovikov b a = b:1\nnovikov c a = c:2\n"
                "lie a b = c:1\nlie b c = a:1/2\nend\n")

# (report name, command, options after the target)
VARIANTS = [
    ("check", "check", []),
    ("extend", "extend", []),
    *((f"extend-degree{d}", "extend", ["--degree", str(d)]) for d in range(4)),
    ("derive", "derive", []),
    ("derive-p1l0", "derive", ["--partial-bound", "1", "--lambda-bound", "0"]),
    ("derive-p0l2", "derive", ["--partial-bound", "0", "--lambda-bound", "2"]),
    ("derive-simple", "derive", ["--assert-simple"]),
    ("coeff", "coeff", ["--cocycle-index", "0", "--window", "3"]),
    ("coeff-window1", "coeff", ["--cocycle-index", "0", "--window", "1"]),
    ("coeff-window6", "coeff", ["--cocycle-index", "0", "--window", "6"]),
]


def targets(outdir):
    """(file-name label, CLI target) of every snapshot target."""
    out = [(entry_label(e), "catalog:" + entry_label(e))
           for e in standard_entries()]
    for kappa in (0, 1):
        label = f"trunc_poly:n=6,kappa={kappa}"
        path = outdir / f"trunc_poly_n6_kappa{kappa}.alg"
        path.write_text(emit_algebra(trunc_poly(6, kappa), name="trunc_poly"),
                        encoding="utf-8")
        out.append((label, str(path)))
    for label, text in (("invalid", INVALID), ("incompatible", INCOMPATIBLE)):
        path = outdir / f"{label}.alg"
        path.write_text(text, encoding="utf-8")
        out.append((label, str(path)))
    return out


def ask(argv):
    """(stdout, stderr, exit code) of one ``qlca`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qlca_main(argv)
    return out.getvalue(), err.getvalue(), code


def snapshot(outdir, only=None):
    """Write every report (or those of the targets labelled in ``only``)
    to ``outdir``; returns the number of reports written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for label, target in targets(outdir):
        if only is not None and label not in only:
            continue
        slug = label.replace(":", "_").replace(",", "_").replace("=", "")
        for name, cmd, options in VARIANTS:
            stdout, stderr, code = ask(["--json", cmd, target, *options])
            base = outdir / f"{name}-{slug}"
            Path(f"{base}.out").write_bytes(stdout.encode("utf-8"))
            Path(f"{base}.err").write_bytes(stderr.encode("utf-8"))
            Path(f"{base}.exit").write_text(f"{code}\n", encoding="utf-8")
            count += 1
    return count


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir")
    ap.add_argument("--only", action="append", metavar="LABEL",
                    help="snapshot only this target (repeatable), e.g. vir")
    args = ap.parse_args()
    count = snapshot(args.outdir, args.only)
    print(f"{count} reports written to {args.outdir}")


if __name__ == "__main__":
    main()
