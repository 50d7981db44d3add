"""Inputs and question lists of the qlca benchmark.

Both workloads ask fixed questions, so every seed gives the same ``.alg``
files and the same questions. The program under test only ever sees the
generated files and catalog references, asked through ``qlca.cli.main``.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from qlca.algfile import emit_algebra
from qlca.catalog import entry_label, standard_entries
from qlca.gd import gd_build

WORKLOADS = ("sparse-solve", "catalog-certify")


def trunc_poly(n, kappa):
    """The Novikov algebra x^i∘x^j = j·x^{i+j} on Q[x]/(x^n), i.e.
    a∘b = a·D(b) with D = x·d/dx, plus the Lie bracket κ(a∘b − b∘a)."""
    nov = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    lie = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i + j < n:
                nov[i][j][i + j] = Fraction(j)
                lie[i][j][i + j] = Fraction(kappa * (j - i))
    return gd_build(n, [f"x{i}" for i in range(n)], nov, lie)


def _sparse_targets():
    """(reference label, algebra or catalog target) of the solve questions."""
    return [
        ("trunc_poly:n=6,kappa=0", trunc_poly(6, 0)),
        ("trunc_poly:n=6,kappa=1", trunc_poly(6, 1)),
        ("loop_hv_cyclic:m=3", "catalog:loop_hv_cyclic:m=3"),
    ]


def _solve_questions(targets):
    out = []
    for label, target in targets:
        for cmd in ("extend", "derive"):
            out.append((cmd, label, target))
    return out


def reference_questions():
    """Questions whose answers form the reference: every workload's list."""
    return _solve_questions(_sparse_targets()) + catalog_questions()


def catalog_questions():
    out = []
    for entry in standard_entries():
        out.append(("check", entry_label(entry), "catalog:" + entry_label(entry)))
    for n in (7, 8):
        for kappa in (0, 1):
            out.append(("check", f"trunc_poly:n={n},kappa={kappa}", trunc_poly(n, kappa)))
    for entry in standard_entries():
        out.append(("coeff", entry_label(entry), "catalog:" + entry_label(entry)))
    return out


def questions(workload):
    """(command, reference label, target) triples of one workload. A target
    is a catalog reference or a GDBialgebra still to be written out."""
    if workload == "sparse-solve":
        return _solve_questions(_sparse_targets())
    if workload == "catalog-certify":
        return catalog_questions()
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


ARGS = {
    "extend": [],
    "derive": [],
    "check": [],
    "coeff": ["--cocycle-index", "0", "--window", "3"],
}


def materialize(qs, workdir):
    """Write every GDBialgebra target as an .alg file under ``workdir`` and
    return (command, reference label, argv) triples for qlca.cli.main."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    out = []
    for cmd, label, target in qs:
        if not isinstance(target, str):
            if label not in paths:
                path = workdir / (label.replace(":", "_").replace(",", "_")
                                  .replace("=", "") + ".alg")
                path.write_text(emit_algebra(target, name=label.split(":")[0]),
                                encoding="utf-8")
                paths[label] = str(path)
            target = paths[label]
        out.append((cmd, label, ["--json", cmd, target] + ARGS[cmd]))
    return out
