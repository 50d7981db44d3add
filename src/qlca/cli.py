"""Command-line interface.

Targets are either a path to an algebra-definition file or a catalog
reference ``catalog:NAME[:k=v,k=v]``. Exit codes: 0 clean, 1 a check or
assertion found violations, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .algfile import emit_algebra, parse_algebra_file
from .catalog import catalog_build, catalog_names
from .conformal import _slot_brackets, check_jacobi, check_skew
from .derivations import (HypothesisNotDetected, solve_derivations_theorem,
                          spaces_agree, stabilized_outer)
from .extensions import (check_coeff_cocycle, coeff_relation_consistency,
                         solve_extensions_direct, solve_extensions_theorem,
                         verify_cocycle)
from .gd import GDValidationError, check_gd_compat, check_lie, check_novikov
from .poly import LAM, FormalPoly, span_coordinates_many

EXIT_OK, EXIT_VIOLATION, EXIT_USAGE = 0, 1, 2


def _parse_params(blob):
    params = {}
    for piece in blob.split(","):
        k, eq, v = piece.partition("=")
        k = k.strip()
        if not (eq and k):
            raise ValueError(f"catalog parameter {piece!r} is not k=v")
        if k in params:
            raise ValueError(f"catalog parameter {k!r} given twice")
        try:
            params[k] = int(v)
        except ValueError:
            try:
                params[k] = Fraction(v)
            except ZeroDivisionError:
                raise ValueError(
                    f"catalog parameter {piece!r} has a zero denominator"
                ) from None
            except ValueError:
                params[k] = v  # symbolic parameter, e.g. g=sl2
    return params


def load_target(target, validate=True):
    """Resolve a CLI target to (GDBialgebra, label). Bad input raises
    ValueError (ParseError for a file's syntax); axiom violations in
    validated targets raise GDValidationError."""
    if target.startswith("catalog:"):
        rest = target[len("catalog:"):]
        name, colon, blob = rest.partition(":")
        if name not in catalog_names():
            raise ValueError(
                f"unknown catalog algebra {name!r}; known: {', '.join(catalog_names())}"
            )
        try:
            params = _parse_params(blob) if colon else {}
            return catalog_build(name, validate, **params), rest
        except TypeError as exc:
            raise ValueError(f"bad parameters for {name!r}: {exc}") from exc
    try:
        with open(target, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {target!r}: {exc}") from exc
    spec = parse_algebra_file(text)
    return spec.build(validate=validate), spec.name


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2, default=str))
    else:
        _render_text(report)


def _render_text(report, indent=0):
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _render_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _render_text(item, indent + 1)
                print()
        elif isinstance(value, list):
            print(f"{pad}{key}: " + ", ".join(str(v) for v in value))
        else:
            print(f"{pad}{key}: {value}")


def _bracket_table(A):
    """Human-readable λ-brackets on generators, read off the sparse
    entries of the λ slot table."""
    names = A.basis_names
    rows = []
    for i, row in enumerate(_slot_brackets(A, FormalPoly.sym(LAM))):
        for j, entry in enumerate(row):
            pieces = []
            for k, pol in entry:
                s = str(pol)
                if s == "1":
                    pieces.append(names[k])
                else:
                    pieces.append(f"({s}){names[k]}")
            if pieces:
                rows.append(f"[{names[i]} λ {names[j]}] = "
                            + " + ".join(pieces))
    return rows


def _quadruple_report(A, q):
    n = A.dim
    mats = {
        f"alpha{k}": [
            [str(q.alpha[k][i][j]) for j in range(n)] for i in range(n)
        ]
        for k in range(4)
        if any(q.alpha[k][i][j] for i in range(n) for j in range(n))
    }
    brackets = []
    for i in range(n):
        for j in range(n):
            pol = q.lambda_poly(i, j)
            if pol:
                brackets.append(
                    f"[{A.basis_names[i]} λ {A.basis_names[j]}] += ({pol})·c"
                )
    return {"forms": mats, "central_brackets": brackets}


def _conformal_violation(axiom, kind, where, residual):
    """A conformal-axiom residual, worded like the GD axioms' Violation."""
    return (f"{axiom} fails at basis {kind} ({','.join(map(str, where))}); "
            f"residual ({', '.join(map(str, residual))})")


def cmd_check(args):
    A, label = load_target(args.target, validate=False)
    checks = {
        "novikov": check_novikov(A),
        "lie_jacobi": check_lie(A),
        "gd_compatibility": check_gd_compat(A),
        "conformal_skew": [
            _conformal_violation("conformal skew-symmetry", "pair", v[:2], v[2])
            for v in check_skew(A)],
        "conformal_jacobi": [
            _conformal_violation("conformal Jacobi", "triple", v[:3], v[3])
            for v in check_jacobi(A)],
    }
    violations = {k: [str(v) for v in vs] for k, vs in checks.items() if vs}
    ok = not violations
    report = {
        "command": "check",
        "target": label,
        "dim": A.dim,
        "basis": list(A.basis_names),
        "verdict": "all axioms hold" if ok else "violations found",
        "checks": {k: ("ok" if not v else f"{len(v)} violations")
                   for k, v in checks.items()},
    }
    if ok:
        report["brackets"] = _bracket_table(A)
    else:
        report["violations"] = violations
    _emit(report, args.json)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_extend(args):
    A, label = load_target(args.target)
    report = {"command": "extend", "target": label, "method": args.method}
    spaces = {}
    if args.method in ("theorem", "both"):
        spaces["theorem"] = solve_extensions_theorem(A)
    if args.method in ("direct", "both"):
        spaces["direct"] = solve_extensions_direct(A, degree_bound=args.degree)
    # the two solvers' bases are the same tuples when their spaces are
    # equal: verify and report each once
    distinct = {q for sp in spaces.values() for q in sp.basis}
    failing = {q for q in distinct if verify_cocycle(A, q)}
    reports = {q: _quadruple_report(A, q) for q in distinct}
    ok = True
    for name, sp in spaces.items():
        entry = {
            "dimension": sp.dimension,
            "per_degree": list(sp.per_degree),
            "stable": sp.stable,
            "warnings": list(sp.warnings),
            "basis": [reports[q] for q in sp.basis],
        }
        entry["verified"] = failing.isdisjoint(sp.basis)
        ok = ok and entry["verified"]
        report[name] = entry
    if args.method == "both":
        vt = [q.as_vector() for q in spaces["theorem"].basis]
        vd = [q.as_vector() for q in spaces["direct"].basis]
        cert = {
            key: [None if c is None else [str(x) for x in c]
                  for c in span_coordinates_many(basis, targets)]
            for key, basis, targets in (("theorem_in_direct", vd, vt),
                                        ("direct_in_theorem", vt, vd))
        }
        agree = all(None not in coords for coords in cert.values())
        report["agreement"] = (
            f"dimension {spaces['theorem'].dimension}, methods agree"
            if agree else "methods disagree"
        )
        report["mutual_membership"] = cert
        ok = ok and agree
    _emit(report, args.json)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_derive(args):
    A, label = load_target(args.target)
    direct, outer = stabilized_outer(A, args.partial_bound, args.lambda_bound)
    report = {
        "command": "derive",
        "target": label,
        "partial_bound": args.partial_bound,
        "lambda_bound": args.lambda_bound,
        "solution_dimension": direct.dimension,
        "inner_dimension": direct.inner_dim,
    }
    if isinstance(outer, tuple):
        report["outer_dimension"] = "not stabilized"
        report["outer_at_bounds"] = list(outer[1:])
    else:
        report["outer_dimension"] = outer
        if outer == 0:
            report["conclusion"] = "all conformal derivations are inner (CDer = CInn)"
    try:
        theorem = solve_derivations_theorem(
            A, args.lambda_bound, assert_simple=args.assert_simple,
            partial_bound=args.partial_bound,
        )
        agree = spaces_agree(direct, theorem)
        report["theorem_dimension"] = theorem.dimension
        report["solvers_agree"] = agree
    except HypothesisNotDetected as exc:
        agree = True
        report["theorem_solver"] = f"skipped: {exc}"
    _emit(report, args.json)
    return EXIT_OK if agree else EXIT_VIOLATION


def cmd_coeff(args):
    A, label = load_target(args.target)
    space = solve_extensions_theorem(A)
    if not 0 <= args.cocycle_index < space.dimension:
        raise ValueError(
            f"cocycle index {args.cocycle_index} out of range; "
            f"space has dimension {space.dimension}"
        )
    q = space.basis[args.cocycle_index]
    failures = check_coeff_cocycle(A, q, args.window)
    relation = coeff_relation_consistency(A, args.window, q)
    ok = not failures and not relation
    report = {
        "command": "coeff",
        "target": label,
        "cocycle_index": args.cocycle_index,
        "window": args.window,
        "cocycle": _quadruple_report(A, q),
        "mode_cocycle_check": "ok" if not failures else f"{len(failures)} failures",
        "closed_form_consistency": "ok" if not relation else f"{len(relation)} mismatches",
        "verdict": "induced 2-cocycle verified" if ok else "violations found",
    }
    if failures:
        report["failures"] = [str(f) for f in failures[:20]]
    _emit(report, args.json)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_catalog(args):
    if args.action == "list":
        _emit({"command": "catalog", "names": catalog_names()}, args.json)
        return EXIT_OK
    A, label = load_target("catalog:" + args.name)
    sys.stdout.write(emit_algebra(A, name=label.partition(":")[0]))
    return EXIT_OK


def _bounded_int(low):
    """argparse type: an int that is at least ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


@cache
def build_parser():
    """The ``qlca`` parser, built once per process: parsing leaves it as
    it is, and help takes the terminal width when it is printed."""
    p = argparse.ArgumentParser(
        prog="qlca",
        description=(
            "Exact workbench for quadratic Lie conformal algebras built "
            "from Gel'fand-Dorfman bialgebras"
        ),
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("check", help="verify all bialgebra and conformal axioms")
    sp.add_argument("target")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("extend", help="solve for one-dimensional central extensions")
    sp.add_argument("target")
    sp.add_argument("--method", choices=("theorem", "direct", "both"), default="both")
    sp.add_argument("--degree", type=_bounded_int(0), default=6, help="λ-degree bound of the direct ansatz")
    sp.set_defaults(func=cmd_extend)

    sp = sub.add_parser("derive", help="solve for conformal derivations")
    sp.add_argument("target")
    sp.add_argument("--partial-bound", type=_bounded_int(0), default=3)
    sp.add_argument("--lambda-bound", type=_bounded_int(0), default=4)
    sp.add_argument("--assert-simple", action="store_true",
                    help="use the closed system even without a detected unit-like element")
    sp.set_defaults(func=cmd_derive)

    sp = sub.add_parser("coeff", help="verify the induced 2-cocycle on the coefficient algebra")
    sp.add_argument("target")
    sp.add_argument("--cocycle-index", type=int, required=True)
    sp.add_argument("--window", type=_bounded_int(1), required=True)
    sp.set_defaults(func=cmd_coeff)

    sp = sub.add_parser("catalog", help="list or emit built-in algebras")
    sp.add_argument("action", choices=("list", "emit"))
    sp.add_argument("name", nargs="?")
    sp.set_defaults(func=cmd_catalog)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "catalog" and bool(args.name) != (args.action == "emit"):
        parser.error("catalog emit requires a NAME" if args.action == "emit"
                     else "catalog list takes no NAME")
    try:
        return args.func(args)
    except GDValidationError as exc:
        print(f"axiom violation: {exc}", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
