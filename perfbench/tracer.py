"""Per-layer tracing of qlca from outside the package.

Each layer is a module of ``qlca``; its public functions are wrapped in
timing spans, and the wrappers are installed under every name in every
``qlca.*`` namespace that binds the same function object (``from .poly
import nullspace_basis`` makes one binding per importing module, so
patching ``qlca.poly`` alone would let internal calls escape). A span's
self time is its duration minus the time of the spans nested in it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# group -> public functions of the layer module whose self time it sums
SPANS = {
    "poly.elim": ("poly", ("nullspace_basis", "rank", "solve")),
    "poly.span": ("poly", ("span_rank", "span_coordinates", "spans_equal")),
    "gd.axioms": ("gd", ("check_novikov", "check_lie", "check_gd_compat")),
    "gd.build": ("gd", ("gd_build",)),
    "conformal.bracket": ("conformal", ("bracket_basis", "bracket_general")),
    "conformal.axioms": ("conformal", ("check_skew", "check_jacobi")),
    "extensions.direct": ("extensions", ("solve_extensions_direct",)),
    "extensions.theorem": ("extensions", ("solve_extensions_theorem",)),
    "extensions.verify": ("extensions", ("verify_cocycle",)),
    "extensions.modes": ("extensions", ("check_coeff_cocycle",
                                        "coeff_relation_consistency",
                                        "coeff_bracket")),
    "derivations.direct": ("derivations", ("solve_derivations_direct",
                                           "outer_dimension")),
    "derivations.theorem": ("derivations", ("solve_derivations_theorem",
                                            "detect_unit_like")),
    "derivations.agree": ("derivations", ("spaces_agree",)),
    "derivations.inner": ("derivations", ("inner_derivation",)),
    "algfile.parse": ("algfile", ("parse_algebra_file", "parse_algebra")),
    "catalog.build": ("catalog", ("catalog_build",)),
    "cli.report": ("cli", ("main",)),
}

# GDBialgebra methods counted without timing: they run hundreds of
# thousands of times per question, and a timed span on them would
# dominate the trace overhead
COUNTED_METHODS = {"gd.circ_calls": "circ", "gd.bracket_calls": "bracket"}


class Tracer:
    """Installs the wrappers on entry and removes them on exit. Times and
    counts add up over every ``with`` block the tracer is entered in."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # child-time accumulators of the open spans
        self._open = defaultdict(int)  # group -> open span count
        self._patches = []

    # -- wrappers --------------------------------------------------------

    def _span(self, group, fn):
        stack, self_time, counts, opened = (self._stack, self.self_time,
                                            self.counts, self._open)
        elim = group == "poly.elim"

        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            if fn.__name__ == "nullspace_basis" and opened["extensions.direct"]:
                counts["extensions.direct_eliminations"] += 1
            # the span functions eliminate through rank/solve; that work is
            # theirs, so it is neither poly.elim time nor a solver system
            g = "poly.span" if elim and opened["poly.span"] else group
            shape = g == "poly.elim" and fn.__name__ in ("nullspace_basis", "rank")
            if shape:
                m = args[0]
                counts["poly.elim_calls"] += 1
                counts["poly.system_rows"] += m.rows
                counts["poly.system_cols"] += m.cols
                counts["poly.system_nnz"] += len(m.entries)
            opened[g] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_time[g] += dt - stack.pop()
                opened[g] -= 1
                if stack:
                    stack[-1] += dt
            if shape:
                r = m.cols - len(result) if fn.__name__ == "nullspace_basis" else result
                counts["poly.rank"] += r
                counts["poly.nullity"] += m.cols - r
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def __enter__(self):
        import qlca.cli  # noqa: F401  (the CLI module must be loaded to patch it)
        from qlca.gd import GDBialgebra

        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "qlca" or name.startswith("qlca.")]
        replace = {}
        for group, (module, names) in SPANS.items():
            mod = sys.modules["qlca." + module]
            for name in names:
                fn = getattr(mod, name)
                replace[id(fn)] = (fn, self._span(group, fn))
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, name, value))
                    setattr(ns, name, hit[1])
        for key, name in COUNTED_METHODS.items():
            fn = getattr(GDBialgebra, name)
            self._patches.append((GDBialgebra, name, fn))
            setattr(GDBialgebra, name, self._counter(key, fn))
        return self

    def __exit__(self, *exc):
        for obj, name, value in reversed(self._patches):
            setattr(obj, name, value)
        self._patches.clear()
        return False

    # -- results ---------------------------------------------------------

    def metrics(self, derive_questions, passes):
        """Per-layer metrics of one pass over a question list, as
        {name: (value, unit)}; times and counts are means over ``passes``."""
        c = self.counts
        out = {f"{g}_s": (self.self_time[g] / passes, "s") for g in SPANS}
        for key in ("poly.elim_calls", "poly.system_rows", "poly.system_cols",
                    "poly.system_nnz", "poly.nullity", *COUNTED_METHODS):
            out[key] = (c[key] / passes, "count")
        out["conformal.bracket_basis_calls"] = (c["bracket_basis"] / passes, "count")
        rows = c["poly.system_rows"]
        out["poly.rank_ratio"] = (c["poly.rank"] / rows if rows else 0.0, "ratio")
        direct = c["solve_extensions_direct"]
        out["extensions.direct_eliminations"] = (
            c["extensions.direct_eliminations"] / direct if direct else 0.0,
            "count/call")
        derives = derive_questions * passes
        out["derivations.direct_solves"] = (
            c["solve_derivations_direct"] / derives if derives else 0.0,
            "count/question")
        return out
