#!/usr/bin/env python3
"""Survey conformal-derivation spaces across the built-in catalog.

For each algebra, reports the solution dimension at the ansatz bounds, the
dimension of the inner span, the stabilized outer dimension (one elimination
at λ-bound D+2, the bound-D space read off it), and the closed-system
solver's verdict where its hypothesis is detected.
"""

import argparse
import time

from qlca import (HypothesisNotDetected, QuadraticLCA, detect_unit_like,
                  entry_label, solve_derivations_theorem, spaces_agree,
                  standard_entries)
from qlca.derivations import stabilized_outer


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--partial-bound", type=int, default=3)
    ap.add_argument("--lambda-bound", type=int, default=3)
    args = ap.parse_args()
    P, D = args.partial_bound, args.lambda_bound

    header = f"{'algebra':32} {'unit':>6} {'dim':>4} {'inner':>6} {'outer':>14} {'closed':>16}"
    print(header)
    print("-" * len(header))
    t0 = time.time()
    for entry in standard_entries():
        A = entry.build()
        R = QuadraticLCA(A)
        unit = detect_unit_like(A)
        direct, outer = stabilized_outer(R, P, D)
        outer_s = str(outer[0]) if isinstance(outer, tuple) else str(outer)
        try:
            thm = solve_derivations_theorem(R, D, partial_bound=P)
            closed = f"dim {thm.dimension}" + (
                " (agree)" if spaces_agree(R, direct, thm) else " (DISAGREE)"
            )
        except HypothesisNotDetected:
            closed = "no unit-like"
        print(
            f"{entry_label(entry):32} {(unit[0] if unit else '-'):>6} "
            f"{direct.dimension:>4} {direct.inner_dim:>6} {outer_s:>14} {closed:>16}"
        )
    print(f"\nbounds: ∂ ≤ {P}, λ ≤ {D}; total: {time.time() - t0:.2f}s")


if __name__ == "__main__":
    main()
