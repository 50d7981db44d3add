#!/usr/bin/env python3
"""Survey central-extension spaces across the whole built-in catalog.

For each algebra, runs both solvers, prints the dimension, the per-degree
profile of the direct solution span, stability of the degree probe, and
whether the two solvers agree as subspaces: both return the RREF basis of
their space in one column order, which is unique, so the spaces are
equal exactly when the bases are.
"""

import argparse
import time

from qlca import (entry_label, solve_extensions_direct,
                  solve_extensions_theorem, standard_entries)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree", type=int, default=6,
                    help="λ-degree bound for the direct solver")
    args = ap.parse_args()

    header = f"{'algebra':32} {'thm':>4} {'dir':>4} {'agree':>6} {'stable':>7}  per-degree"
    print(header)
    print("-" * len(header))
    t0 = time.time()
    for entry in standard_entries():
        A = entry.build()
        thm = solve_extensions_theorem(A)
        direct = solve_extensions_direct(A, degree_bound=args.degree)
        agree = thm.basis == direct.basis
        note = "; ".join(direct.warnings)
        print(
            f"{entry_label(entry):32} {thm.dimension:>4} {direct.dimension:>4} "
            f"{str(agree):>6} {str(direct.stable):>7}  {direct.per_degree}"
            + (f"  [{note}]" if note else "")
        )
    print(f"\ntotal: {time.time() - t0:.2f}s")


if __name__ == "__main__":
    main()
