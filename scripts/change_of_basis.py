#!/usr/bin/env python3
"""Print an algebra written in a seeded integer unimodular basis.

    PYTHONPATH=src python scripts/change_of_basis.py TARGET --seed N > B.alg

TARGET is a catalog target (``catalog:vir``) or an ``.alg`` file. The new
basis is b_i = Σ_k M[i][k] a_k with M = L·U, where L and U are unit-
diagonal integer triangular matrices whose other entries are drawn from
[−2, 2] by ``random.Random(N)``. So det M = 1 and M⁻¹ is an integer
matrix: the printed tables are those of the same algebra, and every
dimension ``extend`` and ``derive`` report must be the same on B.alg as
on TARGET. The tables are no longer sparse, which makes B.alg a dense
system for the exact solvers; ``qlca derive B.alg`` times them. The
basis keeps its names.
"""

import argparse
import random

from qlca.algfile import emit_algebra
from qlca.cli import load_target
from qlca.gd import gd_build


def unimodular(n, seed):
    """(M, M⁻¹) for M = L·U as in the module docstring."""
    rng = random.Random(seed)
    lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-2, 2) if j > i else 0
              for j in range(n)] for i in range(n)]
    m = _matmul(lower, upper)
    upper_inv = _transpose(_unit_lower_inverse(_transpose(upper)))
    return m, _matmul(upper_inv, _unit_lower_inverse(lower))


def _unit_lower_inverse(lower):
    """The inverse of a unit-diagonal lower triangular integer matrix, by
    forward substitution."""
    n = len(lower)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(lower[i][k] * inv[k][j] for k in range(j, i))
    return inv


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def change_basis(A, seed):
    """A in the basis b_i = Σ_k M[i][k] a_k of ``unimodular(A.dim, seed)``,
    built without validation."""
    n = A.dim
    m, m_inv = unimodular(n, seed)

    def table(grid):
        # b_i·b_j = Σ M[i][p] M[j][q] a_p·a_q, read in b-coordinates: v·M⁻¹
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                v = [0] * n
                for p in range(n):
                    for q in range(n):
                        for k, c in grid[p][q]:
                            v[k] += m[i][p] * m[j][q] * c
                row.append([sum(v[l] * m_inv[l][k] for l in range(n))
                            for k in range(n)])
            out.append(row)
        return out

    return gd_build(n, A.basis_names, table(A.circ_terms), table(A.lie_terms),
                    validate=False)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("target")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    A, label = load_target(args.target, validate=False)
    name = "".join(c if c.isalnum() else "_" for c in label)
    print(emit_algebra(change_basis(A, args.seed), name=name,
                       meta={"change_of_basis_seed": args.seed}), end="")


if __name__ == "__main__":
    main()
