"""Structure-constant Gel'fand-Dorfman bialgebras and exact axiom checkers.

A bialgebra is a finite-dimensional space V with a Novikov product ∘ and a
Lie bracket [·,·], both given by rational structure constants, subject to a
compatibility identity tying the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import ZERO, _as_q

VElem = tuple  # coordinate vector over Fraction in the chosen basis


class GDValidationError(ValueError):
    """Raised by gd_build when a table violates shape, antisymmetry or one
    of the bialgebra axioms."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance at a basis triple, with the residual
    vector of the identity that should have been zero."""

    axiom: str
    i: int
    j: int
    k: int
    residual: tuple

    def __str__(self):
        return f"{self.axiom} fails at basis triple ({self.i},{self.j},{self.k}); residual {self.residual}"


def _freeze_table(table, n):
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(tuple(_as_q(x) for x in table[i][j]))
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class GDBialgebra:
    """Finite GD bialgebra given on a basis a_0..a_{n-1} by
    a_i ∘ a_j = Σ_k novikov[i][j][k] a_k and [a_i, a_j] = Σ_k lie[i][j][k] a_k.

    The stored Lie table is rebuilt from its strictly upper part, so
    antisymmetry (and [a_i, a_i] = 0) holds by construction.
    """

    dim: int
    basis_names: tuple
    novikov: tuple
    lie: tuple

    # -- element operations -------------------------------------------

    def basis_elem(self, i):
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    def circ(self, x, y):
        """x ∘ y for coordinate vectors."""
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                for k, c in enumerate(self.novikov[i][j]):
                    if c:
                        out[k] += xi * yj * c
        return tuple(out)

    def bracket(self, x, y):
        """[x, y] for coordinate vectors."""
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                for k, c in enumerate(self.lie[i][j]):
                    if c:
                        out[k] += xi * yj * c
        return tuple(out)

    def star(self, x, y):
        """Symmetrized product x∘y + y∘x."""
        a = self.circ(x, y)
        b = self.circ(y, x)
        return tuple(u + v for u, v in zip(a, b))


def product_terms(algebra):
    """Basis products read off the structure tables as sparse
    ((k, coeff), ...) terms: grids circ, lie, star with circ[i][j] = a_i∘a_j,
    lie[i][j] = [a_i, a_j] and star[i][j] = a_i∗a_j = a_i∘a_j + a_j∘a_i."""
    n = algebra.dim
    nov = algebra.novikov

    def grid(vec):
        return [[tuple((k, c) for k, c in enumerate(vec(i, j)) if c)
                 for j in range(n)] for i in range(n)]

    return (grid(lambda i, j: nov[i][j]), grid(lambda i, j: algebra.lie[i][j]),
            grid(lambda i, j: [u + v for u, v in zip(nov[i][j], nov[j][i])]))


def _table_shape_ok(table, n):
    if len(table) != n:
        return False
    for row in table:
        if len(row) != n:
            return False
        for cell in row:
            if len(cell) != n:
                return False
    return True


def gd_build(dim, basis_names, novikov_table, lie_table, validate=True):
    """Construct a GDBialgebra from raw n×n×n tables.

    With validate on, the Novikov, Lie-Jacobi and compatibility axioms are
    all checked and any violation rejects the build. Antisymmetry of the
    Lie table is always required and enforced structurally.
    """
    if dim <= 0:
        raise GDValidationError("dimension must be positive")
    basis_names = tuple(str(s) for s in basis_names)
    if len(basis_names) != dim or len(set(basis_names)) != dim:
        raise GDValidationError("need dim distinct basis names")
    if not _table_shape_ok(novikov_table, dim):
        raise GDValidationError("novikov table must have shape n×n×n")
    if not _table_shape_ok(lie_table, dim):
        raise GDValidationError("lie table must have shape n×n×n")

    novikov = _freeze_table(novikov_table, dim)
    raw_lie = _freeze_table(lie_table, dim)
    for i in range(dim):
        for j in range(i, dim):
            neg = tuple(-x for x in raw_lie[j][i])
            if raw_lie[i][j] != neg:
                raise GDValidationError(
                    f"lie table is not antisymmetric at pair ({i},{j})"
                )
    # rebuild from the strictly upper part
    zero = tuple([Fraction(0)] * dim)
    lie = tuple(
        tuple(
            raw_lie[i][j] if i < j
            else (tuple(-x for x in raw_lie[j][i]) if i > j else zero)
            for j in range(dim)
        )
        for i in range(dim)
    )

    algebra = GDBialgebra(dim, basis_names, novikov, lie)
    if validate:
        violations = check_novikov(algebra) + check_lie(algebra) + check_gd_compat(algebra)
        if violations:
            raise GDValidationError(
                f"axiom violations: {violations[0]}"
                + (f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""),
                violations,
            )
    return algebra


def _is_zero(vec):
    return not any(vec)


def check_novikov(algebra):
    """All violations of left-symmetry
    (a∘b)∘c - a∘(b∘c) = (b∘a)∘c - b∘(a∘c) and right-commutativity
    (a∘b)∘c = (a∘c)∘b over basis triples."""
    n = algebra.dim
    e = [algebra.basis_elem(i) for i in range(n)]
    circ = algebra.circ
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a, b, c = e[i], e[j], e[k]
                lhs = circ(circ(a, b), c)
                left_sym = tuple(
                    p - q - r + s
                    for p, q, r, s in zip(
                        lhs,
                        circ(a, circ(b, c)),
                        circ(circ(b, a), c),
                        circ(b, circ(a, c)),
                    )
                )
                if not _is_zero(left_sym):
                    out.append(Violation("left-symmetry", i, j, k, left_sym))
                right_comm = tuple(
                    p - q for p, q in zip(lhs, circ(circ(a, c), b))
                )
                if not _is_zero(right_comm):
                    out.append(Violation("right-commutativity", i, j, k, right_comm))
    return out


def check_lie(algebra):
    """All violations of the Jacobi identity
    [[a,b],c] + [[b,c],a] + [[c,a],b] = 0 over basis triples."""
    n = algebra.dim
    e = [algebra.basis_elem(i) for i in range(n)]
    br = algebra.bracket
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a, b, c = e[i], e[j], e[k]
                res = tuple(
                    p + q + r
                    for p, q, r in zip(
                        br(br(a, b), c), br(br(b, c), a), br(br(c, a), b)
                    )
                )
                if not _is_zero(res):
                    out.append(Violation("jacobi", i, j, k, res))
    return out


def check_gd_compat(algebra):
    """All violations of the compatibility identity
    [a∘b,c] - [a∘c,b] + [a,b]∘c - [a,c]∘b - a∘[b,c] = 0 over basis
    triples."""
    n = algebra.dim
    e = [algebra.basis_elem(i) for i in range(n)]
    circ, br = algebra.circ, algebra.bracket
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a, b, c = e[i], e[j], e[k]
                res = tuple(
                    t1 - t2 + t3 - t4 - t5
                    for t1, t2, t3, t4, t5 in zip(
                        br(circ(a, b), c),
                        br(circ(a, c), b),
                        circ(br(a, b), c),
                        circ(br(a, c), b),
                        circ(a, br(b, c)),
                    )
                )
                if not _is_zero(res):
                    out.append(Violation("compatibility", i, j, k, res))
    return out
