"""Structure-constant Gel'fand-Dorfman bialgebras and exact axiom checkers.

A bialgebra is a finite-dimensional space V with a Novikov product ∘ and a
Lie bracket [·,·], both given by rational structure constants, subject to a
compatibility identity tying the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .poly import ZERO, _as_q


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

    ``gd_build`` validates that the Lie table is antisymmetric, diagonal
    included, so [a_i, a_i] = 0.
    """

    dim: int
    basis_names: tuple
    novikov: tuple
    lie: tuple

    # -- element operations -------------------------------------------

    def circ(self, x, y):
        """x ∘ y for coordinate vectors."""
        return self._dense(_mul(self.circ_terms, _terms(x), _terms(y)))

    def bracket(self, x, y):
        """[x, y] for coordinate vectors."""
        return self._dense(_mul(self.lie_terms, _terms(x), _terms(y)))

    def _dense(self, vec):
        return tuple(vec.get(k, ZERO) for k in range(self.dim))

    # -- sparse product grids, built once per object ------------------
    # grid[i][j] holds the basis product of a_i and a_j as sparse
    # ((k, coeff), ...) terms; equality still compares the dense fields

    @cached_property
    def circ_terms(self):
        """a_i∘a_j."""
        return _grid(self.novikov)

    @cached_property
    def lie_terms(self):
        """[a_i, a_j]."""
        return _grid(self.lie)

    @cached_property
    def star_terms(self):
        """a_i∗a_j = a_i∘a_j + a_j∘a_i."""
        nov = self.novikov
        return _grid([[[u + v for u, v in zip(nov[i][j], nov[j][i])]
                       for j in range(self.dim)] for i in range(self.dim)])

    @cached_property
    def derived(self):
        """Tables other modules compute from this algebra, kept for the
        object's lifetime: {name: table}."""
        return {}


def _grid(table):
    return tuple(tuple(tuple((k, _as_q(c)) for k, c in enumerate(cell) if c)
                       for cell in row) for row in table)


def _terms(vec):
    """A coordinate vector as sparse ((index, coeff), ...) terms."""
    return [(i, c) for i, c in enumerate(vec) if c]


def _mul(grid, x, y):
    """Σ x_i y_j grid[i][j] for sparse terms x, y, as {k: coeff}."""
    out = {}
    for i, xi in x:
        for j, yj in y:
            for k, c in grid[i][j]:
                out[k] = out.get(k, 0) + xi * yj * c
    return out


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
    Lie table is always required.
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
    lie = _freeze_table(lie_table, dim)
    for i in range(dim):
        for j in range(i, dim):  # the diagonal too: [a_i, a_i] = 0
            if lie[i][j] != tuple(-x for x in lie[j][i]):
                raise GDValidationError(
                    f"lie table is not antisymmetric at pair ({i},{j})"
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


def _residual(n, *signed):
    """Σ sign·v over {k: coeff} vectors v: () when it is 0, else its
    dense coordinates as Fractions."""
    out = {}
    for sign, v in signed:
        for k, c in v.items():
            out[k] = out.get(k, 0) + sign * c
    if not any(out.values()):
        return ()
    return tuple(Fraction(out.get(k, 0)) for k in range(n))


def _units(n):
    return [((i, 1),) for i in range(n)]


def check_novikov(algebra):
    """All violations of left-symmetry
    (a∘b)∘c - a∘(b∘c) = (b∘a)∘c - b∘(a∘c) and right-commutativity
    (a∘b)∘c = (a∘c)∘b over basis triples."""
    n = algebra.dim
    e, C = _units(n), algebra.circ_terms
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _mul(C, C[i][j], e[k])
                left_sym = _residual(n, (1, lhs), (-1, _mul(C, e[i], C[j][k])),
                                     (-1, _mul(C, C[j][i], e[k])),
                                     (1, _mul(C, e[j], C[i][k])))
                if left_sym:
                    out.append(Violation("left-symmetry", i, j, k, left_sym))
                right_comm = _residual(n, (1, lhs), (-1, _mul(C, C[i][k], e[j])))
                if right_comm:
                    out.append(Violation("right-commutativity", i, j, k, right_comm))
    return out


def check_lie(algebra):
    """All violations of the Jacobi identity
    [[a,b],c] + [[b,c],a] + [[c,a],b] = 0 over basis triples."""
    n = algebra.dim
    e, L = _units(n), algebra.lie_terms
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = _residual(n, (1, _mul(L, L[i][j], e[k])),
                                (1, _mul(L, L[j][k], e[i])),
                                (1, _mul(L, L[k][i], e[j])))
                if res:
                    out.append(Violation("jacobi", i, j, k, res))
    return out


def check_gd_compat(algebra):
    """All violations of the compatibility identity
    [a∘b,c] - [a∘c,b] + [a,b]∘c - [a,c]∘b - a∘[b,c] = 0 over basis
    triples."""
    n = algebra.dim
    e, C, L = _units(n), algebra.circ_terms, algebra.lie_terms
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = _residual(n, (1, _mul(L, C[i][j], e[k])),
                                (-1, _mul(L, C[i][k], e[j])),
                                (1, _mul(C, L[i][j], e[k])),
                                (-1, _mul(C, L[i][k], e[j])),
                                (-1, _mul(C, e[i], L[j][k])))
                if res:
                    out.append(Violation("compatibility", i, j, k, res))
    return out
