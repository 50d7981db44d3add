"""Structure-constant Gel'fand-Dorfman bialgebras and exact axiom checkers.

A bialgebra is a finite-dimensional space V with a Novikov product ∘ and a
Lie bracket [·,·], both given by rational structure constants, subject to a
compatibility identity tying the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .poly import ZERO, _as_q


class GDValidationError(ValueError):
    """Raised when a built algebra's tables violate shape, antisymmetry
    or one of the bialgebra axioms."""

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
        return (f"{self.axiom} fails at basis triple ({self.i},{self.j},{self.k}); "
                f"residual ({', '.join(map(str, self.residual))})")


@dataclass(frozen=True)
class GDBialgebra:
    """Finite GD bialgebra on a basis a_0..a_{n-1}, held as two sparse
    product grids: circ_terms[i][j] holds a_i ∘ a_j and lie_terms[i][j]
    holds [a_i, a_j], each as ((k, coeff), ...) terms in k order with
    zeros dropped and values as ``_as_q`` gives them. The grids are
    canonical, so equality compares the products.

    ``gd_build`` and ``AlgebraFile.build`` validate that the Lie grid is
    antisymmetric, diagonal included, so [a_i, a_i] = 0.
    """

    dim: int
    basis_names: tuple
    circ_terms: tuple
    lie_terms: tuple

    # -- element operations -------------------------------------------

    def circ(self, x, y):
        """x ∘ y for coordinate vectors."""
        return self._dense(_mul(self.circ_terms, _terms(x), _terms(y)))

    def bracket(self, x, y):
        """[x, y] for coordinate vectors."""
        return self._dense(_mul(self.lie_terms, _terms(x), _terms(y)))

    def _dense(self, vec):
        return tuple(vec.get(k, ZERO) for k in range(self.dim))

    # -- tables built once per object ---------------------------------

    @cached_property
    def star_terms(self):
        """a_i∗a_j = a_i∘a_j + a_j∘a_i."""
        C, n = self.circ_terms, self.dim
        return tuple(tuple(_cell(C[i][j] + C[j][i]) for j in range(n))
                     for i in range(n))

    @cached_property
    def derived(self):
        """Tables other modules compute from this algebra, kept for the
        object's lifetime: {name: table}."""
        return {}


def _cell(terms):
    """(k, coeff) pairs summed into one grid cell: values through
    ``_as_q``, zeros dropped, targets in k order."""
    out = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + _as_q(c)
    return tuple((k, q) for k, c in sorted(out.items()) if (q := _as_q(c)))


def _cells_grid(n, cells):
    """The n×n grid of the sparse cells {(i, j): {k: coeff}}; an omitted
    pair is zero."""
    return tuple(tuple(_cell(cells.get((i, j), {}).items()) for j in range(n))
                 for i in range(n))


def _grid(table):
    """The grid of a dense n×n×n table."""
    return tuple(tuple(_cell(enumerate(cell)) for cell in row) for row in table)


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

    return _validated(GDBialgebra(dim, basis_names, _grid(novikov_table),
                                  _grid(lie_table)), validate)


def _validated(algebra, validate):
    """``algebra`` once its Lie grid is antisymmetric and, with validate
    on, the Novikov, Lie-Jacobi and compatibility axioms hold."""
    L = algebra.lie_terms
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):  # the diagonal too: [a_i, a_i] = 0
            if L[i][j] != tuple((k, -c) for k, c in L[j][i]):
                raise GDValidationError(
                    f"lie table is not antisymmetric at pair ({i},{j})"
                )
    if validate:
        violations = check_novikov(algebra) + check_lie(algebra) + check_gd_compat(algebra)
        if violations:
            raise GDValidationError(
                f"axiom violations: {violations[0]}"
                + (f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""),
                violations,
            )
    return algebra


def _violations(n, axioms):
    """The violations over basis triples (i, j, k) of identities given as
    (name, terms) pairs, in triple order and then in ``axioms`` order.
    Each term (sign, outer, inner, nesting, perm) stands for
    sign·outer(inner(x, y), z) when nesting is "(xy)z" and for
    sign·outer(x, inner(y, z)) when it is "x(yz)", where outer and inner
    are product grids and (x, y, z) is the triple permuted by perm, a
    string such as "jik". A triple's identity is summed into one
    {k: coeff} dict; a nonzero sum becomes a dense ``_as_q`` residual."""
    tables = [(name, [(sign, outer, inner, nesting == "(xy)z",
                       tuple("ijk".index(c) for c in perm))
                      for sign, outer, inner, nesting, perm in terms])
              for name, terms in axioms]
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t = (i, j, k)
                for name, terms in tables:
                    r = {}
                    for sign, outer, inner, left, (a, b, c) in terms:
                        x, y, z = t[a], t[b], t[c]
                        for m, u in (inner[x][y] if left else inner[y][z]):
                            u *= sign
                            for s, v in (outer[m][z] if left else outer[x][m]):
                                r[s] = r.get(s, 0) + u * v
                    if any(r.values()):
                        out.append(Violation(name, i, j, k, tuple(
                            _as_q(r.get(s, 0)) for s in range(n))))
    return out


def check_novikov(algebra):
    """All violations of left-symmetry
    (a∘b)∘c - a∘(b∘c) = (b∘a)∘c - b∘(a∘c) and right-commutativity
    (a∘b)∘c = (a∘c)∘b over basis triples."""
    C = algebra.circ_terms
    return _violations(algebra.dim, [
        ("left-symmetry", [(1, C, C, "(xy)z", "ijk"), (-1, C, C, "x(yz)", "ijk"),
                           (-1, C, C, "(xy)z", "jik"), (1, C, C, "x(yz)", "jik")]),
        ("right-commutativity", [(1, C, C, "(xy)z", "ijk"),
                                 (-1, C, C, "(xy)z", "ikj")])])


def check_lie(algebra):
    """All violations of the Jacobi identity
    [[a,b],c] + [[b,c],a] + [[c,a],b] = 0 over basis triples."""
    L = algebra.lie_terms
    return _violations(algebra.dim, [
        ("jacobi", [(1, L, L, "(xy)z", perm) for perm in ("ijk", "jki", "kij")])])


def check_gd_compat(algebra):
    """All violations of the compatibility identity
    [a∘b,c] - [a∘c,b] + [a,b]∘c - [a,c]∘b - a∘[b,c] = 0 over basis
    triples."""
    C, L = algebra.circ_terms, algebra.lie_terms
    return _violations(algebra.dim, [
        ("compatibility", [(1, L, C, "(xy)z", "ijk"), (-1, L, C, "(xy)z", "ikj"),
                           (1, C, L, "(xy)z", "ijk"), (-1, C, L, "(xy)z", "ikj"),
                           (-1, C, L, "x(yz)", "ijk")])])
