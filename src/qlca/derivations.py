"""Conformal derivations of quadratic Lie conformal algebras.

A derivation ansatz stores d_λ(a_j) = Σ_{i≤P, k≤D} ∂^i λ^k v_{jik} with
rational coefficient vectors v. The direct solver expands the Leibniz
identity

    d_λ[a_μ b] = [(d_λ a)_{λ+μ} b] + [a_μ (d_λ b)]

in V ⊗ Q[∂, λ, μ] and solves the resulting exact linear system; the
closed-system solver uses the reduced equations available when the Novikov
part has a unit-like element (or is asserted simple), and is cross-checked
against the direct one. ``verify_derivation`` checks a concrete ansatz
against the same identity with brackets from ``bracket_general``, so it
shares no formula with either solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .conformal import (QuadraticLCA, bracket_basis, bracket_general,
                        expr_add, expr_is_zero, expr_sub)
from .gd import GDBialgebra, product_terms
from .poly import (DEL, LAM, MU, ONE, FormalPoly, RatMatrix, ZERO,
                   nullspace_basis, span_rank, spans_equal)


class HypothesisNotDetected(ValueError):
    """The closed-system solver's applicability condition failed."""


@dataclass(frozen=True)
class DerivationAnsatz:
    """Sparse coefficients of a conformal-linear map at fixed bounds:
    coeffs[(j, i, k)] is the coordinate vector of the ∂^i λ^k term of
    d_λ(a_j)."""

    partial_bound: int
    lambda_bound: int
    coeffs: tuple  # sorted tuple of ((j, i, k), vector) pairs

    @classmethod
    def from_dict(cls, P, D, coeffs):
        clean = []
        for (j, i, k), vec in coeffs.items():
            if i > P or k > D or i < 0 or k < 0:
                raise ValueError(f"ansatz index ({j},{i},{k}) out of bounds")
            vec = tuple(Fraction(x) for x in vec)
            if any(vec):
                clean.append(((j, i, k), vec))
        return cls(P, D, tuple(sorted(clean)))

    def image(self, R, j):
        """d_λ(a_j) as a ConformalExpr in ∂ and λ."""
        n = R.dim
        out = [FormalPoly.zero() for _ in range(n)]
        for (jj, i, k), vec in self.coeffs:
            if jj != j:
                continue
            mono = FormalPoly({(i, k, 0): Fraction(1)})
            for r, c in enumerate(vec):
                if c:
                    out[r] = out[r] + mono * c
        return tuple(out)

    def as_vector(self, n, P, D):
        """Flat coefficient vector at bounds (P, D); own bounds must fit."""
        if self.partial_bound > P or self.lambda_bound > D:
            nonzero = dict(self.coeffs)
            for (j, i, k) in nonzero:
                if i > P or k > D:
                    raise ValueError("ansatz does not fit the requested bounds")
        idx = _unknown_indexer(n, P, D)
        vec = [ZERO] * (n * (P + 1) * (D + 1) * n)
        for (j, i, k), v in self.coeffs:
            for r, c in enumerate(v):
                if c:
                    vec[idx(j, i, k, r)] = c
        return tuple(vec)


@dataclass(frozen=True)
class DerivationSpace:
    algebra: GDBialgebra
    partial_bound: int
    lambda_bound: int
    basis: tuple  # DerivationAnsatz
    inner_dim: int
    outer_dim: object  # int, or the string "not stabilized"
    method: str = "direct"

    @property
    def dimension(self):
        return len(self.basis)


def _unknown_indexer(n, P, D):
    def idx(j, i, k, r):
        return ((j * (P + 1) + i) * (D + 1) + k) * n + r
    return idx


def _ansatz_from_vector(n, P, D, vec):
    idx = _unknown_indexer(n, P, D)
    coeffs = {}
    for j in range(n):
        for i in range(P + 1):
            for k in range(D + 1):
                v = tuple(vec[idx(j, i, k, r)] for r in range(n))
                if any(v):
                    coeffs[j, i, k] = v
    return DerivationAnsatz.from_dict(P, D, coeffs)


# ---------------------------------------------------------------------
# Direct solver
# ---------------------------------------------------------------------


def _direct_rows(R: QuadraticLCA, P, D):
    """Linear system rows for the Leibniz identity over all basis pairs,
    one row per (pair, coordinate, ∂λμ-monomial)."""
    gd = R.gd
    n = gd.dim
    idx = _unknown_indexer(n, P, D)
    d = FormalPoly.sym(DEL)
    lam = FormalPoly.sym(LAM)
    mu = FormalPoly.sym(MU)

    brackets = [[bracket_basis(R, i, j) for j in range(n)] for i in range(n)]
    brackets_mu = [
        [tuple(p.substitute(LAM, mu) for p in brackets[i][j]) for j in range(n)]
        for i in range(n)
    ]
    brackets_lm = [
        [tuple(p.substitute(LAM, lam + mu) for p in brackets[i][j]) for j in range(n)]
        for i in range(n)
    ]

    def powers(base, top):
        out = [FormalPoly.const(1)]
        for _ in range(top):
            out.append(out[-1] * base)
        return out

    neg_lm = powers(-(lam + mu), P)
    mu_d = powers(mu + d, P)
    mono = [[FormalPoly({(i, k, 0): Fraction(1)}) for k in range(D + 1)]
            for i in range(P + 1)]

    rows = {}

    def add(tag, unknown, pol, sign=1):
        if pol.is_zero():
            return
        for m_key, c in pol.terms.items():
            key = (tag, m_key)
            eq = rows.setdefault(key, {})
            s = eq.get(unknown, ZERO) + sign * c
            if s:
                eq[unknown] = s
            else:
                eq.pop(unknown, None)

    for p in range(n):
        for q in range(n):
            # LHS: Σ_m B_m(∂+λ, μ) d_λ(a_m)
            shifted = [pol.substitute(DEL, d + lam) for pol in brackets_mu[p][q]]
            for m in range(n):
                Sm = shifted[m]
                if Sm.is_zero():
                    continue
                for i in range(P + 1):
                    for k in range(D + 1):
                        pol = Sm * mono[i][k]
                        for r in range(n):
                            add((p, q, r), idx(m, i, k, r), pol, 1)
            # RHS1: Σ λ^k (-λ-μ)^i [d-coeff-of-a_p bracket a_q] at slot λ+μ
            for i in range(P + 1):
                for k in range(D + 1):
                    factor = FormalPoly({(0, k, 0): Fraction(1)}) * neg_lm[i]
                    for rr in range(n):
                        base = brackets_lm[rr][q]
                        for out_r in range(n):
                            if base[out_r].is_zero():
                                continue
                            add((p, q, out_r), idx(p, i, k, rr),
                                factor * base[out_r], -1)
            # RHS2: Σ λ^k (μ+∂)^i [a_p bracket d-coeff-of-a_q] at slot μ
            for i in range(P + 1):
                for k in range(D + 1):
                    factor = FormalPoly({(0, k, 0): Fraction(1)}) * mu_d[i]
                    for rr in range(n):
                        base = brackets_mu[p][rr]
                        for out_r in range(n):
                            if base[out_r].is_zero():
                                continue
                            add((p, q, out_r), idx(q, i, k, rr),
                                factor * base[out_r], -1)
    return list(rows.values())


def solve_derivations_direct(R: QuadraticLCA, partial_bound: int = 3,
                             lambda_bound: int = 4) -> DerivationSpace:
    """Exact solution space of the Leibniz identity at the given ansatz
    bounds. inner_dim/outer_dim are the raw values at these bounds; use
    outer_dimension for the stabilized outer count."""
    gd = R.gd
    n = gd.dim
    P, D = partial_bound, lambda_bound
    rows = _direct_rows(R, P, D)
    m = RatMatrix.from_rows(rows, n * (P + 1) * (D + 1) * n)
    basis = tuple(_ansatz_from_vector(n, P, D, v) for v in nullspace_basis(m))
    inner = _inner_vectors(R, P, D)
    inner_dim = span_rank(inner) if inner else 0
    return DerivationSpace(gd, P, D, basis, inner_dim,
                           len(basis) - inner_dim, "direct")


# ---------------------------------------------------------------------
# Inner derivations
# ---------------------------------------------------------------------


def inner_derivation(R: QuadraticLCA, v: int, k: int = 0) -> DerivationAnsatz:
    """The adjoint action of ∂^k a_v: b ↦ (-λ)^k [a_v λ b]."""
    if k < 0:
        raise ValueError("∂-power must be non-negative")
    n = R.dim
    coeffs = {}
    for j in range(n):
        expr = bracket_basis(R, v, j)
        scaled = tuple(p * FormalPoly.sym(LAM, k, (-1) ** k) if k else p
                       for p in expr)
        for r, pol in enumerate(scaled):
            for (ed, el, em), c in pol.terms.items():
                key = (j, ed, el)
                vec = coeffs.setdefault(key, [ZERO] * n)
                vec[r] += c
    return DerivationAnsatz.from_dict(1, k + 1, {k2: tuple(v2) for k2, v2 in coeffs.items()})


def _inner_vectors(R, P, D):
    """Flat vectors of every inner generator ad(∂^k a_v) that fits the
    ansatz bounds (P, D). A nonzero term of ad(∂^k a_v) has λ-degree at
    least k, so k ≤ D exhausts the candidates."""
    n = R.dim
    vecs = []
    for v in range(n):
        for k in range(D + 1):
            gen = inner_derivation(R, v, k)
            if all(i <= P and kk <= D for (_, i, kk), _ in gen.coeffs):
                vecs.append(gen.as_vector(n, P, D))
    return vecs


def outer_dimension(R: QuadraticLCA, partial_bound: int = 3,
                    lambda_bound: int = 4):
    """dim(solutions) - dim(inner span) at λ-bounds D and D+2; returns the
    common value, or ("not stabilized", value_at_D, value_at_D2)."""
    vals = []
    for D in (lambda_bound, lambda_bound + 2):
        space = solve_derivations_direct(R, partial_bound, D)
        vals.append(space.dimension - space.inner_dim)
    if vals[0] == vals[1]:
        return vals[0]
    return ("not stabilized", vals[0], vals[1])


# ---------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------


def verify_derivation(R: QuadraticLCA, dmap: DerivationAnsatz):
    """Residuals (p, q, residual) of the Leibniz identity
    d_λ[a_p μ a_q] - [(d_λ a_p)_{λ+μ} a_q] - [a_p μ (d_λ a_q)] over all
    basis pairs, as identities in V ⊗ Q[∂, λ, μ]; empty iff dmap is a
    conformal derivation. Both brackets on the right come from
    ``bracket_general``, and the left side applies
    d_λ(∂^k x) = (∂+λ)^k d_λ(x) to the coordinates of the basis bracket,
    so the check shares no formula with either derivation solver."""
    n = R.dim
    d, lam, mu = FormalPoly.sym(DEL), FormalPoly.sym(LAM), FormalPoly.sym(MU)
    images = [dmap.image(R, j) for j in range(n)]
    out = []
    for p in range(n):
        for q in range(n):
            lhs = R.zero_expr()
            for m, pol in enumerate(bracket_basis(R, p, q)):
                if not pol.is_zero():
                    shifted = pol.substitute(LAM, mu).substitute(DEL, d + lam)
                    lhs = expr_add(lhs, tuple(shifted * x for x in images[m]))
            rhs = expr_add(
                bracket_general(R, images[p], R.basis_expr(q), lam + mu),
                bracket_general(R, R.basis_expr(p), images[q], mu))
            residual = expr_sub(lhs, rhs)
            if not expr_is_zero(residual):
                out.append((p, q, residual))
    return out


# ---------------------------------------------------------------------
# Closed-system solver
# ---------------------------------------------------------------------


def detect_unit_like(A: GDBialgebra):
    """Find x = Σ c_i a_i with x∘b = kb (side "left") or b∘x = kb
    (side "right") for all b, k ≠ 0, by solving the small linear system in
    (c, k). Returns (side, coefficient vector, k) or None."""
    n = A.dim
    for side in ("left", "right"):
        rows = []
        for j in range(n):
            for r in range(n):
                eq = {}
                for i in range(n):
                    c = A.novikov[i][j][r] if side == "left" else A.novikov[j][i][r]
                    if c:
                        eq[i] = c
                if j == r:
                    eq[n] = Fraction(-1)
                if eq:
                    rows.append(eq)
        m = RatMatrix.from_rows(rows, n + 1)
        # any solution with k ≠ 0 rescales to k = 1, and the k-axis is never
        # a solution on its own, so scanning the nullspace basis suffices
        for vec in nullspace_basis(m):
            if vec[n]:
                scale = 1 / vec[n]
                return side, tuple(v * scale for v in vec[:n]), Fraction(1)
    return None


class _LinExpr:
    """Element of V[λ] with coefficients linear in the solver unknowns:
    maps (coordinate, λ-power) to {unknown: Fraction}."""

    __slots__ = ("data",)

    def __init__(self):
        self.data = {}

    def add_unknown(self, r, k, unknown, coeff):
        if not coeff:
            return
        cell = self.data.setdefault((r, k), {})
        s = cell.get(unknown, ZERO) + coeff
        if s:
            cell[unknown] = s
        else:
            cell.pop(unknown, None)

    def iadd(self, other, sign=1):
        for key, cell in other.data.items():
            mine = self.data.setdefault(key, {})
            for u, c in cell.items():
                s = mine.get(u, ZERO) + sign * c
                if s:
                    mine[u] = s
                else:
                    mine.pop(u, None)
        return self

    def scaled(self, factor, lam_shift=0):
        out = _LinExpr()
        if not factor:
            return out
        for (r, k), cell in self.data.items():
            for u, c in cell.items():
                out.add_unknown(r, k + lam_shift, u, c * factor)
        return out

    def mapped_coords(self, coord_map):
        """Apply a linear map on V coordinatewise: coord_map(r) yields
        (r_out, coeff) pairs."""
        out = _LinExpr()
        for (r, k), cell in self.data.items():
            for r_out, f in coord_map(r):
                if not f:
                    continue
                for u, c in cell.items():
                    out.add_unknown(r_out, k, u, c * f)
        return out


def _closed_rows(A: GDBialgebra, D, tops):
    """Rows of the closed derivation system. ``tops`` is the max ∂-order
    used (1 for the reduced left-unit system, 3 for the full one)."""
    n = A.dim

    def unknown(i, j, k, r):
        return ((i * n + j) * (D + 1) + k) * n + r

    def d_of(i, u):
        """d^i applied to sparse ((index, coeff), ...) terms u, as a
        _LinExpr."""
        expr = _LinExpr()
        for j, uj in u:
            for k in range(D + 1):
                for r in range(n):
                    expr.add_unknown(r, k, unknown(i, j, k, r), uj)
        return expr

    def circ_right(expr, b):
        # X ∘ b for basis index b
        return expr.mapped_coords(
            lambda r: [(s, A.novikov[r][b][s]) for s in range(n)]
        )

    def circ_left(b, expr):
        return expr.mapped_coords(
            lambda r: [(s, A.novikov[b][r][s]) for s in range(n)]
        )

    def star_right(expr, b):
        return expr.mapped_coords(
            lambda r: [(s, A.novikov[r][b][s] + A.novikov[b][r][s])
                       for s in range(n)]
        )

    def lie_right(expr, b):
        # [X, b]
        return expr.mapped_coords(
            lambda r: [(s, A.lie[r][b][s]) for s in range(n)]
        )

    def lie_left(b, expr):
        return expr.mapped_coords(
            lambda r: [(s, A.lie[b][r][s]) for s in range(n)]
        )

    rows = []

    def emit(expr, tag):
        for (r, k), cell in expr.data.items():
            if cell:
                rows.append(dict(cell))

    circ, br, star = product_terms(A)

    for p in range(n):
        for q in range(n):
            a, b = ((p, ONE),), ((q, ONE),)  # basis elements a = a_p, b = a_q
            ba, ab = circ[q][p], circ[p][q]
            ab_star = star[p][q]
            lba = br[q][p]

            if tops >= 3:
                # ∂-order 3 block
                x = d_of(3, ba).iadd(d_of(3, ab), -1)
                emit(x, "d3 symmetric in product")
                x = d_of(3, ab).iadd(circ_right(d_of(3, b), p), -1)
                emit(x, "d3 of product vs product of d3")
                x = circ_left(q, d_of(3, a)).iadd(circ_left(p, d_of(3, b)), -1)
                emit(x, "b∘d3(a) = a∘d3(b)")
                x = circ_right(d_of(3, b), p).scaled(Fraction(2))
                x.iadd(circ_left(p, d_of(3, b)))
                emit(x, "2 d3(b)∘a + a∘d3(b) = 0")
                # ∂-order 2 block
                x = d_of(3, ba).scaled(Fraction(1), 1)
                x.iadd(d_of(2, ba))
                x.iadd(d_of(3, lba))
                x.iadd(lie_right(d_of(3, b), p), -1)
                x.iadd(circ_right(d_of(2, b), p), -1)
                emit(x, "mixed ∂^3 row")
                x = d_of(2, ab_star)
                x.iadd(circ_right(d_of(2, b), p).scaled(Fraction(2)), -1)
                x.iadd(star_right(d_of(2, b), p), -1)
                x.iadd(lie_right(d_of(3, b), p).scaled(Fraction(3)), -1)
                emit(x, "d2 of a∗b")
                x = circ_left(q, d_of(3, a)).scaled(Fraction(-3), 1)
                x.iadd(circ_left(q, d_of(2, a)))
                x.iadd(circ_right(d_of(2, b), p))
                x.iadd(star_right(d_of(2, b), p).scaled(Fraction(2)))
                x.iadd(lie_right(d_of(3, b), p).scaled(Fraction(3)))
                emit(x, "μ∂^2 row")
                x = star_right(d_of(3, a), q).scaled(Fraction(-4), 1)
                x.iadd(star_right(d_of(2, a), q))
                x.iadd(lie_left(q, d_of(3, a)), -1)
                x.iadd(star_right(d_of(2, b), p))
                x.iadd(lie_right(d_of(3, b), p))
                emit(x, "μ^2∂ row")
                # ∂-order 1 block
                x = d_of(2, ba).scaled(Fraction(1), 1)
                x.iadd(d_of(1, ba))
                x.iadd(d_of(2, lba))
                x.iadd(circ_right(d_of(1, b), p), -1)
                x.iadd(lie_right(d_of(2, b), p), -1)
                emit(x, "∂^2 row")
                x = d_of(1, ab_star)
                for i in range(1, 4):
                    x.iadd(circ_left(q, d_of(i, a)).scaled(
                        Fraction((-1) ** i), i - 1), -1)
                x.iadd(circ_right(d_of(1, b), p), -1)
                x.iadd(star_right(d_of(1, b), p), -1)
                x.iadd(lie_right(d_of(2, b), p).scaled(Fraction(2)), -1)
                emit(x, "μ∂ row")
                x = _LinExpr()
                for i in range(1, 4):
                    x.iadd(star_right(d_of(i, a), q).scaled(
                        Fraction((-1) ** i * comb(i + 1, 2)), i - 1))
                for i in range(2, 4):
                    x.iadd(lie_left(q, d_of(i, a)).scaled(
                        Fraction((-1) ** i * comb(i, 2)), i - 2))
                x.iadd(star_right(d_of(1, b), p))
                x.iadd(lie_right(d_of(2, b), p))
                emit(x, "μ^2 row")
                # ∂-order 0 block
                x = d_of(1, ba).scaled(Fraction(1), 1)
                x.iadd(d_of(0, ba))
                x.iadd(d_of(1, lba))
                for i in range(0, 4):
                    x.iadd(circ_left(q, d_of(i, a)).scaled(
                        Fraction((-1) ** i), i), -1)
                x.iadd(circ_right(d_of(0, b), p), -1)
                x.iadd(lie_right(d_of(1, b), p), -1)
                emit(x, "∂ row")
                x = d_of(0, ab_star)
                for i in range(0, 4):
                    x.iadd(star_right(d_of(i, a), q).scaled(
                        Fraction((-1) ** i * (i + 1)), i), -1)
                for i in range(1, 4):
                    x.iadd(lie_left(q, d_of(i, a)).scaled(
                        Fraction((-1) ** i * i), i - 1), -1)
                x.iadd(star_right(d_of(0, b), p), -1)
                x.iadd(lie_right(d_of(1, b), p), -1)
                emit(x, "μ row")
                x = d_of(0, ba).scaled(Fraction(1), 1)
                x.iadd(d_of(0, lba))
                for i in range(0, 4):
                    x.iadd(star_right(d_of(i, a), q).scaled(
                        Fraction((-1) ** i), i + 1), -1)
                    x.iadd(lie_left(q, d_of(i, a)).scaled(
                        Fraction((-1) ** i), i), -1)
                x.iadd(lie_right(d_of(0, b), p), -1)
                emit(x, "constant row")
            else:
                # reduced system for a left-unit-like Novikov part:
                # d = d^0 + ∂ d^1
                x = d_of(1, ba).iadd(circ_right(d_of(1, b), p), -1)
                emit(x, "d1 of product")
                x = star_right(d_of(1, a), q).iadd(star_right(d_of(1, b), p), -1)
                emit(x, "d1 star symmetry")
                x = d_of(0, ba)
                x.iadd(d_of(1, ba).scaled(Fraction(1), 1))
                x.iadd(d_of(1, lba))
                x.iadd(circ_left(q, d_of(0, a)), -1)
                x.iadd(circ_left(q, d_of(1, a)).scaled(Fraction(-1), 1), -1)
                x.iadd(circ_right(d_of(0, b), p), -1)
                x.iadd(lie_right(d_of(1, b), p), -1)
                emit(x, "∂ row reduced")
                x = d_of(0, ba).scaled(Fraction(1), 1)
                x.iadd(d_of(0, lba))
                x.iadd(star_right(d_of(0, a), q).scaled(Fraction(1), 1), -1)
                x.iadd(star_right(d_of(1, a), q).scaled(Fraction(-1), 2), -1)
                x.iadd(lie_left(q, d_of(0, a)), -1)
                x.iadd(lie_left(q, d_of(1, a)).scaled(Fraction(-1), 1), -1)
                x.iadd(lie_right(d_of(0, b), p), -1)
                emit(x, "constant row reduced")
    return rows, unknown


def solve_derivations_theorem(R: QuadraticLCA, lambda_bound: int = 4,
                              assert_simple: bool = False) -> DerivationSpace:
    """Closed-system derivation solver.

    Applicable when the Novikov part has a unit-like element on either
    side (detected automatically) or is asserted simple by the caller; a
    left unit-like element allows the reduced ∂-order ≤ 1 system, any
    other hypothesis the full ∂-order ≤ 3 system. Raises
    HypothesisNotDetected otherwise.
    """
    A = R.gd
    n = A.dim
    D = lambda_bound
    found = detect_unit_like(A)
    if found is None and not assert_simple:
        raise HypothesisNotDetected(
            "no element x with x∘b = kb or b∘x = kb (k ≠ 0) for all basis b; "
            "pass assert_simple=True if the Novikov part is known simple"
        )
    reduced = found is not None and found[0] == "left"
    tops = 1 if reduced else 3
    rows, unknown = _closed_rows(A, D, tops)
    # pin unknowns above the ∂-order cap
    total_orders = 4
    for i in range(tops + 1, total_orders):
        for j in range(n):
            for k in range(D + 1):
                for r in range(n):
                    rows.append({unknown(i, j, k, r): Fraction(1)})
    m = RatMatrix.from_rows(rows, total_orders * n * (D + 1) * n)
    basis = []
    P = tops
    for vec in nullspace_basis(m):
        coeffs = {}
        for i in range(total_orders):
            for j in range(n):
                for k in range(D + 1):
                    v = tuple(vec[unknown(i, j, k, r)] for r in range(n))
                    if any(v):
                        coeffs[j, i, k] = v
        basis.append(DerivationAnsatz.from_dict(max(P, 1), D, coeffs))
    inner = _inner_vectors(R, max(P, 1), D)
    inner_dim = span_rank(inner) if inner else 0
    return DerivationSpace(A, P, D, tuple(basis), inner_dim,
                           len(basis) - inner_dim, "theorem")


def spaces_agree(R: QuadraticLCA, a: DerivationSpace, b: DerivationSpace):
    """Mutual-membership comparison of two derivation spaces at the
    enclosing bounds."""
    P = max(a.partial_bound, b.partial_bound)
    D = max(a.lambda_bound, b.lambda_bound)
    n = R.dim
    return spans_equal([x.as_vector(n, P, D) for x in a.basis],
                       [x.as_vector(n, P, D) for x in b.basis])
