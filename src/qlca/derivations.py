"""Conformal derivations of quadratic Lie conformal algebras.

A derivation ansatz stores d_λ(a_j) = Σ_{i≤P, k≤D} ∂^i λ^k v_{jik} with
rational coefficient vectors v. The direct solver expands the Leibniz
identity

    d_λ[a_μ b] = [(d_λ a)_{λ+μ} b] + [a_μ (d_λ b)]

in V ⊗ Q[∂, λ, μ] and solves the resulting exact linear system; the
closed-system solver writes that identity as operator equations on the
Gel'fand–Dorfman bialgebra, valid when the Novikov part has a unit-like
element (or is asserted simple), and is cross-checked against the direct
one. Both systems and the inner derivations are read off the product
grids (``circ_terms``, ``lie_terms``, ``star_terms``).
Only ``verify_derivation`` runs the λ-bracket engine: it checks a concrete
ansatz against the same identity as the engine's Jacobi expansion with
d_λ in place of ad(a), so it shares no formula with either solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb

from .conformal import _jacobi_residuals, _slot_brackets
from .gd import GDBialgebra
from .poly import (DEL, LAM, MU, FormalPoly, RatMatrix, nullspace_basis,
                   span_rank)


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
            if any(vec):
                clean.append(((j, i, k), tuple(Fraction(x) for x in vec)))
        return cls(P, D, tuple(sorted(clean)))

    def image(self, n, j):
        """d_λ(a_j) as a length-n tuple of FormalPoly in ∂ and λ."""
        out = [FormalPoly()] * n
        for (jj, i, k), vec in self.coeffs:
            if jj != j:
                continue
            mono = FormalPoly({(i, k, 0): Fraction(1)})
            for r, c in enumerate(vec):
                if c:
                    out[r] = out[r] + mono * c
        return tuple(out)

    def _check_dim(self, n):
        """Refuse an ansatz shaped for another dimension than n."""
        for (j, _, _), vec in self.coeffs:
            if not 0 <= j < n:
                raise ValueError(f"ansatz basis index {j} is out of range "
                                 f"for dimension {n}")
            if len(vec) != n:
                raise ValueError(f"ansatz vector of length {len(vec)} at "
                                 f"basis index {j} for dimension {n}")

    def as_vector(self, n, P, D):
        """Sparse coefficient vector at bounds (P, D); own bounds must fit."""
        self._check_dim(n)
        if any(i > P or k > D for (_, i, k), _ in self.coeffs):
            raise ValueError("ansatz does not fit the requested bounds")
        idx = _unknown_indexer(n, P)
        return {idx(j, i, k, r): c for (j, i, k), v in self.coeffs
                for r, c in enumerate(v) if c}


@dataclass(frozen=True)
class DerivationSpace:
    """Conformal derivations at ansatz bounds (P, D). The inner and outer
    dimensions at these bounds are computed on first read: inner_dim
    ranks the ad(∂^k a_v) that fit, outer_dim = dimension - inner_dim.
    A caller that has ranked them already passes the rank as inner_rank."""

    algebra: GDBialgebra
    partial_bound: int
    lambda_bound: int
    basis: tuple  # DerivationAnsatz
    method: str = "direct"
    inner_rank: int | None = field(default=None, compare=False)

    @property
    def dimension(self):
        return len(self.basis)

    @cached_property
    def inner_dim(self):
        if self.inner_rank is not None:
            return self.inner_rank
        P, D = self.partial_bound, self.lambda_bound
        return span_rank(_inner_vectors(self.algebra, P, D, D)[0])

    @property
    def outer_dim(self):
        return self.dimension - self.inner_dim


def _unknown_indexer(n, P):
    """Column of the r-th coordinate of the ∂^i λ^k term of d_λ(a_j). The
    columns are λ-degree major and independent of the λ-bound, so a
    smaller λ-bound keeps a leading block of them (see stabilized_outer)."""
    def idx(j, i, k, r):
        return ((k * (P + 1) + i) * n + j) * n + r
    return idx


def _ansatz_from_vector(n, P, D, vec):
    """The ansatz of a sparse vector: each column is decoded by inverting
    _unknown_indexer's ((k·(P+1)+i)·n+j)·n+r."""
    coeffs = {}
    for col, c in vec.items():
        rest, r = divmod(col, n)
        rest, j = divmod(rest, n)
        k, i = divmod(rest, P + 1)
        coeffs.setdefault((j, i, k), [0] * n)[r] = c
    return DerivationAnsatz.from_dict(P, D, coeffs)


def _lambda_shifts(template, D, stride):
    """Rows for the unknowns of λ-degree ≤ D from the k = 0 rows {(key,
    λ-power): {column: coeff}}, zeros allowed, by the λ-shift lemma of
    ``_direct_rows``; different k hold disjoint columns, so none are summed."""
    parts = {}  # key -> [(λ-power, row items with columns less λ-power·stride)]
    for (key, s), row in template.items():
        if row := {x - s * stride: c for x, c in row.items() if c}:
            parts.setdefault(key, []).append((s, row.items()))
    for rows in parts.values():
        # one k = 0 row per λ-power, so min and max compare λ-powers only
        for lpow in range(min(rows)[0], max(rows)[0] + D + 1):
            off = lpow * stride
            if row := {x + off: c for s, items in rows
                       if lpow - D <= s <= lpow for x, c in items}:
                yield row


# ---------------------------------------------------------------------
# Direct solver
# ---------------------------------------------------------------------


def _bracket_terms(A, i, j):
    """[a_i X a_j] = ∂(a_j∘a_i) + [a_j, a_i] + X(a_i∗a_j) read off the
    product grids, as (coordinate, coeff, ∂-power, X-power) terms."""
    return ([(t, c, 1, 0) for t, c in A.circ_terms[j][i]]
            + [(t, c, 0, 0) for t, c in A.lie_terms[j][i]]
            + [(t, c, 0, 1) for t, c in A.star_terms[i][j]])


def _direct_rows(A: GDBialgebra, P, D):
    """Linear system rows for the Leibniz identity over the basis pairs
    (a_p, a_q) with p ≤ q, one row per (pair, coordinate, ∂λμ-monomial),
    yielded pair by pair: no two pairs share a row.

    The identity at (a, b) implies it at (b, a), so the pairs p > q add
    no equation. Write the (a, b) identity in a variable ν, set
    ν = −λ−μ−∂, and turn each of its three brackets around with
    skew-symmetry [x_ν y] = −[y_{−ν−∂} x]; d_λ∂ = (∂+λ)d_λ carries the
    substitution through d_λ on the left. The result is the (b, a)
    identity (D'Andrea–Kac, "Structure theory of finite conformal
    algebras", Selecta Math. 4, 1998). The rows are the whole polynomial
    identity in ∂, λ and μ, so the substitution is legitimate and the
    solution space is the one of all n² ordered pairs. The pairs p = q
    are kept, since no other pair implies them. ``verify_derivation``
    still checks every ordered pair.

    The coefficients are read off the product grids (``_bracket_terms``)
    and expanded binomially: (∂+λ) on the left, (−λ−μ)^i for the ∂^i of
    d_λ(a_p) in the first bracket on the right (at slot λ+μ), and (μ+∂)^i
    for the ∂^i of d_λ(a_q) in the second one (at slot μ).

    λ-shift lemma. The unknown v_{jik} enters only through the ∂^i λ^k
    term of d_λ(a_j), where λ^k is a scalar factor: d_λ∂ = (∂+λ)d_λ moves
    ∂ and never changes k. So the rows of the λ-degree-k unknowns are the
    k = 0 rows with every λ-power raised by k and every column offset by
    k·(P+1)·n², as ``_unknown_indexer`` is λ-degree major. Each pair's
    k = 0 rows are expanded once and shifted (``_lambda_shifts``)."""
    n = A.dim
    idx = _unknown_indexer(n, P)
    brk = [[_bracket_terms(A, i, j) for j in range(n)] for i in range(n)]
    binom = [[comb(a, s) for s in range(a + 1)] for a in range(P + 2)]

    def add(key, x, c):
        eq = rows.setdefault(key, {})
        eq[x] = eq.get(x, 0) + c

    for p in range(n):
        for q in range(p, n):
            rows = {}  # ((coordinate, ∂-, μ-power), λ-power) -> row at k = 0
            # d_λ[a_p μ a_q]: c ∂^e μ^f a_m becomes c μ^f (∂+λ)^e d_λ(a_m);
            # e ≤ 1, so every binomial is 1
            for m, c, e, f in brk[p][q]:
                for s in range(e + 1):
                    for i in range(P + 1):
                        for r in range(n):
                            add(((r, i + e - s, f), s), idx(m, i, 0, r), c)
            for i in range(P + 1):
                sign = (-1) ** i
                for rr in range(n):
                    # −λ^k (−λ−μ)^i [a_rr_{λ+μ} a_q]
                    for t, c, e, f in brk[rr][q]:
                        for s, b in enumerate(binom[i + f]):
                            add(((t, e, i + f - s), s), idx(p, i, 0, rr),
                                -sign * b * c)
                    # −λ^k (μ+∂)^i [a_p μ a_rr]
                    for t, c, e, f in brk[p][rr]:
                        for s, b in enumerate(binom[i]):
                            add(((t, i - s + e, s + f), 0), idx(q, i, 0, rr),
                                -b * c)
            yield from _lambda_shifts(rows, D, (P + 1) * n * n)


def _solve(A, rows, P, D, method):
    if P < 0 or D < 0:
        raise ValueError("ansatz bounds must be non-negative")
    n = A.dim
    m = RatMatrix.from_rows(rows, n * (P + 1) * (D + 1) * n)
    basis = tuple(_ansatz_from_vector(n, P, D, v) for v in nullspace_basis(m))
    return DerivationSpace(A, P, D, basis, method)


def solve_derivations_direct(A: GDBialgebra, partial_bound: int = 3,
                             lambda_bound: int = 4) -> DerivationSpace:
    """Exact solution space of the Leibniz identity at the given ansatz
    bounds; a negative bound raises ValueError. inner_dim/outer_dim are
    the raw values at these bounds; use stabilized_outer for the
    stabilized outer count."""
    P, D = partial_bound, lambda_bound
    return _solve(A, _direct_rows(A, P, D), P, D, "direct")


# ---------------------------------------------------------------------
# Inner derivations
# ---------------------------------------------------------------------


def inner_derivation(A: GDBialgebra, v: int, k: int = 0) -> DerivationAnsatz:
    """The adjoint action of ∂^k a_v: b ↦ (-λ)^k [a_v λ b]. It is read
    off the grids: ad(a_v) sends a_j to ∂(a_j∘a_v) + [a_j, a_v] +
    λ(a_v∗a_j), which (-λ)^k multiplies by (-1)^k and shifts k λ-degrees."""
    if k < 0:
        raise ValueError("∂-power must be non-negative")
    n = A.dim
    if not 0 <= v < n:
        raise IndexError(f"basis index out of range: {v}")
    sign = (-1) ** k
    coeffs = {}
    for j in range(n):
        for t, c, e, f in _bracket_terms(A, v, j):
            coeffs.setdefault((j, e, k + f), [0] * n)[t] += sign * c
    return DerivationAnsatz.from_dict(1, k + 1, coeffs)


def _inner_vectors(A: GDBialgebra, P, D, top):
    """The ad(∂^k a_v) that fit the bounds (P, top), top ≥ D, as vectors
    at those bounds: (the ones that fit at λ-bound D, the others)."""
    n, fit, late = A.dim, [], []
    for v in range(n):
        for k in range(top + 1):  # ad(∂^k a_v) has λ-degree ≥ k
            gen = inner_derivation(A, v, k)
            if all(i <= P and kk <= top for (_, i, kk), _ in gen.coeffs):
                degree = max((kk for (_, _, kk), _ in gen.coeffs), default=0)
                (fit if degree <= D else late).append(gen.as_vector(n, P, top))
    return fit, late


def stabilized_outer(A: GDBialgebra, partial_bound: int = 3,
                     lambda_bound: int = 4):
    """Solve the direct system once, at (P, D+2), and read the (P, D)
    space off it. Returns (space at (P, D), outer): outer is
    dim(solutions) - dim(inner span), the common value at λ-bounds D and
    D+2, or ("not stabilized", value_at_D, value_at_D2).

    Each row collects one coefficient of an identity linear in the
    unknowns, so the system at λ-bound D is the one at D+2 with every
    unknown of λ-degree > D set to 0. The columns are λ-degree major, so
    the elements of λ-degree ≤ D of the larger RREF basis are exactly the
    RREF basis at D. The inner derivations are built once for both
    λ-bounds (``_inner_vectors``). A negative bound raises ValueError."""
    P, D = partial_bound, lambda_bound
    if P < 0 or D < 0:
        raise ValueError("ansatz bounds must be non-negative")
    probe = solve_derivations_direct(A, P, D + 2)
    basis = tuple(DerivationAnsatz(P, D, d.coeffs) for d in probe.basis
                  if all(k <= D for (_, _, k), _ in d.coeffs))
    fit, late = _inner_vectors(A, P, D, D + 2)
    space = DerivationSpace(A, P, D, basis, inner_rank=span_rank(fit))
    outer = space.outer_dim
    probe_outer = probe.dimension - span_rank(fit + late)
    if outer != probe_outer:
        outer = ("not stabilized", outer, probe_outer)
    return space, outer


def outer_dimension(A: GDBialgebra, partial_bound: int = 3,
                    lambda_bound: int = 4):
    """The outer value of ``stabilized_outer``."""
    return stabilized_outer(A, partial_bound, lambda_bound)[1]


# ---------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------


def verify_derivation(A: GDBialgebra, dmap: DerivationAnsatz):
    """Residuals (p, q, residual) of the Leibniz identity
    d_λ[a_p μ a_q] - [(d_λ a_p)_{λ+μ} a_q] - [a_p μ (d_λ a_q)] over all
    basis pairs, as identities in V ⊗ Q[∂, λ, μ]; empty iff dmap is a
    conformal derivation. An ansatz shaped for another dimension raises
    ValueError. This is the engine's Jacobi expansion
    (``_jacobi_residuals``) with d_λ acting in place of ad(a_i), so the
    check shares no formula with either solver: d_λ's images with ∂
    kept, since d_λ(∂x) = (∂+λ)d_λ(x); with ∂ ↦ -λ-μ, beside the slot
    table at λ+μ; and with ∂ ↦ μ+∂, beside the one at μ."""
    n = A.dim
    dmap._check_dim(n)
    d, lam, mu = (FormalPoly.sym(s) for s in (DEL, LAM, MU))
    images = [dmap.image(n, j) for j in range(n)]

    def acting(shift):  # one row: d_λ(a_x) with ∂ ↦ shift, for x < n
        return [[tuple((r, p.substitute(DEL, shift))
                       for r, p in enumerate(image) if p)
                 for image in images]]

    return [(p, q, residual) for _, p, q, residual in _jacobi_residuals(
        A, (acting(d), acting(-(lam + mu)), acting(mu + d)),
        _slot_brackets(A, lam + mu), _slot_brackets(A, mu), n)]


# ---------------------------------------------------------------------
# Closed-system solver
# ---------------------------------------------------------------------


def detect_unit_like(A: GDBialgebra):
    """Find x = Σ c_i a_i with x∘b = kb (side "left") or b∘x = kb
    (side "right") for all b, k ≠ 0, by solving the small linear system in
    (c, k). Returns (side, coefficient vector, k) or None."""
    n = A.dim
    circ = A.circ_terms
    for side in ("left", "right"):
        rows = {(j, j): {n: -1} for j in range(n)}  # (b, coord) -> row
        for i in range(n):
            for j in range(n):
                for r, c in (circ[i][j] if side == "left" else circ[j][i]):
                    rows.setdefault((j, r), {})[i] = c
        m = RatMatrix.from_rows(rows.values(), n + 1)
        # any solution with k ≠ 0 rescales to k = 1, and the k-axis is never
        # a solution on its own, so scanning the nullspace basis suffices
        for vec in nullspace_basis(m):
            if k := vec.get(n):
                return side, tuple(vec.get(i, 0) / k for i in range(n)), 1
    return None


def _closed_rows(A: GDBialgebra, P, D):
    """Rows of the closed derivation system for d = Σ_{i≤3} ∂^i d^i, with
    every d^i of i > P set to 0 and the other unknowns indexed like the
    direct system at bounds (P, D). Its blocks are grouped by the
    ∂-order of their leading unknowns; at P = 1 only the ∂-order 1 and 0
    blocks keep a summand.

    Each call to ``emit`` sums summands (c, s, i, u, f) standing for
    c·λ^s·f(d^i(u)): u is a sparse ((j, coeff), ...) element, and the
    linear map f sends a_r to the sparse element f[r] (ID: identity). The
    sum gives one row per output coordinate and λ-power; a summand of
    i > P is 0 and skipped. d^i_k enters as λ^k·f(d^i_k(u)), so by the
    λ-shift lemma (``_direct_rows``) the k = 0 rows are shifted."""
    n = A.dim
    idx = _unknown_indexer(n, P)
    circ, br, star = A.circ_terms, A.lie_terms, A.star_terms
    ID = [((r, 1),) for r in range(n)]

    def right(grid, b):  # X ↦ X·a_b
        return [grid[r][b] for r in range(n)]

    rows = []

    def emit(*summands):
        eqs = {}  # (coordinate, λ-power) -> row at k = 0
        for c, s, i, u, f in summands:
            if i > P:
                continue
            for j, uj in u:
                base = idx(j, i, 0, 0)  # + r: the coordinate is the last index
                for r in range(n):
                    for t, ft in f[r]:
                        eq = eqs.setdefault((t, s), {})
                        eq[base + r] = eq.get(base + r, 0) + c * uj * ft
        rows.extend(_lambda_shifts(eqs, D, (P + 1) * n * n))

    for p in range(n):
        for q in range(n):
            a, b = ((p, 1),), ((q, 1),)  # basis elements a = a_p, b = a_q
            ba, ab = circ[q][p], circ[p][q]
            ab_star = star[p][q]
            lba = br[q][p]
            # the maps X∘a_p, X∗a_p, [X,a_p], X∗a_q, a_p∘X, a_q∘X, [a_q,X]
            o_p, s_p, l_p = right(circ, p), right(star, p), right(br, p)
            s_q = right(star, q)
            p_o, q_o, q_l = circ[p], circ[q], br[q]

            # ∂-order 3 block
            emit((1, 0, 3, ba, ID), (-1, 0, 3, ab, ID))  # d3 symmetric in product
            # d3 of product vs product of d3
            emit((1, 0, 3, ab, ID), (-1, 0, 3, b, o_p))
            emit((1, 0, 3, a, q_o), (-1, 0, 3, b, p_o))  # b∘d3(a) = a∘d3(b)
            emit((2, 0, 3, b, o_p), (1, 0, 3, b, p_o))  # 2 d3(b)∘a + a∘d3(b) = 0
            # ∂-order 2 block
            # mixed ∂^3 row
            emit((1, 1, 3, ba, ID), (1, 0, 2, ba, ID), (1, 0, 3, lba, ID),
                 (-1, 0, 3, b, l_p), (-1, 0, 2, b, o_p))
            # d2 of a∗b
            emit((1, 0, 2, ab_star, ID), (-2, 0, 2, b, o_p), (-1, 0, 2, b, s_p),
                 (-3, 0, 3, b, l_p))
            # μ∂^2 row
            emit((-3, 1, 3, a, q_o), (1, 0, 2, a, q_o), (1, 0, 2, b, o_p),
                 (2, 0, 2, b, s_p), (3, 0, 3, b, l_p))
            # μ^2∂ row
            emit((-4, 1, 3, a, s_q), (1, 0, 2, a, s_q), (-1, 0, 3, a, q_l),
                 (1, 0, 2, b, s_p), (1, 0, 3, b, l_p))
            # ∂-order 1 block
            # ∂^2 row
            emit((1, 1, 2, ba, ID), (1, 0, 1, ba, ID), (1, 0, 2, lba, ID),
                 (-1, 0, 1, b, o_p), (-1, 0, 2, b, l_p))
            # μ∂ row
            emit((1, 0, 1, ab_star, ID),
                 *((-(-1) ** i, i - 1, i, a, q_o) for i in range(1, 4)),
                 (-1, 0, 1, b, o_p), (-1, 0, 1, b, s_p), (-2, 0, 2, b, l_p))
            # μ^2 row
            emit(*(((-1) ** i * comb(i + 1, 2), i - 1, i, a, s_q)
                   for i in range(1, 4)),
                 *(((-1) ** i * comb(i, 2), i - 2, i, a, q_l) for i in range(2, 4)),
                 (1, 0, 1, b, s_p), (1, 0, 2, b, l_p))
            # ∂-order 0 block
            # ∂ row
            emit((1, 1, 1, ba, ID), (1, 0, 0, ba, ID), (1, 0, 1, lba, ID),
                 *((-(-1) ** i, i, i, a, q_o) for i in range(4)),
                 (-1, 0, 0, b, o_p), (-1, 0, 1, b, l_p))
            # μ row
            emit((1, 0, 0, ab_star, ID),
                 *((-(-1) ** i * (i + 1), i, i, a, s_q) for i in range(4)),
                 *((-(-1) ** i * i, i - 1, i, a, q_l) for i in range(1, 4)),
                 (-1, 0, 0, b, s_p), (-1, 0, 1, b, l_p))
            # constant row
            emit((1, 1, 0, ba, ID), (1, 0, 0, lba, ID),
                 *((-(-1) ** i, i + 1, i, a, s_q) for i in range(4)),
                 *((-(-1) ** i, i, i, a, q_l) for i in range(4)),
                 (-1, 0, 0, b, l_p))
    return rows


def solve_derivations_theorem(A: GDBialgebra, lambda_bound: int = 4,
                              assert_simple: bool = False,
                              partial_bound: int = 3) -> DerivationSpace:
    """Closed-system derivation solver.

    Applicable when the Novikov part has a unit-like element on either
    side (detected automatically) or is asserted simple by the caller.
    Raises HypothesisNotDetected otherwise; where it applies, a negative
    bound raises ValueError. The hypothesis bounds the ∂-order of a
    derivation: by 1 with a left unit-like element, by 3 otherwise.

    The unknowns of ∂-power above min(that bound, partial_bound) are set
    to 0 in the one closed system.
    Each row collects one coefficient of an identity linear in the
    unknowns, so this is the restriction ``stabilized_outer`` makes on
    the λ-bound, and the space is the direct one at the same bounds.
    """
    D = lambda_bound
    found = detect_unit_like(A)
    if found is None and not assert_simple:
        raise HypothesisNotDetected(
            "no element x with x∘b = kb or b∘x = kb (k ≠ 0) for all basis b; "
            "pass assert_simple=True if the Novikov part is known simple"
        )
    P = min(1 if found is not None and found[0] == "left" else 3,
            partial_bound)
    return _solve(A, _closed_rows(A, P, D), P, D, "theorem")


def spaces_agree(a: DerivationSpace, b: DerivationSpace):
    """Whether two derivation spaces of one algebra are equal at the
    enclosing bounds; spaces of different algebras raise ValueError.
    Each basis is independent (an RREF nullspace basis or a leading
    subset of one, and ``as_vector`` re-indexes injectively), so its span
    has its dimension, and the spans are equal exactly when each has the
    rank of their sum."""
    if a.algebra != b.algebra:
        raise ValueError("derivation spaces of different algebras")
    P = max(a.partial_bound, b.partial_bound)
    D = max(a.lambda_bound, b.lambda_bound)
    n = a.algebra.dim
    return a.dimension == b.dimension == span_rank(
        [x.as_vector(n, P, D) for x in a.basis + b.basis])
