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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .conformal import _jacobi_residuals, _slot_brackets
from .gd import GDBialgebra
from .poly import (DEL, LAM, MU, FormalPoly, RatMatrix, _as_q,
                   nullspace_basis, span_rank)


class HypothesisNotDetected(ValueError):
    """The closed-system solver's applicability condition failed."""


@dataclass(frozen=True)
class DerivationAnsatz:
    """d_λ(a_j) = Σ ∂^i λ^k v_{jik} in dimension ``dim``, stored once as the
    nonzero ((k, i, j, r), (v_{jik})_r) entries, ``_as_q`` values in key
    order: ``_unknown_indexer``'s column order at every ∂-bound."""

    dim: int
    entries: tuple

    @classmethod
    def from_vector(cls, n, P, vec):
        """The ansatz of a sparse vector indexed by ``_unknown_indexer(n, P)``,
        decoded in key order; a column that is no int ≥ 0 raises ValueError."""
        entries = []
        for col, c in sorted(vec.items()):
            if type(col) is not int or col < 0:
                raise ValueError(f"column {col} is out of range for an ansatz")
            rest, r = divmod(col, n)
            rest, j = divmod(rest, n)
            k, i = divmod(rest, P + 1)
            if q := _as_q(c):
                entries.append(((k, i, j, r), q))
        return cls(n, tuple(entries))

    @classmethod
    def from_dict(cls, P, D, coeffs):
        """The ansatz of {(j, i, k): vector}; i outside [0, P], k outside
        [0, D] or vectors of different lengths raise ValueError."""
        dims = {len(vec) for vec in coeffs.values()}
        if len(dims) > 1:
            raise ValueError("ansatz vectors of different lengths")
        entries = []
        for (j, i, k), vec in coeffs.items():
            if i > P or k > D or i < 0 or k < 0:
                raise ValueError(f"ansatz index ({j},{i},{k}) out of bounds")
            entries += [((k, i, j, r), q) for r, x in enumerate(vec)
                        if (q := _as_q(x))]
        return cls(dims.pop() if dims else 0, tuple(sorted(entries)))

    def image(self, n, j):
        """d_λ(a_j) as a length-n tuple of FormalPoly in ∂ and λ."""
        out = [{} for _ in range(n)]
        for (k, i, jj, r), c in self.entries:
            if jj == j:
                out[r][(i, k, 0)] = c
        return tuple(map(FormalPoly, out))

    def _check_dim(self, n):
        """Refuse an ansatz shaped for another dimension than n."""
        for (_, _, j, _), _ in self.entries:
            if not 0 <= j < n:
                raise ValueError(f"ansatz basis index {j} is out of range "
                                 f"for dimension {n}")
            if self.dim != n:
                raise ValueError(f"ansatz vector of length {self.dim} at "
                                 f"basis index {j} for dimension {n}")

    def as_vector(self, n, P, D):
        """Sparse coefficient vector at bounds (P, D); own bounds must fit."""
        self._check_dim(n)
        if any(i > P or k > D for (k, i, _, _), _ in self.entries):
            raise ValueError("ansatz does not fit the requested bounds")
        idx = _unknown_indexer(n, P)
        return {idx(j, i, k, r): c for (k, i, j, r), c in self.entries}


@dataclass(frozen=True)
class DerivationSpace:
    """Conformal derivations at ansatz bounds (P, D). The inner and outer
    dimensions at these bounds are computed on first read: inner_dim
    ranks the ad(∂^k a_v) that fit (``_inner_vectors``), and outer_dim =
    dimension - inner_dim."""

    algebra: GDBialgebra
    partial_bound: int
    lambda_bound: int
    basis: tuple  # DerivationAnsatz

    @property
    def dimension(self):
        return len(self.basis)

    @cached_property
    def inner_dim(self):
        return span_rank(_inner_vectors(self.algebra, self.partial_bound,
                                        self.lambda_bound))

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


def _lambda_shifts(template, D, stride, dropped):
    """Rows for the unknowns of λ-degree ≤ D from the k = 0 rows {(key,
    λ-power): {column: coeff}}, zeros allowed and the ``dropped`` columns
    left out, by the λ-shift lemma of ``_direct_rows``; different k hold
    disjoint columns, so none are summed."""
    parts = {}  # key -> [(λ-power, row items with columns less λ-power·stride)]
    for (key, s), row in template.items():
        if row := {x - s * stride: c for x, c in row.items()
                   if c and x not in dropped}:
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


def _direct_rows(A: GDBialgebra, P):
    """The λ-degree 0 templates of the Leibniz identity over the basis
    pairs (a_p, a_q) with p ≤ q, one {((coordinate, ∂-power, μ-power),
    λ-power): row} per pair; no two pairs share a row.

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
    k = 0 rows are expanded once, and ``_solve`` shifts them.

    Template-peel lemma. A key of one λ-power with a one-entry row {c: v}
    forces c + k·(P+1)·n², k ≤ D, to 0 in every shift; these unit rows and
    the shifts of the templates with c dropped span the same row space."""
    n = A.dim
    idx = _unknown_indexer(n, P)
    brk = [[_bracket_terms(A, i, j) for j in range(n)] for i in range(n)]
    binom = [[comb(a, s) for s in range(a + 1)] for a in range(P + 2)]

    def add(key, x, c):
        eq = rows.setdefault(key, {})
        eq[x] = eq.get(x, 0) + c

    templates = []
    for p in range(n):
        for q in range(p, n):
            templates.append(rows := {})
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
    return templates


def _forced(template, dropped):
    """Columns that keys of one λ-power and one entry outside ``dropped`` force."""
    live = {ks: r for ks, row in template.items()
            if (r := [x for x, c in row.items() if c and x not in dropped])}
    powers = Counter(key for key, _ in live)
    return {r[0] for (k, _), r in live.items() if len(r) == 1 == powers[k]}


def _solve(A, templates, P, D):
    """The space of the templates' rows at (P, D), peeled before the shift."""
    if P < 0 or D < 0:
        raise ValueError("ansatz bounds must be non-negative")
    n, stride, forced = A.dim, (P + 1) * A.dim ** 2, set()
    while new := set().union(*(_forced(t, forced) for t in templates)):
        forced |= new
    rows = [{x + k * stride: 1} for x in forced for k in range(D + 1)]
    rows += (r for t in templates for r in _lambda_shifts(t, D, stride, forced))
    m = RatMatrix.from_rows(rows, stride * (D + 1))
    return DerivationSpace(A, P, D, tuple(
        DerivationAnsatz.from_vector(n, P, v) for v in nullspace_basis(m)))


def solve_derivations_direct(A: GDBialgebra, partial_bound: int = 3,
                             lambda_bound: int = 4) -> DerivationSpace:
    """Exact solution space of the Leibniz identity at the given ansatz
    bounds; a negative bound raises ValueError. inner_dim/outer_dim are
    the raw values at these bounds; use stabilized_outer for the
    stabilized outer count."""
    P, D = partial_bound, lambda_bound
    return _solve(A, _direct_rows(A, P), P, D)


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
    idx, sign, vec = _unknown_indexer(n, 1), (-1) ** k, {}
    for j in range(n):
        for t, c, e, f in _bracket_terms(A, v, j):
            x = idx(j, e, k + f, t)
            vec[x] = vec.get(x, 0) + sign * c
    return DerivationAnsatz.from_vector(n, 1, vec)


def _inner_vectors(A: GDBialgebra, P, D):
    """The nonzero ad(∂^k a_v) that fit the bounds (P, D), as vectors at
    those bounds: ad(∂^k a_v) = (−λ)^k ad(a_v) is, by the λ-shift lemma of
    ``_direct_rows``, ad(a_v)'s vector times (−1)^k moved k·(P+1)·n²
    columns on, and fits while k plus ad(a_v)'s λ-degree is ≤ D."""
    n, out = A.dim, []
    stride = (P + 1) * n * n
    for v in range(n):
        gen = inner_derivation(A, v)
        if not gen.entries or any(i > P for (_, i, _, _), _ in gen.entries):
            continue
        degree = gen.entries[-1][0][0]  # the last key's k
        vec = gen.as_vector(n, P, degree)
        out.extend({x + k * stride: (-1) ** k * c for x, c in vec.items()}
                   for k in range(D - degree + 1))
    return out


def stabilized_outer(A: GDBialgebra, partial_bound: int = 3,
                     lambda_bound: int = 4):
    """Solve the direct system once, at (P, D+2), and read the (P, D)
    space off it. Returns (space at (P, D), outer): outer is the
    outer_dim of both spaces, the common value at λ-bounds D and D+2, or
    ("not stabilized", value_at_D, value_at_D2).

    Each row collects one coefficient of an identity linear in the
    unknowns, so the system at λ-bound D is the one at D+2 with every
    unknown of λ-degree > D set to 0. The columns are λ-degree major, so
    the elements of λ-degree ≤ D of the larger RREF basis are exactly the
    RREF basis at D. Each space ranks its own inner span. A negative
    bound raises ValueError."""
    P, D = partial_bound, lambda_bound
    if P < 0 or D < 0:
        raise ValueError("ansatz bounds must be non-negative")
    probe = solve_derivations_direct(A, P, D + 2)
    space = DerivationSpace(A, P, D, tuple(
        d for d in probe.basis if d.entries[-1][0][0] <= D))  # last key's k
    outer = space.outer_dim
    if outer != probe.outer_dim:
        outer = ("not stabilized", outer, probe.outer_dim)
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
        # a k ≠ 0 solution rescales to k = 1. Each basis vector ends at its
        # free column, at 1, so only the last can hold k's column n, at k = 1
        if (basis := nullspace_basis(m)) and n in basis[-1]:
            return side, tuple(basis[-1].get(i, 0) for i in range(n)), 1
    return None


def _closed_rows(A: GDBialgebra, P):
    """The λ-degree 0 templates of the closed derivation system for
    d = Σ_{i≤3} ∂^i d^i, with every d^i of i > P set to 0 and the other
    unknowns indexed like the direct system at ∂-bound P. Its blocks are
    grouped by the ∂-order of their leading unknowns; at P = 1 only the
    ∂-order 1 and 0 blocks keep a summand.

    Each call to ``emit`` sums summands (c, s, i, u, f) standing for
    c·λ^s·f(d^i(u)): u is a sparse ((j, coeff), ...) element, and the
    linear map f sends a_r to the sparse element f[r] (ID: identity). The
    sum is one template {(output coordinate, λ-power): row}; a summand of
    i > P is 0 and skipped. d^i_k enters as λ^k·f(d^i_k(u)), so by the
    λ-shift and template-peel lemmas (``_direct_rows``) ``_solve`` peels
    and shifts the k = 0 rows."""
    n = A.dim
    idx = _unknown_indexer(n, P)
    circ, br, star = A.circ_terms, A.lie_terms, A.star_terms
    ID = [((r, 1),) for r in range(n)]

    def right(grid, b):  # X ↦ X·a_b
        return [grid[r][b] for r in range(n)]

    templates = []

    def emit(*summands):
        templates.append(eqs := {})
        for c, s, i, u, f in summands:
            if i > P:
                continue
            for j, uj in u:
                base = idx(j, i, 0, 0)  # + r: the coordinate is the last index
                for r in range(n):
                    for t, ft in f[r]:
                        eq = eqs.setdefault((t, s), {})
                        eq[base + r] = eq.get(base + r, 0) + c * uj * ft

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
    return templates


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
    return _solve(A, _closed_rows(A, P), P, D)


def spaces_agree(a: DerivationSpace, b: DerivationSpace):
    """Whether two derivation spaces of one algebra are equal; spaces of
    different algebras raise ValueError. Lemma: each basis is an RREF
    nullspace basis or a leading subset of one, so every element ends at
    its own free column, with a 1 there and a 0 at the other elements'
    free columns. Such a basis is unique for a column order, and
    ``_unknown_indexer`` orders the columns by (k, i, j, r) at any bounds,
    so two spaces are equal exactly when their bases are equal as sets."""
    if a.algebra != b.algebra:
        raise ValueError("derivation spaces of different algebras")
    return set(a.basis) == set(b.basis)
