"""The λ-bracket engine for quadratic Lie conformal algebras.

Elements of the free module C[∂]V (tensored with the formal variables λ, μ)
are coordinate vectors of ``FormalPoly``. The generating bracket on basis
elements is

    [a_λ b] = ∂(b∘a) + [b,a] + λ(a∗b),

and the axioms (skew-symmetry, Jacobi in two independent formal variables)
are verified as exact polynomial identities, so a passing check is a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gd import GDBialgebra
from .poly import DEL, LAM, MU, FormalPoly

ConformalExpr = tuple  # length-n tuple of FormalPoly


@dataclass(frozen=True)
class QuadraticLCA:
    """Quadratic Lie conformal algebra generated by a GD bialgebra."""

    gd: GDBialgebra

    @property
    def dim(self):
        return self.gd.dim

    def zero_expr(self):
        return tuple(FormalPoly.zero() for _ in range(self.dim))

    def basis_expr(self, i):
        return tuple(
            FormalPoly.const(1) if j == i else FormalPoly.zero()
            for j in range(self.dim)
        )


def expr_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def expr_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def expr_is_zero(x):
    return all(p.is_zero() for p in x)


def bracket_basis(R, i, j):
    """[a_i λ a_j] = ∂(a_j∘a_i) + [a_j, a_i] + λ(a_i∗a_j), an expression
    in the symbols ∂ and λ only, read off the structure tables."""
    gd = R.gd
    n = gd.dim
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"basis index out of range: ({i},{j})")
    coords = [{} for _ in range(n)]
    for mono, terms in (((1, 0, 0), gd.circ_terms[j][i]),
                        ((0, 0, 0), gd.lie_terms[j][i]),
                        ((0, 1, 0), gd.star_terms[i][j])):
        for k, c in terms:
            coords[k][mono] = c
    return tuple(FormalPoly(t) for t in coords)


def _slot_brackets(R, slot):
    """[a_i slot a_j] for every basis pair, built once per algebra object
    and slot."""
    key = ("slot_brackets", frozenset(slot.terms.items()))
    derived = R.gd.derived
    if key not in derived:
        n = R.dim
        derived[key] = [[tuple(p.substitute(LAM, slot)
                               for p in bracket_basis(R, a, b))
                         for b in range(n)] for a in range(n)]
    return derived[key]


def bracket_general(R, x, y, slot):
    """[x_slot y] by bilinearity and sesquilinearity.

    ``slot`` is a FormalPoly in λ and μ (typically λ, μ or λ+μ). ∂ in x
    becomes -slot and ∂ in y becomes slot+∂, multiplying the basis
    bracket evaluated at the slot variable. Powers of λ/μ riding along in
    either argument are treated as plain scalars.
    """
    if not isinstance(slot, FormalPoly):
        raise ValueError("slot must be a FormalPoly")
    if not slot.uses_only((LAM, MU)):
        raise ValueError("slot expression may involve λ and μ only")
    xs = [p.substitute(DEL, -slot) for p in x]
    ys = [p.substitute(DEL, slot + FormalPoly.sym(DEL)) for p in y]
    bb = _slot_brackets(R, slot)
    out = list(R.zero_expr())
    for a, xa in enumerate(xs):
        for b, yb in enumerate(ys):
            if xa and yb:
                _accumulate(out, xa * yb, bb[a][b])
    return tuple(out)


def _accumulate(out, c, expr):
    """out += c·expr, coordinate by coordinate."""
    for k, p in enumerate(expr):
        if p:
            out[k] = out[k] + c * p


def check_skew(R):
    """Residuals of [a_i λ a_j] + ([a_j μ a_i] with μ := -λ-∂) over basis
    pairs; empty for every genuine quadratic Lie conformal algebra."""
    n = R.dim
    lam = FormalPoly.sym(LAM)
    at_lam = _slot_brackets(R, lam)
    at_minus = _slot_brackets(R, -(lam + FormalPoly.sym(DEL)))
    out = []
    for i in range(n):
        for j in range(n):
            residual = expr_add(at_lam[i][j], at_minus[j][i])
            if not expr_is_zero(residual):
                out.append((i, j, residual))
    return out


def _jacobi_tables(R):
    """The three inner brackets of the Jacobi identity with their ∂ moved
    out by sesquilinearity, as sparse ((x, coefficient), ...) coordinates:
    [a_j μ a_k] as second argument at slot λ (∂ → λ+∂), [a_i λ a_j] as
    first argument at slot λ+μ (∂ → -λ-μ) and [a_i λ a_k] as second
    argument at slot μ (∂ → μ+∂). Built once per algebra object."""
    derived = R.gd.derived
    if "jacobi_tables" not in derived:
        d, lam, mu = (FormalPoly.sym(s) for s in (DEL, LAM, MU))

        def moved(slot, d_to):
            return [[tuple((x, c) for x, p in enumerate(e)
                           if (c := p.substitute(DEL, d_to)))
                     for e in row] for row in _slot_brackets(R, slot)]

        derived["jacobi_tables"] = (moved(mu, lam + d), moved(lam, -(lam + mu)),
                                    moved(lam, mu + d))
    return derived["jacobi_tables"]


def _jacobi_residuals(R, at_lam, at_sum, at_mu):
    """The Jacobi identity [a_i λ [a_j μ a_k]] - [[a_i λ a_j]_{λ+μ} a_k]
    - [a_j μ [a_i λ a_k]] over basis triples, for outer brackets given as
    tables of equal-length tuples of FormalPoly: at_lam[i][x] stands for
    [a_i λ a_x], at_sum[x][k] for [a_x λ+μ a_k] and at_mu[j][x] for
    [a_j μ a_x]. Returns the nonzero (i, j, k, residual) in triple order."""
    inner, outer, right = _jacobi_tables(R)
    n = R.dim
    width = len(at_lam[0][0])
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = [FormalPoly.zero()] * width
                for x, c in inner[j][k]:
                    _accumulate(r, c, at_lam[i][x])
                for x, c in outer[i][j]:
                    _accumulate(r, -c, at_sum[x][k])
                for x, c in right[i][k]:
                    _accumulate(r, -c, at_mu[j][x])
                if any(r):
                    out.append((i, j, k, tuple(r)))
    return out


def check_jacobi(R):
    """Residuals of the conformal Jacobi identity
    [a_i λ [a_j μ a_k]] - [[a_i λ a_j]_{λ+μ} a_k] - [a_j μ [a_i λ a_k]]
    over basis triples, as identities in V ⊗ Q[∂, λ, μ]."""
    lam, mu = FormalPoly.sym(LAM), FormalPoly.sym(MU)
    return _jacobi_residuals(R, _slot_brackets(R, lam),
                             _slot_brackets(R, lam + mu), _slot_brackets(R, mu))
