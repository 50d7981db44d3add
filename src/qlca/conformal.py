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

    ``slot`` is a FormalPoly in λ and μ (typically λ, μ or λ+μ). Powers of
    ∂ in x become powers of -slot; powers of ∂ in y become powers of
    slot+∂ multiplying the basis bracket evaluated at the slot variable.
    Powers of λ/μ riding along in either argument are treated as plain
    scalars.
    """
    if not isinstance(slot, FormalPoly):
        raise ValueError("slot must be a FormalPoly")
    if not slot.uses_only((LAM, MU)):
        raise ValueError("slot expression may involve λ and μ only")
    n = R.dim
    d = FormalPoly.sym(DEL)
    out = list(R.zero_expr())
    bb = _slot_brackets(R, slot)
    neg_slot_pow = [FormalPoly.const(1)]
    slot_plus_d_pow = [FormalPoly.const(1)]

    def npow(cache, base, e):
        while len(cache) <= e:
            cache.append(cache[-1] * base)
        return cache[e]

    for a in range(n):
        xa = x[a]
        if xa.is_zero():
            continue
        for (exd, exl, exm), cx in xa.terms.items():
            xfactor = FormalPoly({(0, exl, exm): cx}) * npow(
                neg_slot_pow, -slot, exd
            )
            for b in range(n):
                yb = y[b]
                if yb.is_zero():
                    continue
                base = bb[a][b]
                for (eyd, eyl, eym), cy in yb.terms.items():
                    factor = (
                        xfactor
                        * FormalPoly({(0, eyl, eym): cy})
                        * npow(slot_plus_d_pow, slot + d, eyd)
                    )
                    for k in range(n):
                        if base[k].is_zero():
                            continue
                        out[k] = out[k] + factor * base[k]
    return tuple(out)


def check_skew(R):
    """Residuals of [a_i λ a_j] + ([a_j μ a_i] with μ := -λ-∂) over basis
    pairs; empty for every genuine quadratic Lie conformal algebra."""
    n = R.dim
    minus = -(FormalPoly.sym(LAM) + FormalPoly.sym(DEL))
    out = []
    for i in range(n):
        for j in range(n):
            lhs = bracket_basis(R, i, j)
            other = bracket_basis(R, j, i)
            sub = tuple(
                p.substitute(LAM, FormalPoly.sym(MU)).substitute(MU, minus)
                for p in other
            )
            residual = expr_add(lhs, sub)
            if not expr_is_zero(residual):
                out.append((i, j, residual))
    return out


def check_jacobi(R):
    """Residuals of the conformal Jacobi identity
    [a_i λ [a_j μ a_k]] - [[a_i λ a_j]_{λ+μ} a_k] - [a_j μ [a_i λ a_k]]
    over basis triples, as identities in V ⊗ Q[∂, λ, μ]."""
    n = R.dim
    lam = FormalPoly.sym(LAM)
    mu = FormalPoly.sym(MU)
    lam_mu = lam + mu
    basis = [R.basis_expr(i) for i in range(n)]
    br = [[bracket_basis(R, i, j) for j in range(n)] for i in range(n)]
    br_mu = _slot_brackets(R, mu)
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = bracket_general(R, basis[i], br_mu[j][k], lam)
                rhs1 = bracket_general(R, br[i][j], basis[k], lam_mu)
                rhs2 = bracket_general(R, basis[j], br[i][k], mu)
                residual = expr_sub(lhs, expr_add(rhs1, rhs2))
                if not expr_is_zero(residual):
                    out.append((i, j, k, residual))
    return out
