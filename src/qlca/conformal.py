"""The λ-bracket engine for quadratic Lie conformal algebras.

Elements of the free module C[∂]V (tensored with the formal variables λ, μ)
are coordinate vectors of ``FormalPoly``. The generating bracket on basis
elements is

    [a_λ b] = ∂(b∘a) + [b,a] + λ(a∗b),

and the axioms (skew-symmetry, Jacobi in two independent formal variables)
are verified as exact polynomial identities, so a passing check is a proof.
The bialgebra fixes the algebra, so every function takes the
``GDBialgebra``.
"""

from __future__ import annotations

from .poly import DEL, LAM, MU, FormalPoly


def bracket_basis(A, i, j):
    """[a_i λ a_j] = ∂(a_j∘a_i) + [a_j, a_i] + λ(a_i∗a_j), an expression
    in the symbols ∂ and λ only: entry [i][j] of the λ slot table, as a
    length-n tuple of FormalPoly."""
    n = A.dim
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"basis index out of range: ({i},{j})")
    coords = dict(_slot_brackets(A, FormalPoly.sym(LAM))[i][j])
    return tuple(coords.get(k, FormalPoly()) for k in range(n))


def _grid_table(A, d, slot):
    """[a_i λ a_j] = ∂(a_j∘a_i) + [a_j, a_i] + λ(a_i∗a_j) with ∂ ↦ d and
    λ ↦ slot, for every basis pair, read off the product grids: entry
    [i][j] holds only the nonzero coordinates, as sparse ((k, poly), ...)
    terms in k order. Built once per algebra object, d and slot."""
    key = ("grid_table", frozenset(d.terms.items()),
           frozenset(slot.terms.items()))
    derived = A.derived
    if key not in derived:
        def entry(i, j):
            coords = {}
            for var, terms in ((d.terms, A.circ_terms[j][i]),
                               ({(0, 0, 0): 1}, A.lie_terms[j][i]),
                               (slot.terms, A.star_terms[i][j])):
                for k, c in terms:
                    t = coords.setdefault(k, {})
                    for e, v in var.items():
                        t[e] = t.get(e, 0) + v * c
            return tuple((k, p) for k, t in sorted(coords.items())
                         if (p := FormalPoly(t)))

        n = A.dim
        derived[key] = [[entry(i, j) for j in range(n)] for i in range(n)]
    return derived[key]


def _slot_brackets(A, slot):
    """[a_i slot a_j] for every basis pair: the ``_grid_table`` that keeps
    ∂ and puts ``slot`` for λ, built once per algebra object and slot."""
    return _grid_table(A, FormalPoly.sym(DEL), slot)


def bracket_general(A, x, y, slot):
    """[x_slot y] by bilinearity and sesquilinearity.

    ``slot`` is a FormalPoly in λ and μ (typically λ, μ or λ+μ). ∂ in x
    becomes -slot and ∂ in y becomes slot+∂, multiplying the basis
    bracket evaluated at the slot variable. Powers of λ/μ riding along in
    either argument are treated as plain scalars.
    """
    if not isinstance(slot, FormalPoly):
        raise ValueError("slot must be a FormalPoly")
    if any(e[DEL] for e in slot.terms):
        raise ValueError("slot expression may involve λ and μ only")
    xs = [p.substitute(DEL, -slot) for p in x]
    ys = [p.substitute(DEL, slot + FormalPoly.sym(DEL)) for p in y]
    bb = _slot_brackets(A, slot)
    out = [FormalPoly()] * A.dim
    for a, xa in enumerate(xs):
        for b, yb in enumerate(ys):
            if xa and yb:
                c = xa * yb
                for k, p in bb[a][b]:
                    out[k] = out[k] + c * p
    return tuple(out)


def check_skew(A):
    """Residuals of [a_i λ a_j] + ([a_j μ a_i] with μ := -λ-∂) over basis
    pairs; empty for every genuine quadratic Lie conformal algebra."""
    n = A.dim
    lam = FormalPoly.sym(LAM)
    at_lam = _slot_brackets(A, lam)
    at_minus = _slot_brackets(A, -(lam + FormalPoly.sym(DEL)))
    out = []
    for i in range(n):
        for j in range(n):
            r = {}
            for k, p in at_lam[i][j] + at_minus[j][i]:
                r[k] = r.get(k, FormalPoly()) + p
            if any(r.values()):
                out.append((i, j, tuple(r.get(k, FormalPoly())
                                        for k in range(n))))
    return out


def _jacobi_tables(A):
    """The three inner brackets of the Jacobi identity with their ∂ moved
    out by sesquilinearity: [a_j μ a_k] as second argument at slot λ
    (∂ → λ+∂), [a_i λ a_j] as first argument at slot λ+μ (∂ → -λ-μ) and
    [a_i λ a_k] as second argument at slot μ (∂ → μ+∂). Each is one
    ``_grid_table``; no slot holds ∂, so substituting ∂ and λ at once
    equals putting in the slot first and moving ∂ after."""
    d, lam, mu = (FormalPoly.sym(s) for s in (DEL, LAM, MU))
    return (_grid_table(A, lam + d, mu), _grid_table(A, -(lam + mu), lam),
            _grid_table(A, mu + d, lam))


def _jacobi_residuals(A, acting, at_sum, at_mu, width):
    """The Jacobi identity [a_i λ [a_j μ a_k]] - [[a_i λ a_j]_{λ+μ} a_k]
    - [a_j μ [a_i λ a_k]] over triples (i, j, k), with a_i given by its
    ``acting`` tables (at_lam, outer, right), i < len(at_lam): at_lam[i][x]
    stands for [a_i λ a_x], outer[i][j] and right[i][k] for [a_i λ a_j]
    and [a_i λ a_k] with ∂ moved out as in ``_jacobi_tables``. at_sum[x][k]
    stands for [a_x λ+μ a_k] and at_mu[j][x] for [a_j μ a_x]. The algebra's
    own tables make this its Jacobi identity; the images of a map d_λ as
    the acting tables make it the Leibniz identity of d_λ. Entries are
    sparse ((coordinate, poly), ...) terms, those of at_lam, at_sum and
    at_mu with coordinates in [0, width). Each triple is summed into one
    {(coordinate, e∂, eλ, eμ): coeff} dict, and only a nonzero sum becomes
    a width-long tuple of FormalPoly. Returns the nonzero
    (i, j, k, residual) in triple order."""
    at_lam, outer, right = acting
    inner = _jacobi_tables(A)[0]
    n = A.dim
    sum_by_col = list(zip(*at_sum))  # sum_by_col[k][x] = at_sum[x][k]
    out = []
    for i in range(len(at_lam)):
        for j in range(n):
            for k in range(n):
                r = {}
                for sign, pairs, row in ((1, inner[j][k], at_lam[i]),
                                         (-1, outer[i][j], sum_by_col[k]),
                                         (-1, right[i][k], at_mu[j])):
                    for x, c in pairs:
                        for (a1, b1, c1), v1 in c.terms.items():
                            v1 *= sign
                            for coord, p in row[x]:
                                for (a2, b2, c2), v2 in p.terms.items():
                                    key = (coord, a1 + a2, b1 + b2, c1 + c2)
                                    r[key] = r.get(key, 0) + v1 * v2
                if any(r.values()):
                    coords = [{} for _ in range(width)]
                    for key, v in r.items():
                        coords[key[0]][key[1:]] = v
                    out.append((i, j, k, tuple(map(FormalPoly, coords))))
    return out


def check_jacobi(A):
    """Residuals of the conformal Jacobi identity
    [a_i λ [a_j μ a_k]] - [[a_i λ a_j]_{λ+μ} a_k] - [a_j μ [a_i λ a_k]]
    over basis triples, as identities in V ⊗ Q[∂, λ, μ]."""
    lam, mu = FormalPoly.sym(LAM), FormalPoly.sym(MU)
    _, outer, right = _jacobi_tables(A)
    return _jacobi_residuals(A, (_slot_brackets(A, lam), outer, right),
                             _slot_brackets(A, lam + mu),
                             _slot_brackets(A, mu), A.dim)
