import random
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlca import (DEL, LAM, MU, CocycleQuadruple, FormalPoly, GDBialgebra,
                  bracket_basis, bracket_general, catalog_build,
                  check_gd_compat, check_jacobi, check_lie, check_novikov,
                  check_skew, gd_build, inner_derivation, parse_algebra,
                  solve_derivations_direct, solve_extensions_theorem,
                  verify_cocycle, verify_derivation)
from qlca.conformal import _grid_table, _jacobi_tables, _slot_brackets
from qlca.gd import _grid
from test_catalog import _integral_algebras

SNAPSHOT_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "snapshot_reports.py"


# Elements of C[∂]V as length-n tuples of FormalPoly, for the routes
# through bracket_general that the engine is checked against.


def basis_expr(n, i):
    """a_i as a length-n tuple of FormalPoly."""
    return tuple(FormalPoly.const(int(j == i)) for j in range(n))


def expr_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def expr_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def expr_is_zero(x):
    return all(not p for p in x)


def D():
    return FormalPoly.sym(DEL)


def L():
    return FormalPoly.sym(LAM)


class TestGoldenBrackets:
    def test_vir(self):
        R = catalog_build("vir")
        (p,) = bracket_basis(R, 0, 0)
        assert p == D() + 2 * L()

    def test_r_alpha_beta(self):
        R = catalog_build("r_alpha_beta", alpha=3, beta=1)
        lw = bracket_basis(R, 0, 1)
        assert not lw[0]
        assert lw[1] == D() + 3 * L() + 1
        ww = bracket_basis(R, 1, 1)
        assert all(not p for p in ww)

    def test_vir_current(self):
        R = catalog_build("vir_current", g="sl2")
        names = R.basis_names
        Li, e, f, h = (names.index(s) for s in ("L", "e", "f", "h"))
        le = bracket_basis(R, Li, e)
        assert le[e] == D() + L() and not le[Li]
        ef = bracket_basis(R, e, f)
        assert ef[h] == FormalPoly.const(1)
        he = bracket_basis(R, h, e)
        assert he[e] == FormalPoly.const(2)

    def test_loop_vir_cyclic(self):
        R = catalog_build("loop_vir_cyclic", m=3)
        br = bracket_basis(R, 1, 2)  # lands on index (1+2) mod 3 = 0
        assert br[0] == -(D() + 2 * L())
        assert not br[1] and not br[2]

    def test_loop_hv_cyclic(self):
        R = catalog_build("loop_hv_cyclic", m=2)
        lh = bracket_basis(R, 0, 2)  # [L0 λ H0] -> H0 channel
        assert lh[2] == D() + L()
        hh = bracket_basis(R, 2, 3)
        assert all(not p for p in hh)


class TestBracketGeneral:
    def test_matches_basis_bracket(self):
        R = catalog_build("vir")
        out = bracket_general(R, basis_expr(R.dim, 0), basis_expr(R.dim, 0), L())
        assert out == bracket_basis(R, 0, 0)

    def test_sesquilinearity_in_first_slot(self):
        # [∂a λ b] = -λ [a λ b]
        R = catalog_build("r_alpha_beta", alpha=3, beta=1)
        da = tuple(D() * p for p in basis_expr(R.dim, 0))
        lhs = bracket_general(R, da, basis_expr(R.dim, 1), L())
        base = bracket_general(R, basis_expr(R.dim, 0), basis_expr(R.dim, 1),
                               L())
        assert lhs == tuple(-L() * p for p in base)

    def test_leibniz_in_second_slot(self):
        # [a λ ∂b] = (λ+∂)[a λ b]
        R = catalog_build("vir")
        db = tuple(D() * p for p in basis_expr(R.dim, 0))
        lhs = bracket_general(R, basis_expr(R.dim, 0), db, L())
        base = bracket_general(R, basis_expr(R.dim, 0), basis_expr(R.dim, 0),
                               L())
        assert lhs == tuple((L() + D()) * p for p in base)

    def test_rejects_partial_in_slot(self):
        R = catalog_build("vir")
        a = basis_expr(R.dim, 0)
        for slot in (D(), L() + D(), FormalPoly.sym(MU) * D()):
            with pytest.raises(ValueError, match="λ and μ only"):
                bracket_general(R, a, a, slot)

    def test_rejects_a_slot_that_is_not_a_formal_poly(self):
        R = catalog_build("vir")
        a = basis_expr(R.dim, 0)
        for slot in (LAM, 1):
            with pytest.raises(ValueError, match="slot must be a FormalPoly"):
                bracket_general(R, a, a, slot)

    def test_basis_index_out_of_range(self):
        R = catalog_build("vir")
        for i, j in ((R.dim, 0), (0, R.dim), (-1, 0)):
            with pytest.raises(IndexError, match="basis index out of range"):
                bracket_basis(R, i, j)


class TestAxioms:
    def test_catalog_skew(self, catalog_algebra):
        assert check_skew(catalog_algebra) == []

    def test_catalog_jacobi(self, catalog_algebra):
        assert check_jacobi(catalog_algebra) == []

    def test_jacobi_detects_broken_structure(self):
        nov = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        nov[0][0][0] = Fraction(1)
        nov[0][1][1] = Fraction(1)  # L∘L = L, L∘W = W, W∘L = 0
        # breaks right-commutativity: (L∘L)∘W = W but (L∘W)∘L = 0
        lie = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        A = gd_build(2, ["L", "W"], nov, lie, validate=False)
        assert check_novikov(A)
        assert check_jacobi(A)


def random_dim2_tables(rng, sparsity=0.7):
    """Random rational tables; sparse by default so that both valid and
    invalid bialgebras occur with useful frequency."""
    def draw():
        return Fraction(0 if rng.random() < sparsity else rng.randint(-2, 2))

    nov = [[[draw() for _ in range(2)] for _ in range(2)] for _ in range(2)]
    lie = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    for k in range(2):
        c = draw()
        lie[0][1][k] = c
        lie[1][0][k] = -c
    return nov, lie


def gd_verdict(A):
    return not (check_novikov(A) or check_lie(A) or check_gd_compat(A))


def conformal_verdict(A):
    return not (check_skew(A) or check_jacobi(A))


class TestEquivalence:
    def test_random_tables_gd_iff_conformal(self):
        """The generating-bracket axioms hold exactly when the bialgebra
        axioms do — both directions, on random rational tables."""
        rng = random.Random(20260823)
        seen_good = seen_bad = 0
        for _ in range(200):
            nov, lie = random_dim2_tables(rng)
            A = gd_build(2, ["a", "b"], nov, lie, validate=False)
            g, c = gd_verdict(A), conformal_verdict(A)
            assert g == c
            seen_good += g
            seen_bad += not g
        # the sample must exercise both directions of the equivalence
        assert seen_good > 0 and seen_bad > 0

    def test_skew_holds_for_any_antisymmetric_table(self):
        rng = random.Random(5)
        for _ in range(50):
            nov, lie = random_dim2_tables(rng)
            A = gd_build(2, ["a", "b"], nov, lie, validate=False)
            assert check_skew(A) == []


def jacobi_through_bracket_general(R):
    """check_jacobi written as three general products per basis triple,
    the expansion the engine ran before it had one shared with
    verify_cocycle."""
    n = R.dim
    lam, mu = L(), FormalPoly.sym(MU)
    basis = [basis_expr(n, i) for i in range(n)]
    br = [[bracket_basis(R, i, j) for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                br_mu = bracket_general(R, basis[j], basis[k], mu)
                lhs = bracket_general(R, basis[i], br_mu, lam)
                rhs1 = bracket_general(R, br[i][j], basis[k], lam + mu)
                rhs2 = bracket_general(R, basis[j], br[i][k], mu)
                residual = expr_sub(lhs, expr_add(rhs1, rhs2))
                if not expr_is_zero(residual):
                    out.append((i, j, k, residual))
    return out


class TestOneJacobiExpansion:
    """check_jacobi reads the shared expansion; its residual list must be
    the one the general product gives, entry for entry and in order."""

    def test_random_tables(self):
        rng = random.Random(20260823)  # the tables of TestEquivalence
        seen_bad = 0
        for _ in range(200):
            nov, lie = random_dim2_tables(rng)
            R = gd_build(2, ["a", "b"], nov, lie, validate=False)
            expected = jacobi_through_bracket_general(R)
            assert check_jacobi(R) == expected
            seen_bad += bool(expected)
        assert seen_bad > 0

    @pytest.mark.parametrize("table", ["INVALID", "INCOMPATIBLE"])
    def test_invalid_snapshot_tables(self, table):
        text = runpy.run_path(str(SNAPSHOT_SCRIPT))[table]
        R = parse_algebra(text, validate=False)
        expected = jacobi_through_bracket_general(R)
        assert expected
        assert check_jacobi(R) == expected


def test_checkers_run_without_the_general_product(catalog_entry, monkeypatch):
    """check_skew, check_jacobi, verify_cocycle and verify_derivation read
    the slot tables and the shared Jacobi expansion: with bracket_general
    raising in every qlca namespace, they still run."""
    def general(*args, **kwargs):
        raise AssertionError("bracket_general was called")

    for name, module in list(sys.modules.items()):
        if name == "qlca" or name.startswith("qlca."):
            if hasattr(module, "bracket_general"):
                monkeypatch.setattr(module, "bracket_general", general)
    A = catalog_entry.build()
    assert check_skew(A) == []
    assert check_jacobi(A) == []
    for q in solve_extensions_theorem(A).basis:
        assert verify_cocycle(A, q) == []
    assert verify_cocycle(A, CocycleQuadruple.single(A.dim, 0, 0, 0))
    for v in range(A.dim):
        assert verify_derivation(A, inner_derivation(A, v, 1)) == []
    for d in solve_derivations_direct(A, 1, 1).basis:
        assert verify_derivation(A, d) == []


# -- the engine against a copy of its earlier dense route ----------------
# The route the engine took before its tables were built from the product
# grids: the dense n-tuple [a_i λ a_j] read off the structure tables, λ put
# in for the slot and then ∂ moved by a second substitution, and residuals
# summed as n-tuples of FormalPoly. Kept here, written against the dense
# products of basis vectors, as the oracle of the sparse tables and the
# one-dict residuals.

def dense_bracket(A, i, j):
    """[a_i λ a_j] = ∂(a_j∘a_i) + [a_j, a_i] + λ(a_i∗a_j) as an n-tuple."""
    a_i, a_j = (tuple(int(k == m) for k in range(A.dim)) for m in (i, j))
    ji, ij, lie = A.circ(a_j, a_i), A.circ(a_i, a_j), A.bracket(a_j, a_i)
    return tuple(FormalPoly({(1, 0, 0): ji[k], (0, 0, 0): lie[k],
                             (0, 1, 0): ij[k] + ji[k]})
                 for k in range(A.dim))


def dense_table(A, slot, d_to=None):
    """λ ↦ slot, then (if given) ∂ ↦ d_to, one substitution after the
    other, on every dense basis bracket."""
    n = A.dim
    table = [[tuple(p.substitute(LAM, slot) for p in dense_bracket(A, a, b))
              for b in range(n)] for a in range(n)]
    if d_to is not None:
        table = [[tuple(p.substitute(DEL, d_to) for p in e) for e in row]
                 for row in table]
    return table


def dense_accumulate(out, c, expr):
    for k, p in enumerate(expr):
        if p:
            out[k] = out[k] + c * p


def dense_skew(A):
    n = A.dim
    at_lam, at_minus = dense_table(A, L()), dense_table(A, -(L() + D()))
    return [(i, j, r) for i in range(n) for j in range(n)
            if not expr_is_zero(r := expr_add(at_lam[i][j], at_minus[j][i]))]


def dense_jacobi_tables(A):
    lam, mu = L(), FormalPoly.sym(MU)
    return (dense_table(A, mu, lam + D()), dense_table(A, lam, -(lam + mu)),
            dense_table(A, lam, mu + D()))


def dense_jacobi(A, at_lam, at_sum, at_mu, width):
    inner, outer, right = dense_jacobi_tables(A)
    n = A.dim
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = [FormalPoly()] * width
                for x, c in enumerate(inner[j][k]):
                    dense_accumulate(r, c, at_lam[i][x])
                for x, c in enumerate(outer[i][j]):
                    dense_accumulate(r, -c, at_sum[x][k])
                for x, c in enumerate(right[i][k]):
                    dense_accumulate(r, -c, at_mu[j][x])
                if any(r):
                    out.append((i, j, k, tuple(r)))
    return out


def dense_check_jacobi(A):
    lam, mu = L(), FormalPoly.sym(MU)
    return dense_jacobi(A, dense_table(A, lam), dense_table(A, lam + mu),
                        dense_table(A, mu), A.dim)


def dense_general(A, x, y, slot):
    xs = [p.substitute(DEL, -slot) for p in x]
    ys = [p.substitute(DEL, slot + D()) for p in y]
    bb = dense_table(A, slot)
    out = [FormalPoly()] * A.dim
    for a, xa in enumerate(xs):
        for b, yb in enumerate(ys):
            if xa and yb:
                dense_accumulate(out, xa * yb, bb[a][b])
    return tuple(out)


def dense_verify_cocycle(A, q):
    n = A.dim
    lam, mu = L(), FormalPoly.sym(MU)

    def forms_at(slot):
        return [[(q.lambda_poly(a, b).substitute(LAM, slot),)
                 for b in range(n)] for a in range(n)]

    at_lam, at_neg = forms_at(lam), forms_at(-lam)
    out = [("skew", i, j, r) for i in range(n) for j in range(n)
           if (r := at_lam[i][j][0] + at_neg[j][i][0])]
    for a, b, c, (r,) in dense_jacobi(A, at_lam, forms_at(lam + mu),
                                      forms_at(mu), 1):
        if r := r.substitute(DEL, 0):
            out.append(("jacobi", a, b, c, r))
    return out


def as_dense(entry, n):
    coords = dict(entry)
    return tuple(coords.get(k, FormalPoly()) for k in range(n))


def assert_engine_matches_dense_route(A):
    n = A.dim
    lam, mu = L(), FormalPoly.sym(MU)
    for slot in (lam, lam + mu, mu, -(lam + D())):
        table = _slot_brackets(A, slot)
        for a, (row, dense_row) in enumerate(zip(table, dense_table(A, slot))):
            for b, (entry, dense_entry) in enumerate(zip(row, dense_row)):
                # sparse: the nonzero coordinates only, in coordinate order
                assert [k for k, _ in entry] == [k for k, p in
                                                 enumerate(dense_entry) if p]
                assert as_dense(entry, n) == dense_entry, (slot, a, b)
    for table, dense in zip(_jacobi_tables(A), dense_jacobi_tables(A)):
        assert [[as_dense(e, n) for e in row] for row in table] == dense
    assert check_skew(A) == dense_skew(A)
    assert check_jacobi(A) == dense_check_jacobi(A)
    x = tuple(FormalPoly.const(k + 1) + k * D() for k in range(n))
    y = tuple(FormalPoly.const(1) - k * D() * D() + mu for k in range(n))
    for slot in (lam, mu, lam + mu):
        assert bracket_general(A, x, y, slot) == dense_general(A, x, y, slot)
    for a in range(n):
        for b in range(n):
            assert (bracket_general(A, basis_expr(n, a), basis_expr(n, b), lam)
                    == dense_general(A, basis_expr(n, a), basis_expr(n, b), lam)
                    == bracket_basis(A, a, b))
    for k in range(4):
        for i in range(n):
            for j in range(i, n):
                q = CocycleQuadruple.single(n, k, i, j)
                assert verify_cocycle(A, q) == dense_verify_cocycle(A, q)


class TestEngineAgainstDenseRoute:
    """Every slot table, every Jacobi table, check_skew, check_jacobi,
    bracket_general and verify_cocycle on single entries give exactly what
    the earlier dense route gives."""

    @pytest.mark.parametrize("build", _integral_algebras())
    def test_valid_algebras(self, build):
        assert_engine_matches_dense_route(build())

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_invalid_tables(self, data):
        """Random tables, most of them breaking the axioms. The Lie table
        is drawn without antisymmetry and the algebra is made directly,
        past gd_build, so that check_skew meets nonzero residuals too."""
        n = data.draw(st.integers(1, 3))
        scalar = st.one_of(st.just(0), st.just(0), st.integers(-2, 2),
                           st.fractions(-2, 2, max_denominator=3))
        table = st.lists(st.lists(st.lists(scalar, min_size=n, max_size=n),
                                  min_size=n, max_size=n),
                         min_size=n, max_size=n)
        nov, lie = (tuple(tuple(tuple(map(Fraction, cell)) for cell in row)
                          for row in data.draw(table)) for _ in range(2))
        A = GDBialgebra(n, tuple(f"a{i}" for i in range(n)), _grid(nov), _grid(lie))
        assert_engine_matches_dense_route(A)

    def test_snapshot_tables_break_both_checks(self):
        """The invalid snapshot tables reach nonzero Jacobi residuals that
        mix ∂, λ and μ; a table with an asymmetric Lie part breaks skew."""
        for name in ("INVALID", "INCOMPATIBLE"):
            text = runpy.run_path(str(SNAPSHOT_SCRIPT))[name]
            A = parse_algebra(text, validate=False)
            assert dense_check_jacobi(A)
            assert_engine_matches_dense_route(A)
        lie = ((((Fraction(1),),),))
        A = GDBialgebra(1, ("a",), _grid(((((Fraction(0),),),))), _grid(lie))
        assert dense_skew(A) and check_skew(A) == dense_skew(A)


def test_simultaneous_substitution_is_the_two_step_route():
    """A table is built by putting d for ∂ and slot for λ at once; the
    earlier route put in the slot first and moved ∂ after. The two agree
    whenever the slot holds no ∂, since the second step then meets only
    the ∂ of the bracket itself, and no Jacobi slot (μ, λ, λ) holds one.
    A slot holding ∂ (here -λ-∂, the skew slot) makes them differ, which
    is why the skew table keeps d = ∂."""
    A = catalog_build("vir")  # [L λ L] = ∂ + 2λ
    lam, mu = L(), FormalPoly.sym(MU)
    for d, slot in ((lam + D(), mu), (-(lam + mu), lam), (mu + D(), lam)):
        ((_, p),) = _grid_table(A, d, slot)[0][0]
        assert p == dense_table(A, slot, d)[0][0][0] == d + 2 * slot
    d, slot = mu + D(), -(lam + D())
    ((_, p),) = _grid_table(A, d, slot)[0][0]
    assert p == d + 2 * slot != dense_table(A, slot, d)[0][0][0]
