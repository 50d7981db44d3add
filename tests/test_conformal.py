import random
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qlca import (DEL, LAM, MU, CocycleQuadruple, FormalPoly, QuadraticLCA,
                  bracket_basis, bracket_general, catalog_build,
                  check_gd_compat, check_jacobi, check_lie, check_novikov,
                  check_skew, gd_build, parse_algebra,
                  solve_extensions_theorem, verify_cocycle)
from qlca.conformal import expr_add, expr_is_zero, expr_sub

SNAPSHOT_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "snapshot_reports.py"


def D():
    return FormalPoly.sym(DEL)


def L():
    return FormalPoly.sym(LAM)


class TestGoldenBrackets:
    def test_vir(self):
        R = QuadraticLCA(catalog_build("vir"))
        (p,) = bracket_basis(R, 0, 0)
        assert p == D() + 2 * L()

    def test_r_alpha_beta(self):
        R = QuadraticLCA(catalog_build("r_alpha_beta", alpha=3, beta=1))
        lw = bracket_basis(R, 0, 1)
        assert lw[0].is_zero()
        assert lw[1] == D() + 3 * L() + 1
        ww = bracket_basis(R, 1, 1)
        assert all(p.is_zero() for p in ww)

    def test_vir_current(self):
        R = QuadraticLCA(catalog_build("vir_current", g="sl2"))
        names = R.gd.basis_names
        Li, e, f, h = (names.index(s) for s in ("L", "e", "f", "h"))
        le = bracket_basis(R, Li, e)
        assert le[e] == D() + L() and le[Li].is_zero()
        ef = bracket_basis(R, e, f)
        assert ef[h] == FormalPoly.const(1)
        he = bracket_basis(R, h, e)
        assert he[e] == FormalPoly.const(2)

    def test_loop_vir_cyclic(self):
        R = QuadraticLCA(catalog_build("loop_vir_cyclic", m=3))
        br = bracket_basis(R, 1, 2)  # lands on index (1+2) mod 3 = 0
        assert br[0] == -(D() + 2 * L())
        assert br[1].is_zero() and br[2].is_zero()

    def test_loop_hv_cyclic(self):
        R = QuadraticLCA(catalog_build("loop_hv_cyclic", m=2))
        lh = bracket_basis(R, 0, 2)  # [L0 λ H0] -> H0 channel
        assert lh[2] == D() + L()
        hh = bracket_basis(R, 2, 3)
        assert all(p.is_zero() for p in hh)


class TestBracketGeneral:
    def test_matches_basis_bracket(self):
        R = QuadraticLCA(catalog_build("vir"))
        out = bracket_general(R, R.basis_expr(0), R.basis_expr(0), L())
        assert out == bracket_basis(R, 0, 0)

    def test_sesquilinearity_in_first_slot(self):
        # [∂a λ b] = -λ [a λ b]
        R = QuadraticLCA(catalog_build("r_alpha_beta", alpha=3, beta=1))
        da = tuple(D() * p for p in R.basis_expr(0))
        lhs = bracket_general(R, da, R.basis_expr(1), L())
        base = bracket_general(R, R.basis_expr(0), R.basis_expr(1), L())
        assert lhs == tuple(-L() * p for p in base)

    def test_leibniz_in_second_slot(self):
        # [a λ ∂b] = (λ+∂)[a λ b]
        R = QuadraticLCA(catalog_build("vir"))
        db = tuple(D() * p for p in R.basis_expr(0))
        lhs = bracket_general(R, R.basis_expr(0), db, L())
        base = bracket_general(R, R.basis_expr(0), R.basis_expr(0), L())
        assert lhs == tuple((L() + D()) * p for p in base)

    def test_rejects_partial_in_slot(self):
        R = QuadraticLCA(catalog_build("vir"))
        with pytest.raises(ValueError):
            bracket_general(R, R.basis_expr(0), R.basis_expr(0), D())


class TestAxioms:
    def test_catalog_skew(self, catalog_algebra):
        assert check_skew(QuadraticLCA(catalog_algebra)) == []

    def test_catalog_jacobi(self, catalog_algebra):
        assert check_jacobi(QuadraticLCA(catalog_algebra)) == []

    def test_jacobi_detects_broken_structure(self):
        nov = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        nov[0][0][0] = Fraction(1)
        nov[0][1][1] = Fraction(1)  # L∘L = L, L∘W = W, W∘L = 0
        # breaks right-commutativity: (L∘L)∘W = W but (L∘W)∘L = 0
        lie = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        A = gd_build(2, ["L", "W"], nov, lie, validate=False)
        assert check_novikov(A)
        assert check_jacobi(QuadraticLCA(A))


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
    R = QuadraticLCA(A)
    return not (check_skew(R) or check_jacobi(R))


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
            assert check_skew(QuadraticLCA(A)) == []


def jacobi_through_bracket_general(R):
    """check_jacobi written as three general products per basis triple,
    the expansion the engine ran before it had one shared with
    verify_cocycle."""
    n = R.dim
    lam, mu = L(), FormalPoly.sym(MU)
    basis = [R.basis_expr(i) for i in range(n)]
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
            R = QuadraticLCA(gd_build(2, ["a", "b"], nov, lie, validate=False))
            expected = jacobi_through_bracket_general(R)
            assert check_jacobi(R) == expected
            seen_bad += bool(expected)
        assert seen_bad > 0

    @pytest.mark.parametrize("table", ["INVALID", "INCOMPATIBLE"])
    def test_invalid_snapshot_tables(self, table):
        text = runpy.run_path(str(SNAPSHOT_SCRIPT))[table]
        R = QuadraticLCA(parse_algebra(text, validate=False))
        expected = jacobi_through_bracket_general(R)
        assert expected
        assert check_jacobi(R) == expected


def test_checkers_run_without_the_general_product(catalog_entry, monkeypatch):
    """check_skew, check_jacobi and verify_cocycle read the slot tables
    and the shared Jacobi expansion: with bracket_general raising in every
    qlca namespace, they still run."""
    def general(*args, **kwargs):
        raise AssertionError("bracket_general was called")

    for name, module in list(sys.modules.items()):
        if name == "qlca" or name.startswith("qlca."):
            if hasattr(module, "bracket_general"):
                monkeypatch.setattr(module, "bracket_general", general)
    A = catalog_entry.build()
    R = QuadraticLCA(A)
    assert check_skew(R) == []
    assert check_jacobi(R) == []
    for q in solve_extensions_theorem(A).basis:
        assert verify_cocycle(A, q) == []
    assert verify_cocycle(A, CocycleQuadruple.single(A.dim, 0, 0, 0))
