from fractions import Fraction

import pytest

from qlca import (LAM, MU, CocycleQuadruple, FormalPoly, catalog_build,
                  entry_label, solve_extensions_direct,
                  solve_extensions_theorem, span_rank, spans_equal,
                  standard_entries, verify_cocycle)

# dimensions established by both independent solvers and hand checks
DERIVED_DIMENSIONS = {
    "vir": 2,
    "current:g=sl2": 4,
    "current:g=abelian,n=2": 8,
    "vir_current:g=sl2": 6,
    "r_alpha_beta:alpha=3,beta=1": 3,
    "r_alpha_beta:alpha=0,beta=0": 4,
    "r_alpha_beta:alpha=0,beta=1": 3,
    "r_alpha_beta:alpha=1,beta=0": 5,
    "r_alpha_beta:alpha=1,beta=1": 3,
    "r_alpha_beta:alpha=2,beta=0": 4,
    "loop_vir_cyclic:m=3": 6,
    "loop_vir_cyclic:m=4": 8,
    "loop_hv_cyclic:m=2": 10,
    "loop_hv_cyclic:m=3": 15,
}


class TestQuadruple:
    def test_single_symmetrizes_with_parity(self):
        q = CocycleQuadruple.single(2, 1, 0, 1)
        assert q.alpha[1][0][1] == 1 and q.alpha[1][1][0] == 1  # odd k: symmetric
        q = CocycleQuadruple.single(2, 2, 0, 1)
        assert q.alpha[2][0][1] == 1 and q.alpha[2][1][0] == -1  # even k: antisym

    def test_vector_round_trip(self):
        q = CocycleQuadruple.single(2, 3, 0, 0, Fraction(5, 2))
        assert CocycleQuadruple.from_vector(2, q.as_vector()) == q

    def test_lambda_poly(self):
        q = CocycleQuadruple.single(1, 3, 0, 0)
        assert str(q.lambda_poly(0, 0)) == "λ^3"


class TestSolvers:
    def test_dimensions_agree_with_derived_values(self, catalog_entry):
        A = catalog_entry.build()
        thm = solve_extensions_theorem(A)
        assert thm.dimension == DERIVED_DIMENSIONS[entry_label(catalog_entry)]

    def test_methods_give_equal_subspaces(self, catalog_entry):
        A = catalog_entry.build()
        thm = solve_extensions_theorem(A)
        direct = solve_extensions_direct(A, degree_bound=6)
        assert thm.dimension == direct.dimension
        assert spans_equal(
            [q.as_vector() for q in thm.basis],
            [q.as_vector() for q in direct.basis],
        )

    def test_every_basis_cocycle_verifies(self, catalog_entry):
        A = catalog_entry.build()
        for q in solve_extensions_theorem(A).basis:
            assert verify_cocycle(A, q) == []

    def test_verifier_rejects_non_cocycle(self):
        A = catalog_build("vir")
        q = CocycleQuadruple.single(1, 2, 0, 0, symmetrize=False)
        assert verify_cocycle(A, q)  # even form on the diagonal breaks skew

    def test_vir_basis_exact(self):
        A = catalog_build("vir")
        sp = solve_extensions_theorem(A)
        assert sp.dimension == 2
        vecs = sorted(q.as_vector() for q in sp.basis)
        assert vecs == sorted(
            [
                CocycleQuadruple.single(1, 1, 0, 0).as_vector(),
                CocycleQuadruple.single(1, 3, 0, 0).as_vector(),
            ]
        )
        assert sp.per_degree == (0, 1, 0, 1)

    def test_current_sl2_profile(self):
        sp = solve_extensions_direct(catalog_build("current", g="sl2"))
        assert sp.dimension == 4
        assert sp.per_degree[:2] == (3, 1)
        assert all(d == 0 for d in sp.per_degree[2:])
        assert sp.stable

    def test_abelian_unbounded_warning(self):
        sp = solve_extensions_direct(catalog_build("current", g="abelian", n=2))
        assert not sp.stable
        assert any("unbounded" in w for w in sp.warnings)
        # the λ-degree ≤ 3 slice is still well-defined
        assert sp.dimension == 8

    def test_loop_vir_profile(self):
        for m in (3, 4):
            sp = solve_extensions_theorem(catalog_build("loop_vir_cyclic", m=m))
            assert sp.dimension == 2 * m
            assert sp.per_degree == (0, m, 0, m)

    def test_loop_hv_profile(self):
        for m in (2, 3):
            sp = solve_extensions_theorem(catalog_build("loop_hv_cyclic", m=m))
            assert sp.dimension == 5 * m
            assert sp.per_degree == (0, 3 * m, m, m)

    def test_r20_alpha1_ww_is_forced_to_zero(self):
        """Degree-1 diagonal form on W is constrained when L∘W = W: the
        candidate with α₁(W,W) ≠ 0 fails the functional equation."""
        A = catalog_build("r_alpha_beta", alpha=2, beta=0)
        q = CocycleQuadruple.single(2, 1, 1, 1)
        bad = verify_cocycle(A, q)
        assert bad
        for sp in (solve_extensions_theorem(A), solve_extensions_direct(A)):
            assert all(b.alpha[1][1][1] == 0 for b in sp.basis)

    @pytest.mark.parametrize("name, params", [
        ("vir", {}),
        ("current", dict(g="abelian", n=2)),
        ("r_alpha_beta", dict(alpha=2, beta=0)),
        ("loop_vir_cyclic", dict(m=3)),
    ])
    def test_basis_does_not_depend_on_degree_bound(self, name, params):
        A = catalog_build(name, **params)
        bases = {solve_extensions_direct(A, N).basis for N in range(8)}
        assert len(bases) == 1

    def test_degree_bound_validation(self):
        with pytest.raises(ValueError):
            solve_extensions_direct(catalog_build("vir"), degree_bound=-1)


class TestVerifierAgainstSolver:
    """verify_cocycle evaluates the Jacobi identity of the extension through
    the λ-bracket engine and shares no formula with either solver, so the
    two must agree on which quadruples are cocycles."""

    def test_single_entries_verify_iff_in_solution_span(self, catalog_entry):
        A = catalog_entry.build()
        n = A.dim
        basis = [q.as_vector() for q in solve_extensions_direct(A).basis]
        for k in range(4):
            for i in range(n):
                for j in range(i, n):
                    q = CocycleQuadruple.single(n, k, i, j)
                    in_span = span_rank(basis + [q.as_vector()]) == len(basis)
                    assert (verify_cocycle(A, q) == []) == in_span, (k, i, j)

    def test_skew_residual_names_its_pair(self):
        # α_2(L, L) = 1 alone: α_λ(L,L) + α_{-λ}(L,L) = 2λ^2
        A = catalog_build("vir")
        q = CocycleQuadruple.single(1, 2, 0, 0, symmetrize=False)
        skew = [r for r in verify_cocycle(A, q) if r[0] == "skew"]
        assert skew == [("skew", 0, 0, FormalPoly.sym(LAM, 2, 2))]

    def test_jacobi_residual_names_its_triple(self):
        # α_λ(W, W) = λ on R(2,0) is skew-symmetric but breaks Jacobi
        A = catalog_build("r_alpha_beta", alpha=2, beta=0)
        bad = verify_cocycle(A, CocycleQuadruple.single(2, 1, 1, 1))
        assert [r[:4] for r in bad] == [("jacobi", 0, 1, 1),
                                        ("jacobi", 1, 0, 1),
                                        ("jacobi", 1, 1, 0)]
        # at (L, W, W), with [L_λ W] = (∂ + 2λ)W and [W_μ W] = 0:
        # -α_{λ+μ}((∂ + 2λ)W, W) - α_μ(W, (∂ + 2λ)W)
        #   = -(λ - μ)(λ + μ) - (μ + 2λ)μ = -λ^2 - 2λμ
        lam, mu = FormalPoly.sym(LAM), FormalPoly.sym(MU)
        assert bad[0][4] == -(lam * lam) - 2 * lam * mu


class TestStandardSweepIsFast:
    def test_full_sweep(self):
        # guards against accidental blow-up of the exact elimination
        import time

        t0 = time.time()
        for e in standard_entries():
            solve_extensions_theorem(e.build())
        assert time.time() - t0 < 30
