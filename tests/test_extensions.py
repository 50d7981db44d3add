import random
from fractions import Fraction
from math import comb

import pytest

from qlca import (DEL, LAM, MU, CocycleQuadruple, FormalPoly, bracket_basis,
                  catalog_build, check_coeff_cocycle, coeff_bracket,
                  coeff_relation_consistency, entry_label, gd_build,
                  solve_extensions_direct, solve_extensions_theorem, span_rank,
                  spans_equal, standard_entries, verify_cocycle)
from qlca.extensions import _bilinear_terms, _column, _direct_rows, _unit
from qlca.poly import RatMatrix, _int_rows, nullspace_basis
from test_catalog import _trunc_poly

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

    def test_equal_quadruples_hash_alike_on_every_route(self):
        n = 3
        a = CocycleQuadruple.single(n, 2, 0, 1, Fraction(1, 2))
        b = CocycleQuadruple.from_vector(n, {_column(n, 2, 0, 1): Fraction(1, 2),
                                             _column(n, 2, 1, 0): Fraction(-1, 2)})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: 1}[b] == 1
        # values are in the ``_as_q`` form: the ±1/2 entries stay Fractions,
        # and every other alpha value is the int 0
        pair = {_column(n, 2, 0, 1), _column(n, 2, 1, 0)}
        for q in (a, b):
            flat = [x for m in q.alpha for row in m for x in row]
            assert all(type(x) is Fraction and abs(x) == Fraction(1, 2)
                       if col in pair else type(x) is int and x == 0
                       for col, x in enumerate(flat))

    @pytest.mark.parametrize("build, message", [
        # each wrapped onto another form entry, or a bare IndexError, before
        (lambda: CocycleQuadruple.from_vector(2, {-1: 1}),
         "column -1 is out of range for a cocycle quadruple of dimension 2"),
        (lambda: CocycleQuadruple.from_vector(2, {16: 1}),
         "column 16 is out of range for a cocycle quadruple of dimension 2"),
        (lambda: CocycleQuadruple.single(2, -1, 0, 1),
         r"form index -1 is out of range \[0, 4\)"),
        (lambda: CocycleQuadruple.single(2, 0, 0, 2),
         r"basis index 2 is out of range \[0, 2\)"),
        # no int: 1.5 is no list index for ``alpha``, True no column
        (lambda: CocycleQuadruple.from_vector(1, {1.5: 1}),
         "column 1.5 is out of range for a cocycle quadruple of dimension 1"),
        (lambda: CocycleQuadruple.from_vector(1, {True: 1}),
         "column True is out of range for a cocycle quadruple of dimension 1"),
    ], ids=["from_vector-1", "from_vector16", "single_k-1", "single_j2",
            "from_vector1.5", "from_vectorTrue"])
    def test_index_outside_the_forms_is_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_indices_inside_the_forms_are_kept(self):
        q = CocycleQuadruple.from_vector(2, {15: 1, 0: Fraction(1, 2)})
        assert q.entries == ((0, Fraction(1, 2)), (15, 1))
        assert q.alpha[3][1][1] == 1 and q.alpha[0][0][0] == Fraction(1, 2)
        q = CocycleQuadruple.single(2, 3, 1, 0)
        assert q.entries == ((_column(2, 3, 0, 1), 1), (_column(2, 3, 1, 0), 1))

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
        vecs = sorted(sorted(q.as_vector().items()) for q in sp.basis)
        assert vecs == sorted(
            [
                sorted(CocycleQuadruple.single(1, 1, 0, 0).as_vector().items()),
                sorted(CocycleQuadruple.single(1, 3, 0, 0).as_vector().items()),
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


def central_jacobi_substituted_first(A, q):
    """The central Jacobi residuals of α, with ∂ in every inner bracket
    replaced by its form's variable before α is applied."""
    n = A.dim
    lam, mu = FormalPoly.sym(LAM), FormalPoly.sym(MU)

    def forms(slot):
        return [[q.lambda_poly(a, b).substitute(LAM, slot) for b in range(n)]
                for a in range(n)]

    def brackets(slot, d_to):
        return [[[p.substitute(LAM, slot).substitute(DEL, d_to)
                  for p in bracket_basis(A, a, b)] for b in range(n)]
                for a in range(n)]

    inner, outer = brackets(mu, lam), brackets(lam, -(lam + mu))
    right = brackets(lam, mu)
    f_lam, f_sum, f_mu = forms(lam), forms(lam + mu), forms(mu)
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                r = sum((f_lam[a][x] * inner[b][c][x]
                         - outer[a][b][x] * f_sum[x][c]
                         - f_mu[b][x] * right[a][c][x] for x in range(n)),
                        FormalPoly())
                if r:
                    out.append(("jacobi", a, b, c, r))
    return out


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

    def test_jacobi_residuals_equal_the_substituted_expansion(self, catalog_entry):
        """verify_cocycle runs the engine's Jacobi expansion and sets ∂ = 0
        at the end; substituting ∂ first, bracket by bracket, must give
        the same residual list on every single-entry quadruple."""
        A = catalog_entry.build()
        n = A.dim
        for k in range(4):
            for i in range(n):
                for j in range(i, n):
                    q = CocycleQuadruple.single(n, k, i, j)
                    got = [r for r in verify_cocycle(A, q) if r[0] == "jacobi"]
                    assert got == central_jacobi_substituted_first(A, q), (k, i, j)

    def test_skew_residual_names_its_pair(self):
        # α_2(L, L) = 1 alone: α_λ(L,L) + α_{-λ}(L,L) = 2λ^2
        A = catalog_build("vir")
        q = CocycleQuadruple.single(1, 2, 0, 0, symmetrize=False)
        skew = [r for r in verify_cocycle(A, q) if r[0] == "skew"]
        assert skew == [("skew", 0, 0, FormalPoly.sym(LAM, 2, 2))]

    @pytest.mark.parametrize("name, params, n, message", [
        ("vir", {}, 2, "cocycle quadruple of dimension 2 for an algebra of "
                       "dimension 1"),
        ("r_alpha_beta", {"alpha": 2, "beta": 0}, 1,
         "cocycle quadruple of dimension 1 for an algebra of dimension 2"),
    ])
    @pytest.mark.parametrize("check", [
        verify_cocycle,
        lambda A, q: coeff_bracket(A, q, (0, 1), (0, 2)),
        lambda A, q: check_coeff_cocycle(A, q, 3),
        lambda A, q: coeff_relation_consistency(A, 3, q),
    ], ids=["verify", "bracket", "mode_cocycle", "relation"])
    def test_quadruple_for_another_algebra_is_refused(self, name, params, n,
                                                      message, check):
        """Neither the n×n corner of a larger quadruple is read nor a
        smaller one indexed past its end, by the verifier or by the mode
        functions."""
        A = catalog_build(name, **params)
        for k in (0, 3):
            with pytest.raises(ValueError, match=message):
                check(A, CocycleQuadruple.single(n, k, 0, n - 1))

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


def direct_rows_all_triples(A, N):
    """The direct extension system over every ordered pair and triple:
    {(tag, λ-power, μ-power): row}, tags ("skew", p, q) and
    ("fe", a, b, c), empty rows kept."""
    n = A.dim
    rows = {}

    def add(tag, lpow, mpow, sign, i, x, y):
        _bilinear_terms(rows.setdefault((tag, lpow, mpow), {}), sign, i, x, y,
                        n)

    for p in range(n):
        for q in range(n):
            for i in range(N + 1):
                add(("skew", p, q), i, 0, 1, i, _unit(p), _unit(q))
                add(("skew", p, q), i, 0, (-1) ** i, i, _unit(q), _unit(p))

    circ, br, star = A.circ_terms, A.lie_terms, A.star_terms
    for ia in range(n):
        for ib in range(n):
            for ic in range(n):
                tag = ("fe", ia, ib, ic)
                a, b, c = _unit(ia), _unit(ib), _unit(ic)
                for i in range(N + 1):
                    add(tag, i + 1, 0, 1, i, a, circ[ic][ib])
                    add(tag, i, 1, 1, i, a, star[ib][ic])
                    add(tag, i, 0, 1, i, a, br[ic][ib])
                    add(tag, 0, i + 1, -1, i, b, circ[ic][ia])
                    add(tag, 1, i, -1, i, b, star[ia][ic])
                    add(tag, 0, i, -1, i, b, br[ic][ia])
                    for s in range(i + 2):
                        add(tag, s, i + 1 - s, comb(i + 1, s), i,
                            circ[ib][ia], c)
                    for s in range(i + 1):
                        add(tag, s + 1, i - s, -comb(i, s), i, star[ia][ib], c)
                    for s in range(i + 1):
                        add(tag, s, i - s, -comb(i, s), i, br[ib][ia], c)
    return rows


def random_unvalidated_table(rng):
    """A table of dimension 1..3 with small rational entries, an
    antisymmetric Lie part and no axiom checked."""
    n = rng.randint(1, 3)

    def entry():
        if rng.random() < 0.6:
            return 0
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))

    nov = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    lie = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                c = entry()
                lie[i][j][k], lie[j][i][k] = c, -c
    return gd_build(n, [f"e{i}" for i in range(n)], nov, lie, validate=False)


def _pair_lemma_cases():
    cases = [pytest.param(e.build, id=entry_label(e)) for e in standard_entries()]
    cases += [pytest.param(lambda n=n, k=k: _trunc_poly(n, k),
                           id=f"trunc_poly:n={n},kappa={k}")
              for n in (3, 6) for k in (0, 1)]
    return cases


def _row_set(matrix):
    return {tuple(sorted(row.items())) for row in _int_rows(matrix.row_dicts())}


def assert_pair_system_is_the_full_one(A, N):
    full = direct_rows_all_triples(A, N)
    pairs = _direct_rows(A, N)
    # the pairs a ≤ b, in the order the all-triples loop meets them
    assert pairs == [row for (tag, _, _), row in full.items()
                     if tag[1] <= tag[2] and row]
    cols = (N + 1) * A.dim * A.dim
    pairs = RatMatrix.from_rows(pairs, cols)
    full = RatMatrix.from_rows((row for row in full.values() if row), cols)
    assert _row_set(pairs) == _row_set(full)
    assert nullspace_basis(pairs) == nullspace_basis(full)


def assert_mirror_identity(A, N):
    """Row (b, a, c) at λ^l μ^m is minus row (a, b, c) at λ^m μ^l; skew
    row (q, p) at λ^i is (−1)^i times skew row (p, q)."""
    rows = direct_rows_all_triples(A, N)
    for (tag, lpow, mpow), row in rows.items():
        if tag[0] == "fe":
            _, a, b, c = tag
            mirror, sign = rows.get((("fe", b, a, c), mpow, lpow), {}), -1
        else:
            _, p, q = tag
            mirror, sign = rows.get((("skew", q, p), lpow, 0), {}), (-1) ** lpow
        assert row == {u: sign * v for u, v in mirror.items()}, (tag, lpow, mpow)


class TestPairLemma:
    """The direct extension system is built at the pairs a ≤ b only; the
    (b, a, c) rows are the (a, b, c) rows negated with λ and μ swapped."""

    @pytest.mark.parametrize("build", _pair_lemma_cases())
    def test_pair_system_is_the_full_one(self, build):
        # N = 7 is the bound solve_extensions_direct eliminates at by default
        assert_pair_system_is_the_full_one(build(), 7)

    @pytest.mark.parametrize("build", _pair_lemma_cases())
    def test_mirror_identity(self, build):
        assert_mirror_identity(build(), 4)

    def test_random_unvalidated_tables(self):
        rng = random.Random(20261019)
        for t in range(120):
            A = random_unvalidated_table(rng)
            N = (0, 1, 3, 4, 7)[t % 5]
            assert_pair_system_is_the_full_one(A, N)
            assert_mirror_identity(A, N)

    @pytest.mark.parametrize("build", _pair_lemma_cases())
    def test_pair_system_loses_no_equation(self, build):
        """Fewer rows can only enlarge the solution space, so if every basis
        cocycle passes verify_cocycle, which checks all n³ triples, the
        space of the pair system is the full one."""
        A = build()
        for q in solve_extensions_direct(A).basis:
            assert verify_cocycle(A, q) == []


class TestStandardSweepIsFast:
    def test_full_sweep(self):
        # guards against accidental blow-up of the exact elimination
        import time

        t0 = time.time()
        for e in standard_entries():
            solve_extensions_theorem(e.build())
        assert time.time() - t0 < 30
