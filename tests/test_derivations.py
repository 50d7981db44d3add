import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlca import (DEL, LAM, MU, CatalogEntry, DerivationAnsatz, DerivationSpace,
                  FormalPoly, HypothesisNotDetected, RatMatrix,
                  bracket_general, catalog_build, detect_unit_like,
                  entry_label, inner_derivation, nullspace_basis, outer_dimension,
                  solve_derivations_direct, solve_derivations_theorem,
                  solve_extensions_direct, solve_extensions_theorem,
                  spaces_agree, span_coordinates, span_rank, spans_equal,
                  standard_entries, verify_derivation)
from qlca import derivations
from qlca.cli import main
from qlca.derivations import (_bracket_terms, _closed_rows, _direct_rows,
                              _inner_vectors, _unknown_indexer)
from test_catalog import _integral_algebras, _trunc_poly
from test_conformal import basis_expr, expr_add, expr_is_zero, expr_sub
from test_extensions import random_unvalidated_table


@pytest.fixture(params=[
    *(pytest.param(e.build, id=entry_label(e)) for e in standard_entries()),
    *(pytest.param(lambda n=n, k=k: _trunc_poly(n, k),
                   id=f"trunc_poly:n={n},kappa={k}")
      for n in (3, 6) for k in (0, 1))])
def inner_case(request):
    """A builder of each catalog entry and of trunc_poly n ∈ {3, 6},
    κ ∈ {0, 1}."""
    return request.param


def inner_vectors(R, P, D):
    """Sparse vectors of the inner derivations ad(∂^k a_v) that fit the
    bounds (P, D), tried for every k ≤ D + 1: the oracle for
    DerivationSpace.inner_dim."""
    n, out = R.dim, []
    for v in range(n):
        for k in range(D + 2):
            try:
                out.append(inner_derivation(R, v, k).as_vector(n, P, D))
            except ValueError:  # does not fit the bounds
                pass
    return out


def _multiset(vectors):
    return Counter(frozenset(v.items()) for v in vectors)


class TestUnitDetection:
    def test_vir_left_unit(self):
        side, vec, k = detect_unit_like(catalog_build("vir"))
        assert side == "left" and vec == (Fraction(1),) and k == 1

    def test_r_alpha_beta_right_unit(self):
        side, vec, _ = detect_unit_like(catalog_build("r_alpha_beta", alpha=3, beta=1))
        assert side == "right" and vec == (Fraction(1), Fraction(0))

    def test_alpha2_is_also_left_unit_like(self):
        side, vec, _ = detect_unit_like(catalog_build("r_alpha_beta", alpha=2, beta=0))
        assert side == "left" and vec == (Fraction(1), Fraction(0))

    def test_loop_vir_scaled_left_unit(self):
        side, vec, k = detect_unit_like(catalog_build("loop_vir_cyclic", m=3))
        assert side == "left" and k == 1
        assert vec[0] == Fraction(-1)  # -L0 acts as the identity

    def test_trivial_novikov_has_none(self):
        assert detect_unit_like(catalog_build("current", g="sl2")) is None


class TestInnerDerivations:
    def test_inner_passes_verifier(self, catalog_algebra):
        R = catalog_algebra
        for v in range(R.dim):
            for k in (0, 1, 2):
                assert verify_derivation(R, inner_derivation(R, v, k)) == []

    def test_inner_image_matches_bracket(self):
        R = catalog_build("vir")
        d = inner_derivation(R, 0, 0)
        (img,) = d.image(R.dim, 0)
        from qlca import DEL, LAM, FormalPoly

        assert img == FormalPoly.sym(DEL) + 2 * FormalPoly.sym(LAM)

    def test_negative_partial_power_rejected(self):
        with pytest.raises(ValueError):
            inner_derivation(catalog_build("vir"), 0, -1)

    def test_out_of_range_basis_index_rejected(self):
        """A grid read at v = -1 would wrap round to the last basis
        element; the index is refused instead."""
        R = catalog_build("r_alpha_beta", alpha=1, beta=0)
        for v in (-1, R.dim):
            with pytest.raises(IndexError):
                inner_derivation(R, v)


EXPECTED_OUTER = {
    ("vir", ()): 0,
    ("r_alpha_beta", (3, 1)): 0,
    ("r_alpha_beta", (1, 0)): 1,
    ("r_alpha_beta", (1, 1)): 1,
    ("r_alpha_beta", (2, 0)): 0,
    ("loop_vir_cyclic", (3,)): 0,
}


class TestOuterDimensions:
    @pytest.mark.parametrize("key", sorted(EXPECTED_OUTER), ids=str)
    def test_matches_classification(self, key):
        name, params = key
        if name == "r_alpha_beta":
            R = catalog_build(name, alpha=params[0], beta=params[1])
        elif params:
            R = catalog_build(name, m=params[0])
        else:
            R = catalog_build(name)
        assert outer_dimension(R, 3, 3) == EXPECTED_OUTER[key]

    def test_alpha1_outer_generator_form(self):
        """The one outer direction at α=1 is spanned by Q with
        Q(L) ∝ W, Q(W) = 0 (no ∂, no λ)."""
        R = catalog_build("r_alpha_beta", alpha=1, beta=0)
        Q = DerivationAnsatz.from_dict(
            1, 3, {(0, 0, 0): (Fraction(0), Fraction(1))}
        )
        assert verify_derivation(R, Q) == []
        space = solve_derivations_direct(R, 3, 3)
        inner = inner_vectors(R, 3, 3)
        basis = [d.as_vector(2, 3, 3) for d in space.basis]
        assert span_coordinates(basis, Q.as_vector(2, 3, 3)) is not None
        assert span_coordinates(inner, Q.as_vector(2, 3, 3)) is None
        # the whole solution space is inner ⊕ <Q>
        pool = inner + [Q.as_vector(2, 3, 3)]
        for v in basis:
            assert span_coordinates(pool, v) is not None

    @pytest.mark.parametrize("P, D", [(0, 2), (1, 0), (3, 3), (3, 4), (3, 6)])
    def test_inner_dim_is_the_dense_inner_rank(self, catalog_entry, P, D):
        R = catalog_entry.build()
        space = solve_derivations_direct(R, P, D)
        assert space.inner_dim == span_rank(inner_vectors(R, P, D))
        assert space.outer_dim == space.dimension - space.inner_dim

    def test_derive_ranks_the_direct_spaces_only(self, monkeypatch, capsys):
        """derive ranks the inner span of the (P, D+2) probe and of the
        (P, D) space, each from one ad(a_v) per basis element, and never
        the closed solver's."""
        calls = []

        def counted(*args):
            calls.append(args[1:])
            return inner_derivation(*args)

        monkeypatch.setattr(derivations, "inner_derivation", counted)
        assert main(["--json", "derive", "catalog:loop_hv_cyclic:m=3"]) == 0
        assert len(calls) == 2 * 6 == 12

    @pytest.mark.parametrize("P, D", [(0, 0), (0, 1), (1, 2), (3, 4), (3, 6)])
    def test_shifted_generators_are_the_per_k_ones(self, inner_case, P, D):
        """The ad(∂^k a_v) read off ad(a_v) by the λ-shift lemma are the
        nonzero ones inner_derivation builds for each k, as multisets, at
        λ-bounds D and D+2."""
        R = inner_case()
        for bound in (D, D + 2):
            assert (_multiset(_inner_vectors(R, P, bound))
                    == _multiset(v for v in inner_vectors(R, P, bound) if v))

    def test_spaces_are_ranked_on_first_read(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the inner span was ranked")

        R = catalog_build("loop_hv_cyclic", m=3)
        monkeypatch.setattr(derivations, "inner_derivation", refuse)
        direct = solve_derivations_direct(R, 3, 4)
        theorem = solve_derivations_theorem(R, 4)
        assert theorem.dimension == direct.dimension > 0
        with pytest.raises(AssertionError):
            theorem.inner_dim

    def test_current_family_does_not_stabilize(self):
        out = outer_dimension(catalog_build("current", g="sl2"), 3, 3)
        assert isinstance(out, tuple) and out[0] == "not stabilized"
        assert out[1:] == (3, 5)


# the standard entries and three more left unit-like ones
CLOSED_CASES = [pytest.param(e, id=entry_label(e)) for e in [
    *standard_entries(),
    CatalogEntry("r_alpha_beta", {"alpha": 2, "beta": 1}),
    CatalogEntry("r_alpha_beta", {"alpha": 2, "beta": Fraction(1, 3)}),
    CatalogEntry("loop_vir_cyclic", {"m": 5}),
]]


class TestSolverAgreement:
    def test_direct_and_theorem_agree(self, catalog_entry):
        A = catalog_entry.build()
        if detect_unit_like(A) is None:
            return
        direct = solve_derivations_direct(A, 3, 3)
        theorem = solve_derivations_theorem(A, 3)
        assert spaces_agree(direct, theorem)

    @pytest.mark.parametrize("D", (2, 4))
    @pytest.mark.parametrize("P", range(4))
    @pytest.mark.parametrize("entry", CLOSED_CASES)
    def test_capped_closed_space_is_the_direct_one(self, entry, P, D):
        """At a partial bound below the closed system's ∂-order bound (1
        with a left unit-like element, else 3), the closed solver solves
        at that bound, so it answers the direct question."""
        A = entry.build()
        found = detect_unit_like(A)
        if found is None:
            return
        direct = solve_derivations_direct(A, P, D)
        theorem = solve_derivations_theorem(A, D, partial_bound=P)
        assert theorem.partial_bound == (min(1, P) if found[0] == "left" else P)
        assert theorem.dimension == direct.dimension
        assert spaces_agree(direct, theorem)

    @pytest.mark.parametrize("P, D", [(3, 4), (1, 3)])
    def test_direct_solutions_satisfy_every_closed_row(self, catalog_entry,
                                                       P, D):
        """The closed rows are consequences of the Leibniz identity, with
        or without a unit-like element, so truncating them at a ∂-bound
        can only keep the true derivations or add to them."""
        R = catalog_entry.build()
        n = R.dim
        rows = _closed_rows(R, P, D)
        for d in solve_derivations_direct(R, P, D).basis:
            v = d.as_vector(n, P, D)
            assert [row for row in rows
                    if sum(c * v.get(x, 0) for x, c in row.items())] == []

    @pytest.mark.parametrize("build", _integral_algebras())
    def test_solvers_return_one_canonical_basis(self, build):
        """Each solver returns the RREF basis of its space, which is unique
        for a column order, so solvers that agree return the same basis:
        the same tuples in the same order for extensions, the same set for
        derivations. spaces_agree rests on this."""
        A = build()
        assert (solve_extensions_theorem(A).basis
                == solve_extensions_direct(A).basis)
        if detect_unit_like(A) is not None:
            assert (set(derivations.stabilized_outer(A, 3, 4)[0].basis)
                    == set(solve_derivations_theorem(A, 4).basis))

    def test_spaces_agree_is_mutual_membership(self, catalog_entry):
        """spaces_agree, which compares the canonical bases as sets,
        answers what the oracle spans_equal's three ranks of the basis
        vectors do, on every pair of the direct, closed and assert-simple
        spaces at (3, 3) and (1, 2)."""
        A = catalog_entry.build()
        spaces = []
        for P, D in ((3, 3), (1, 2)):
            spaces.append(solve_derivations_direct(A, P, D))
            if detect_unit_like(A) is not None:
                spaces.append(solve_derivations_theorem(A, D, partial_bound=P))
            spaces.append(solve_derivations_theorem(
                A, D, assert_simple=True, partial_bound=P))
        n = A.dim
        for a, b in combinations(spaces, 2):
            P = max(a.partial_bound, b.partial_bound)
            D = max(a.lambda_bound, b.lambda_bound)
            vecs = [[x.as_vector(n, P, D) for x in s.basis] for s in (a, b)]
            assert spaces_agree(a, b) == spans_equal(*vecs)

    def test_equal_dimensions_with_different_spans_disagree(self):
        R = catalog_build("vir")
        a, b = (DerivationSpace(R, 1, 2, (inner_derivation(R, 0, k),))
                for k in (0, 1))
        assert a.dimension == b.dimension
        assert not spaces_agree(a, b)
        assert spaces_agree(a, a)

    def test_spaces_of_different_algebras_are_refused(self):
        """Two 2-dim algebras give spaces with one column layout, so only
        the algebra tells them apart."""
        a, b = (solve_derivations_direct(
                    catalog_build("r_alpha_beta", alpha=al, beta=be), 1, 2)
                for al, be in ((3, 1), (0, 0)))
        with pytest.raises(ValueError, match="different algebras"):
            spaces_agree(a, b)

    def test_hypothesis_not_detected_raises(self):
        with pytest.raises(HypothesisNotDetected):
            solve_derivations_theorem(catalog_build("current", g="sl2"), 3)

    def test_every_direct_solution_verifies(self, catalog_entry):
        R = catalog_entry.build()
        for d in solve_derivations_direct(R, 2, 2).basis:
            assert verify_derivation(R, d) == []

    @pytest.mark.parametrize("index", [(0, 2, 0), (0, 0, 3), (0, -1, 0),
                                       (0, 0, -1)])
    def test_ansatz_index_outside_the_bounds_is_refused(self, index):
        with pytest.raises(ValueError, match=r"ansatz index \(.*\) out of bounds"):
            DerivationAnsatz.from_dict(1, 2, {index: (Fraction(1),)})

    def test_verifier_rejects_non_derivation(self):
        R = catalog_build("vir")
        bogus = DerivationAnsatz.from_dict(1, 2, {(0, 0, 2): (Fraction(1),)})
        assert verify_derivation(R, bogus)


class TestVerifierAgainstSolver:
    def test_single_coefficients_verify_iff_in_solution_span(self, catalog_entry):
        """verify_derivation runs the engine's Jacobi expansion and shares
        no formula with the solvers, so the two must agree on which
        single-coefficient ansätze are derivations."""
        R = catalog_entry.build()
        n, P, D = R.dim, 1, 2
        basis = [d.as_vector(n, P, D)
                 for d in solve_derivations_direct(R, P, D).basis]
        for j in range(n):
            for i in range(P + 1):
                for k in range(D + 1):
                    for r in range(n):
                        unit = tuple(Fraction(int(s == r)) for s in range(n))
                        d = DerivationAnsatz.from_dict(P, D, {(j, i, k): unit})
                        in_span = (span_rank(basis + [d.as_vector(n, P, D)])
                                   == len(basis))
                        assert (verify_derivation(R, d) == []) == in_span, \
                            (j, i, k, r)


class TestShapeRefusals:
    """An ansatz shaped for another algebra is refused with a ValueError
    that names the index or the dimension, not read in part."""

    @pytest.mark.parametrize("name, params, coeffs, message", [
        ("vir", {}, {(5, 0, 0): (1,)}, "basis index 5 is out of range for "
                                       "dimension 1"),
        ("vir", {}, {(-1, 0, 0): (1,)}, "basis index -1 is out of range"),
        ("vir", {}, {(0, 0, 0): (1, 0)}, "vector of length 2 at basis index 0 "
                                         "for dimension 1"),
        ("r_alpha_beta", {"alpha": 3, "beta": 1}, {(1, 1, 0): (1,)},
         "vector of length 1 at basis index 1 for dimension 2"),
    ])
    def test_ansatz_for_another_algebra(self, name, params, coeffs, message):
        A = catalog_build(name, **params)
        d = DerivationAnsatz.from_dict(1, 1, coeffs)
        with pytest.raises(ValueError, match=message):
            verify_derivation(A, d)
        with pytest.raises(ValueError, match=message):
            d.as_vector(A.dim, 1, 1)

    @pytest.mark.parametrize("solve, args", [
        (solve_derivations_direct, (-1, 4)),
        (solve_derivations_direct, (1, -1)),
        (solve_derivations_theorem, (-1,)),
        (solve_derivations_theorem, (4, False, -1)),
        (derivations.stabilized_outer, (1, -1)),
        (derivations.stabilized_outer, (-1, 1)),
        (outer_dimension, (-1, -1)),
    ])
    def test_negative_bounds_are_refused(self, solve, args):
        """Each of these answered dimension 0 on vir before; the CLI's
        bound options refuse the same values."""
        with pytest.raises(ValueError, match="bounds must be non-negative"):
            solve(catalog_build("vir"), *args)


class TestCurrentShape:
    def test_scaling_family_spans_outer_part(self):
        """d(a) = λ^k (∂ + λ) a solves the Leibniz identity for the
        current algebra and, with the inner span, exhausts all solutions."""
        R = catalog_build("current", g="sl2")
        P, D = 1, 3
        n = R.dim
        scalers = []
        for k in range(D):
            coeffs = {}
            for j in range(n):
                vec = tuple(Fraction(1 if r == j else 0) for r in range(n))
                coeffs[(j, 1, k)] = vec      # ∂ λ^k a_j
                coeffs[(j, 0, k + 1)] = vec  # λ^{k+1} a_j
            d = DerivationAnsatz.from_dict(P, D, coeffs)
            assert verify_derivation(R, d) == []
            scalers.append(d.as_vector(n, P, D))
        space = solve_derivations_direct(R, P, D)
        pool = inner_vectors(R, P, D) + scalers
        for d in space.basis:
            assert span_coordinates(pool, d.as_vector(n, P, D)) is not None


@pytest.mark.parametrize("build", _integral_algebras())
def test_unordered_pair_system_loses_no_equation(build):
    """The direct system expands Leibniz only at the pairs p ≤ q. Fewer
    rows can only enlarge the solution space, so if every basis element
    passes verify_derivation, which checks all n² ordered pairs, the
    space of the unordered-pair system is the full one."""
    R = build()
    for d in solve_derivations_direct(R, 3, 3).basis:
        assert verify_derivation(R, d) == []


def _engine_cases():
    cases = [pytest.param(e.build, id=entry_label(e)) for e in standard_entries()]
    cases.append(pytest.param(
        lambda: catalog_build("r_alpha_beta", alpha=Fraction(1, 2),
                              beta=Fraction(1, 3)),
        id="r_alpha_beta:alpha=1/2,beta=1/3"))
    return cases


@pytest.mark.parametrize("build", _engine_cases())
def test_direct_system_has_the_engine_nullspace(build):
    """Column c of the oracle system is the verify_derivation residual of
    the c-th unit ansatz, one row per (p, q, coordinate, monomial). The
    residual is linear in the ansatz, so the oracle's nullspace is the
    derivation space as the λ-bracket engine sees it, and the direct
    system read off the product grids must have the same RREF basis."""
    R = build()
    n, P, D = R.dim, 1, 2
    idx = _unknown_indexer(n, P)
    cols = n * (P + 1) * (D + 1) * n
    rows = {}
    for j in range(n):
        for i in range(P + 1):
            for k in range(D + 1):
                for r in range(n):
                    unit = tuple(int(s == r) for s in range(n))
                    d = DerivationAnsatz.from_dict(P, D, {(j, i, k): unit})
                    for p, q, residual in verify_derivation(R, d):
                        for t, pol in enumerate(residual):
                            for mono, c in pol.terms.items():
                                rows.setdefault((p, q, t, mono), {})[
                                    idx(j, i, k, r)] = c
    oracle = nullspace_basis(RatMatrix.from_rows(rows.values(), cols))
    direct = nullspace_basis(RatMatrix.from_rows(_direct_rows(R, P, D), cols))
    assert direct == oracle


def test_solvers_run_without_the_bracket_engine(catalog_entry, monkeypatch):
    """Solvers read the product grids and the λ-bracket engine serves the
    verifiers only: with the engine's bracket functions raising in every
    qlca namespace, every solver and the inner span still run."""
    def engine(*args, **kwargs):
        raise AssertionError("the λ-bracket engine was called")

    for name, module in list(sys.modules.items()):
        if name == "qlca" or name.startswith("qlca."):
            for attr in ("bracket_basis", "bracket_general", "_slot_brackets",
                         "_grid_table"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, engine)
    A = catalog_entry.build()
    solve_extensions_theorem(A)
    solve_extensions_direct(A, 3)
    solve_derivations_direct(A, 1, 2).inner_dim
    solve_derivations_theorem(A, 2, assert_simple=True)
    detect_unit_like(A)
    for v in range(A.dim):
        inner_derivation(A, v, 1)


# -- verify_derivation against a copy of its earlier route -----------------
# Before verify_derivation became the engine's Jacobi expansion with d_λ
# acting, it bracketed the images through bracket_general. Kept here as
# the oracle of the expansion: the residual lists must be equal, entry for
# entry and in order.


def leibniz_through_bracket_general(A, dmap):
    """d_λ[a_p μ a_q] - [(d_λ a_p)_{λ+μ} a_q] - [a_p μ (d_λ a_q)] over the
    ordered basis pairs: both right-hand brackets from bracket_general, and
    d_λ(∂^k x) = (∂+λ)^k d_λ(x) applied to the coordinates of
    [a_p μ a_q]."""
    n = A.dim
    d, lam, mu = (FormalPoly.sym(s) for s in (DEL, LAM, MU))
    images = [dmap.image(n, j) for j in range(n)]
    out = []
    for p in range(n):
        for q in range(n):
            lhs = (FormalPoly(),) * n
            at_mu = bracket_general(A, basis_expr(n, p), basis_expr(n, q), mu)
            for m, pol in enumerate(at_mu):
                shifted = pol.substitute(DEL, d + lam)
                lhs = expr_add(lhs, tuple(shifted * x for x in images[m]))
            rhs = expr_add(
                bracket_general(A, images[p], basis_expr(n, q), lam + mu),
                bracket_general(A, basis_expr(n, p), images[q], mu))
            residual = expr_sub(lhs, rhs)
            if not expr_is_zero(residual):
                out.append((p, q, residual))
    return out


@pytest.mark.parametrize("build", _integral_algebras())
def test_verify_derivation_is_the_bracket_general_route(build):
    """On inner derivations, solver solutions and unit ansätze, most of
    which fail, the two routes give the same residual lists."""
    A = build()
    n, P, D = A.dim, 1, 2
    ansatze = [inner_derivation(A, v, k) for v in range(n) for k in range(2)]
    ansatze += solve_derivations_direct(A, P, D).basis
    ansatze += [DerivationAnsatz.from_dict(P, D, {(j, i, k): tuple(
                    Fraction(int(s == r)) for s in range(n))})
                for j in range(n) for i, k, r in ((0, 0, 0), (1, 1, n - 1),
                                                 (1, 2, 0))]
    failing = 0
    for d in ansatze:
        expected = leibniz_through_bracket_general(A, d)
        assert verify_derivation(A, d) == expected
        failing += bool(expected)
    assert failing or not any(map(any, A.circ_terms + A.lie_terms))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_derivation_is_the_bracket_general_route_on_drawn_ansatze(data):
    A = data.draw(st.sampled_from(
        [e.build for e in standard_entries()] + [lambda: _trunc_poly(4, 1)]))()
    n = A.dim
    P, D = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeffs = data.draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, P), st.integers(0, D)),
        st.lists(coeff, min_size=n, max_size=n).map(tuple), max_size=3))
    d = DerivationAnsatz.from_dict(P, D, coeffs)
    assert verify_derivation(A, d) == leibniz_through_bracket_general(A, d)


# ---------------------------------------------------------------------
# The row builders against their straightforward form
# ---------------------------------------------------------------------


def reference_direct_rows(A, P, D):
    """The direct Leibniz rows expanded once per λ-degree k of the
    ansatz, with no shift: the builder before its rows were shifted."""
    n = A.dim
    idx = _unknown_indexer(n, P)
    brk = [[_bracket_terms(A, i, j) for j in range(n)] for i in range(n)]
    binom = [[comb(a, s) for s in range(a + 1)] for a in range(P + 2)]

    def add(key, x, c):
        eq = rows.setdefault(key, {})
        s = eq.get(x, 0) + c
        if s:
            eq[x] = s
        else:
            del eq[x]

    for p in range(n):
        for q in range(p, n):
            rows = {}
            for m, c, e, f in brk[p][q]:
                for s in range(e + 1):
                    for i in range(P + 1):
                        for k in range(D + 1):
                            for r in range(n):
                                add((r, i + e - s, k + s, f),
                                    idx(m, i, k, r), c)
            for i in range(P + 1):
                sign = (-1) ** i
                for rr in range(n):
                    for t, c, e, f in brk[rr][q]:
                        for s, b in enumerate(binom[i + f]):
                            for k in range(D + 1):
                                add((t, e, k + s, i + f - s),
                                    idx(p, i, k, rr), -sign * b * c)
                    for t, c, e, f in brk[p][rr]:
                        for s, b in enumerate(binom[i]):
                            for k in range(D + 1):
                                add((t, i - s + e, k, s + f),
                                    idx(q, i, k, rr), -b * c)
            yield from (eq for eq in rows.values() if eq)


def reference_closed_rows(A, P, D):
    """The closed-system rows with each summand expanded once per
    λ-degree k of the ansatz: the builder before its rows were shifted."""
    n = A.dim
    idx = _unknown_indexer(n, P)
    circ, br, star = A.circ_terms, A.lie_terms, A.star_terms
    ID = [((r, 1),) for r in range(n)]

    def right(grid, b):
        return [grid[r][b] for r in range(n)]

    rows = []

    def emit(*summands):
        eqs = {}
        for c, s, i, u, f in summands:
            if i > P:
                continue
            for j, uj in u:
                for r in range(n):
                    for t, ft in f[r]:
                        for k in range(D + 1):
                            eq = eqs.setdefault((t, k + s), {})
                            x = idx(j, i, k, r)
                            eq[x] = eq.get(x, 0) + c * uj * ft
        for eq in eqs.values():
            eq = {x: v for x, v in eq.items() if v}
            if eq:
                rows.append(eq)

    for p in range(n):
        for q in range(n):
            a, b = ((p, 1),), ((q, 1),)
            ba, ab = circ[q][p], circ[p][q]
            ab_star = star[p][q]
            lba = br[q][p]
            o_p, s_p, l_p = right(circ, p), right(star, p), right(br, p)
            s_q = right(star, q)
            p_o, q_o, q_l = circ[p], circ[q], br[q]
            emit((1, 0, 3, ba, ID), (-1, 0, 3, ab, ID))
            emit((1, 0, 3, ab, ID), (-1, 0, 3, b, o_p))
            emit((1, 0, 3, a, q_o), (-1, 0, 3, b, p_o))
            emit((2, 0, 3, b, o_p), (1, 0, 3, b, p_o))
            emit((1, 1, 3, ba, ID), (1, 0, 2, ba, ID), (1, 0, 3, lba, ID),
                 (-1, 0, 3, b, l_p), (-1, 0, 2, b, o_p))
            emit((1, 0, 2, ab_star, ID), (-2, 0, 2, b, o_p), (-1, 0, 2, b, s_p),
                 (-3, 0, 3, b, l_p))
            emit((-3, 1, 3, a, q_o), (1, 0, 2, a, q_o), (1, 0, 2, b, o_p),
                 (2, 0, 2, b, s_p), (3, 0, 3, b, l_p))
            emit((-4, 1, 3, a, s_q), (1, 0, 2, a, s_q), (-1, 0, 3, a, q_l),
                 (1, 0, 2, b, s_p), (1, 0, 3, b, l_p))
            emit((1, 1, 2, ba, ID), (1, 0, 1, ba, ID), (1, 0, 2, lba, ID),
                 (-1, 0, 1, b, o_p), (-1, 0, 2, b, l_p))
            emit((1, 0, 1, ab_star, ID),
                 *((-(-1) ** i, i - 1, i, a, q_o) for i in range(1, 4)),
                 (-1, 0, 1, b, o_p), (-1, 0, 1, b, s_p), (-2, 0, 2, b, l_p))
            emit(*(((-1) ** i * comb(i + 1, 2), i - 1, i, a, s_q)
                   for i in range(1, 4)),
                 *(((-1) ** i * comb(i, 2), i - 2, i, a, q_l) for i in range(2, 4)),
                 (1, 0, 1, b, s_p), (1, 0, 2, b, l_p))
            emit((1, 1, 1, ba, ID), (1, 0, 0, ba, ID), (1, 0, 1, lba, ID),
                 *((-(-1) ** i, i, i, a, q_o) for i in range(4)),
                 (-1, 0, 0, b, o_p), (-1, 0, 1, b, l_p))
            emit((1, 0, 0, ab_star, ID),
                 *((-(-1) ** i * (i + 1), i, i, a, s_q) for i in range(4)),
                 *((-(-1) ** i * i, i - 1, i, a, q_l) for i in range(1, 4)),
                 (-1, 0, 0, b, s_p), (-1, 0, 1, b, l_p))
            emit((1, 1, 0, ba, ID), (1, 0, 0, lba, ID),
                 *((-(-1) ** i, i + 1, i, a, s_q) for i in range(4)),
                 *((-(-1) ** i, i, i, a, q_l) for i in range(4)),
                 (-1, 0, 0, b, l_p))
    return rows


def row_multiset(rows):
    """The rows as a multiset, each row as its sorted (column, coeff)s."""
    return Counter(tuple(sorted(row.items())) for row in rows)


BUILDER_BOUNDS = ((0, 0), (2, 1), (1, 2), (3, 4), (3, 6))


@pytest.mark.parametrize("build", [*_integral_algebras(), *(
    pytest.param(lambda k=k: _trunc_poly(3, k), id=f"trunc_poly:n=3,kappa={k}")
    for k in (0, 1))])
@pytest.mark.parametrize("P, D", BUILDER_BOUNDS)
def test_shifted_builders_give_the_expanded_rows(build, P, D):
    """Shifting each λ-degree 0 row across λ-degrees builds the rows that
    expanding the identity once per λ-degree builds, each as often."""
    A = build()
    assert (row_multiset(_direct_rows(A, P, D))
            == row_multiset(reference_direct_rows(A, P, D)))
    assert (row_multiset(_closed_rows(A, P, D))
            == row_multiset(reference_closed_rows(A, P, D)))


def test_shifted_builders_on_unvalidated_tables():
    """The same on seeded tables whose axioms fail, where rows cancel in
    other places."""
    rng = random.Random(20261020)
    for t in range(30):
        A = random_unvalidated_table(rng)
        P, D = BUILDER_BOUNDS[t % len(BUILDER_BOUNDS)]
        assert (row_multiset(_direct_rows(A, P, D))
                == row_multiset(reference_direct_rows(A, P, D)))
        assert (row_multiset(_closed_rows(A, P, D))
                == row_multiset(reference_closed_rows(A, P, D)))
