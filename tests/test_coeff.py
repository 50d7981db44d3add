import random
from fractions import Fraction
from itertools import product

import pytest

from qlca import (CocycleQuadruple, QuadraticLCA, bracket_basis,
                  catalog_build, check_coeff_cocycle, coeff_bracket,
                  coeff_relation_consistency, entry_label,
                  solve_extensions_theorem, standard_entries, verify_cocycle)
from qlca import extensions as ext
from qlca.poly import ZERO, RatMatrix, rank


class TestCoeffBracket:
    def test_vir_modes_reproduce_witt_relations(self):
        A = catalog_build("vir")
        # [L_m, L_n] = (m - n) L_{m+n-1} in this mode normalization
        for m in range(-3, 4):
            for n in range(-3, 4):
                terms, _ = coeff_bracket(
                    A, CocycleQuadruple.zero(1), (0, m), (0, n)
                )
                expected = {}
                if m != n:
                    expected[(0, m + n - 1)] = Fraction(m - n)
                assert terms == expected

    def test_central_term_support(self):
        A = catalog_build("vir")
        q = CocycleQuadruple.single(1, 3, 0, 0)
        # λ³ form contributes m(m-1)(m-2) exactly on the anti-diagonal m+n=2
        _, c = coeff_bracket(A, q, (0, 3), (0, -1))
        assert c == 3 * 2 * 1
        _, c = coeff_bracket(A, q, (0, 3), (0, 0))
        assert c == 0

    def test_antisymmetric_in_generators(self):
        A = catalog_build("r_alpha_beta", alpha=3, beta=1)
        q = solve_extensions_theorem(A).basis[0]
        for m in range(-2, 3):
            for n in range(-2, 3):
                for i in range(2):
                    for j in range(2):
                        t1, c1 = coeff_bracket(A, q, (i, m), (j, n))
                        t2, c2 = coeff_bracket(A, q, (j, n), (i, m))
                        assert c1 == -c2
                        assert t1 == {k: -v for k, v in t2.items()}


def brute_force_coeff_check(A, q, window):
    """Reference for check_coeff_cocycle: every generator triple, with no
    mode filter, and each cyclic residual summed straight from
    coeff_bracket."""
    gens = [(i, m) for i in range(A.dim) for m in range(-window, window + 1)]

    def central(x, y):
        return coeff_bracket(A, q, x, y)[1]

    out = [("antisymmetry", x, y, central(x, y) + central(y, x))
           for x in gens for y in gens]
    out = [f for f in out if f[-1]]
    for x, y, z in product(gens, repeat=3):
        r = cyclic_residual(A, q, x, y, z)
        if r:
            out.append(("cocycle", x, y, z, r))
    return out


def cyclic_residual(A, q, x, y, z):
    return sum((c * coeff_bracket(A, q, g, w)[1]
                for u, v, w in ((x, y, z), (y, z, x), (z, x, y))
                for g, c in coeff_bracket(A, q, u, v)[0].items()), ZERO)


def failure_class(failure):
    """The certificate class of a failure: the generator pair (i ≤ j) of
    an antisymmetry failure, or the cyclic orbit of the generator triple
    of a cocycle failure, with the total mode."""
    kind, *gens, _ = failure
    idx = tuple(i for i, _ in gens)
    if kind == "antisymmetry":
        idx = tuple(sorted(idx))
    else:
        idx = min(idx[r:] + idx[:r] for r in range(3))
    return kind, idx, sum(m for _, m in gens)


def assert_unlisted_classes_appended(A, q, window, listed, appended):
    """``appended`` holds one real failure, outside the window, for each
    failing class that ``listed`` (the window's failures) misses."""
    seen = {failure_class(f) for f in listed}
    for f in appended:
        kind, *gens, r = f
        assert any(abs(m) > window for _, m in gens), f
        if kind == "antisymmetry":
            x, y = gens
            assert r == (coeff_bracket(A, q, x, y)[1]
                         + coeff_bracket(A, q, y, x)[1]) != 0, f
        else:
            assert r == cyclic_residual(A, q, *gens) != 0, f
        assert failure_class(f) not in seen, f
        seen.add(failure_class(f))


class TestCocycleIdentity:
    def test_exhaustive_on_small_algebras(self):
        for name, params in (("vir", {}), ("r_alpha_beta", dict(alpha=1, beta=0))):
            A = catalog_build(name, **params)
            for q in solve_extensions_theorem(A).basis:
                assert check_coeff_cocycle(A, q, window=2) == []

    def test_detects_fake_cocycle(self):
        A = catalog_build("vir")
        fake = CocycleQuadruple.single(1, 2, 0, 0, symmetrize=False)
        assert check_coeff_cocycle(A, fake, window=2)

    def test_false_cocycle_is_reported_on_every_call(self):
        # every mode is checked, so a quadruple that fails the conformal
        # identity lists the same failures inside the window on each call
        A = catalog_build("r_alpha_beta", alpha=1, beta=1)
        q = CocycleQuadruple.single(2, 0, 0, 1)
        assert verify_cocycle(A, q)
        got = check_coeff_cocycle(A, q, 3)
        assert len(got) == 102
        assert check_coeff_cocycle(A, q, 3) == got

    @pytest.mark.parametrize("option", [dict(samples=5), dict(seed=0)])
    def test_takes_a_window_only(self, option):
        A = catalog_build("vir")
        with pytest.raises(TypeError):
            check_coeff_cocycle(A, CocycleQuadruple.zero(1), 3, **option)

    @pytest.mark.parametrize("name, params", [
        ("vir", {}),
        ("r_alpha_beta", dict(alpha=2, beta=0)),
        ("current", dict(g="sl2")),
        # single α_3 entries here fail at total mode 3, the filter's edge
        ("r_alpha_beta", dict(alpha=1, beta=1)),
    ])
    def test_matches_brute_force_on_non_cocycles(self, name, params):
        A = catalog_build(name, **params)
        n = A.dim
        window = 2 if n < 3 else 1
        failing = 0
        for k in range(4):
            for i in range(n):
                for j in range(n):
                    q = CocycleQuadruple.single(n, k, i, j, symmetrize=i < j)
                    got = check_coeff_cocycle(A, q, window)
                    listed = brute_force_coeff_check(A, q, window)
                    assert got[:len(listed)] == listed
                    assert_unlisted_classes_appended(A, q, window, listed,
                                                     got[len(listed):])
                    failing += bool(got)
        assert failing

    def test_window_validation(self):
        A = catalog_build("vir")
        with pytest.raises(ValueError):
            check_coeff_cocycle(A, CocycleQuadruple.zero(1), window=0)


class TestClosedFormConsistency:
    def test_matches_first_principles_everywhere(self, catalog_algebra):
        assert coeff_relation_consistency(catalog_algebra, window=3) == []

    def test_with_central_terms(self):
        A = catalog_build("r_alpha_beta", alpha=0, beta=0)
        for q in solve_extensions_theorem(A).basis:
            assert coeff_relation_consistency(A, window=3, q=q) == []


# ---------------------------------------------------------------------
# The interpolation certificate against the window loops it replaced
# ---------------------------------------------------------------------


def window_coeff_check(A, q, window):
    """check_coeff_cocycle as a window loop: every generator pair, and
    every generator triple with total mode in [-1, 3], each residual read
    from coeff_bracket."""
    n = A.dim
    gens = [(i, m) for i in range(n) for m in range(-window, window + 1)]
    brackets = {}

    def bracket(x, y):
        if (x, y) not in brackets:
            brackets[x, y] = ext.coeff_bracket(A, q, x, y)
        return brackets[x, y]

    out = []
    for x in gens:
        for y in gens:
            r = bracket(x, y)[1] + bracket(y, x)[1]
            if r:
                out.append(("antisymmetry", x, y, r))

    def residual(x, y, z):
        r = ZERO
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            for g, c in bracket(u, v)[0].items():
                central = bracket(g, w)[1]
                if central:
                    r += c * central
        return r

    near = {s: [z for z in gens if -1 <= s + z[1] <= 3]
            for s in range(-2 * window, 2 * window + 1)}
    triples = ((x, y, z) for x in gens for y in gens
               for z in near[x[1] + y[1]])
    for x, y, z in triples:
        r = residual(x, y, z)
        if r:
            out.append(("cocycle", x, y, z, r))
    return out


def window_relation_consistency(A, window, q=None):
    """coeff_relation_consistency as a loop over every mode pair of the
    window, for every basis pair."""
    if q is None:
        q = CocycleQuadruple.zero(A.dim)
    R = QuadraticLCA(A)
    out = []
    for i in range(A.dim):
        for j in range(A.dim):
            expr = bracket_basis(R, i, j)
            for m in range(-window, window + 1):
                for nn in range(-window, window + 1):
                    expected = {}
                    for k, pol in enumerate(expr):
                        for (ed, el, _), c in pol.terms.items():
                            mode, coeff = m + nn, c
                            if el:
                                coeff, mode = m * c, mode - 1
                            if ed:
                                coeff, mode = -mode * coeff, mode - 1
                            s = expected.get((k, mode), ZERO) + coeff
                            if s:
                                expected[k, mode] = s
                            else:
                                expected.pop((k, mode), None)
                    central = ZERO
                    for p in range(4):
                        if m + nn - p + 1 == 0:
                            fall = 1
                            for t in range(p):
                                fall *= m - t
                            central += fall * q.alpha[p][i][j]
                    got_terms, got_central = ext.coeff_bracket(
                        A, q, (i, m), (j, nn))
                    if got_terms != expected or got_central != central:
                        out.append(((i, m), (j, nn), expected, central,
                                    got_terms, got_central))
    return out


def single_entries(n, fillings=(False, True)):
    """Every distinct single-entry quadruple of dimension n with the given
    ``symmetrize`` fillings (a diagonal entry, or an odd-λ-degree pair
    filled in from either side, comes out the same either way)."""
    return list(dict.fromkeys(
        CocycleQuadruple.single(n, k, i, j, symmetrize=symmetrize)
        for k in range(4) for i in range(n) for j in range(n)
        for symmetrize in fillings))


SMALL_ENTRIES = [pytest.param(e, id=entry_label(e))
                 for e in standard_entries() if e.build().dim <= 4]


def scaled_circ(A, q, gen1, gen2):
    """coeff_bracket with its -n(b∘a)_{m+n-1} term doubled."""
    terms, central = ORIGINAL_BRACKET(A, q, gen1, gen2)
    terms = dict(terms)
    (i, m), (j, n) = gen1, gen2
    for k, c in A.circ_terms[j][i]:
        v = terms.get((k, m + n - 1), ZERO) - n * c
        if v:
            terms[k, m + n - 1] = v
        else:
            terms.pop((k, m + n - 1), None)
    return terms, central


def alpha2_unfactored(A, q, gen1, gen2):
    """coeff_bracket with α₂ entering as α₂ instead of m(m-1)α₂."""
    terms, central = ORIGINAL_BRACKET(A, q, gen1, gen2)
    (i, m), (j, n) = gen1, gen2
    if m + n == 1:
        central += (1 - m * (m - 1)) * q.alpha[2][i][j]
    return terms, central


def alpha3_doubled(A, q, gen1, gen2):
    """coeff_bracket with its m(m-1)(m-2)α₃ term doubled, which it gets
    right at m = 0, 1, 2 and wrong at every other mode."""
    terms, central = ORIGINAL_BRACKET(A, q, gen1, gen2)
    (i, m), (j, n) = gen1, gen2
    if m + n == 2:
        central += m * (m - 1) * (m - 2) * q.alpha[3][i][j]
    return terms, central


def alpha0_negated(A, q, gen1, gen2):
    """coeff_bracket with the sign of its α₀ term (total mode -1) flipped."""
    terms, central = ORIGINAL_BRACKET(A, q, gen1, gen2)
    (i, m), (j, n) = gen1, gen2
    if m + n == -1:
        central -= 2 * q.alpha[0][i][j]
    return terms, central


def central_off_alpha(A, q, gen1, gen2):
    """coeff_bracket with a central term m at total mode 0 added on every
    pair whose α entries are all 0, where a support read off q.alpha
    would see no central term."""
    terms, central = ORIGINAL_BRACKET(A, q, gen1, gen2)
    (i, m), (j, n) = gen1, gen2
    if m + n == 0 and not any(a[i][j] for a in q.alpha):
        central += m
    return terms, central


CORRUPTIONS = [scaled_circ, alpha2_unfactored, alpha3_doubled, alpha0_negated,
               central_off_alpha]
ORIGINAL_BRACKET = ext.coeff_bracket


class TestCertificateEqualsWindowRun:
    @pytest.mark.parametrize("entry", SMALL_ENTRIES)
    def test_single_entry_quadruples(self, entry):
        A = entry.build()
        failing = 0
        for q in single_entries(A.dim):
            got = check_coeff_cocycle(A, q, 3)
            assert got == window_coeff_check(A, q, 3)
            failing += bool(got)
        assert failing

    @pytest.mark.parametrize("entry", SMALL_ENTRIES)
    def test_dense_quadruples(self, entry):
        # the sum of all single entries, and random rational combinations
        # of them, reach every central support at once
        A = entry.build()
        singles = [q.as_vector() for q in single_entries(A.dim)]
        rng = random.Random(18)
        weights = [[1] * len(singles)] + [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in singles]
            for _ in range(5)]
        for w in weights:
            vec = {}
            for c, single in zip(w, singles):
                for col, x in single.items():
                    vec[col] = vec.get(col, ZERO) + c * x
            q = CocycleQuadruple.from_vector(
                A.dim, {col: x for col, x in vec.items() if x})
            assert check_coeff_cocycle(A, q, 3) == window_coeff_check(A, q, 3)

    @pytest.mark.parametrize("entry", SMALL_ENTRIES)
    def test_central_term_off_alpha_is_caught(self, monkeypatch, entry):
        # the supports are read off coeff_bracket, so a central term on
        # pairs whose α entries are all 0 is still certified
        monkeypatch.setattr(ext, "coeff_bracket", central_off_alpha)
        A = entry.build()
        n = A.dim
        # the zero quadruple, and single entries that leave α = 0 on
        # every pair but one
        for q in [CocycleQuadruple.zero(n),
                  *(CocycleQuadruple.single(n, k, 0, j, symmetrize=False)
                    for k in range(4) for j in {0, n - 1})]:
            assert check_coeff_cocycle(A, q, 3) == window_coeff_check(A, q, 3)

    def test_central_term_off_alpha_fails_the_zero_quadruple(self,
                                                             monkeypatch):
        monkeypatch.setattr(ext, "coeff_bracket", central_off_alpha)
        A = catalog_build("r_alpha_beta", alpha=1, beta=1)
        assert check_coeff_cocycle(A, CocycleQuadruple.zero(2), 3)

    @pytest.mark.parametrize("corrupt", [None, *CORRUPTIONS])
    @pytest.mark.parametrize("name, params", [
        ("vir", {}),
        ("r_alpha_beta", dict(alpha=1, beta=1)),
        ("loop_vir_cyclic", dict(m=3)),
    ])
    def test_relation_check(self, monkeypatch, corrupt, name, params):
        if corrupt is not None:
            monkeypatch.setattr(ext, "coeff_bracket", corrupt)
        A = catalog_build(name, **params)
        n = A.dim
        quadruples = [None, *solve_extensions_theorem(A).basis,
                      *(CocycleQuadruple.single(n, k, i, j) for k in range(4)
                        for i in range(n) for j in range(i, n))]
        mismatched = 0
        for q in quadruples:
            got = coeff_relation_consistency(A, 3, q)
            assert got == window_relation_consistency(A, 3, q)
            mismatched += bool(got)
        assert bool(mismatched) == (corrupt is not None)

    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_cocycle_check_under_a_corrupted_bracket(self, monkeypatch,
                                                     corrupt):
        monkeypatch.setattr(ext, "coeff_bracket", corrupt)
        A = catalog_build("r_alpha_beta", alpha=1, beta=1)
        for q in solve_extensions_theorem(A).basis:
            assert check_coeff_cocycle(A, q, 3) == window_coeff_check(A, q, 3)

    @pytest.mark.parametrize("name, params", [
        ("vir", {}), ("r_alpha_beta", dict(alpha=1, beta=1))])
    def test_window_three_lists_every_flagged_class(self, name, params):
        # at window 5 the window holds every certificate point, so a clean
        # run there proves nothing was flagged; window 3 must agree
        A = catalog_build(name, **params)
        for q in single_entries(A.dim):
            assert (bool(check_coeff_cocycle(A, q, 3))
                    == bool(check_coeff_cocycle(A, q, 5)))


# the single-entry quadruples (algebra, params, k, i, j, symmetrize) whose
# failures all lie outside window 1
OUTSIDE_WINDOW_ONE = [
    ("vir", {}, 2, 0, 0, True),
    *(("r_alpha_beta", dict(alpha=1, beta=1), *c) for c in [
        (2, 0, 0, True), (3, 0, 1, True), (3, 1, 1, True),
        (2, 0, 1, False), (3, 0, 1, False), (3, 1, 0, False)]),
]


class TestFlaggedClassesAreListed:
    @pytest.mark.parametrize("name, params, k, i, j, symmetrize",
                             OUTSIDE_WINDOW_ONE)
    def test_failures_outside_window_one(self, name, params, k, i, j,
                                         symmetrize):
        A = catalog_build(name, **params)
        q = CocycleQuadruple.single(A.dim, k, i, j, symmetrize=symmetrize)
        assert brute_force_coeff_check(A, q, 1) == []
        got = check_coeff_cocycle(A, q, 1)
        assert got
        assert_unlisted_classes_appended(A, q, 1, [], got)

    @pytest.mark.parametrize("name, params", [
        ("vir", {}), ("r_alpha_beta", dict(alpha=1, beta=1))])
    def test_every_window_names_every_failing_class(self, name, params):
        # window 5 holds every certificate point, so its failures name
        # every flagged class
        A = catalog_build(name, **params)
        for q in single_entries(A.dim):
            classes = {failure_class(f) for f in check_coeff_cocycle(A, q, 5)}
            for window in (1, 2, 3):
                got = check_coeff_cocycle(A, q, window)
                assert {failure_class(f) for f in got} == classes


class TestFlaggedPairsAreListed:
    @pytest.mark.parametrize("name, params", [
        ("vir", {}), ("r_alpha_beta", dict(alpha=1, beta=1))])
    def test_corrupted_bracket_is_caught_at_every_window(self, monkeypatch,
                                                        name, params):
        """Doubling α₃ goes wrong only at modes outside windows 1 and 2,
        yet every window names the basis pairs that window 5 (which holds
        every certificate point) names: the window's mismatches in window
        order, then a real mismatch of each flagged pair left without one."""
        monkeypatch.setattr(ext, "coeff_bracket", alpha3_doubled)
        A = catalog_build(name, **params)
        caught = 0
        for q in solve_extensions_theorem(A).basis:
            everywhere = coeff_relation_consistency(A, 5, q)
            assert everywhere == window_relation_consistency(A, 5, q)
            pairs = {(f[0][0], f[1][0]) for f in everywhere}
            for window in (1, 2, 3):
                got = coeff_relation_consistency(A, window, q)
                inside = window_relation_consistency(A, window, q)
                assert [f for f in got if f in inside] == inside
                assert all(f in everywhere for f in got)
                assert {(f[0][0], f[1][0]) for f in got} == pairs
                caught += bool(got) and not inside
        assert caught


# ---------------------------------------------------------------------
# The lemma behind the certificate, and what it costs
# ---------------------------------------------------------------------


def triangle_interpolant(values):
    """The polynomial of total degree ≤ 4 through values[(a, b)] on
    {(a, b) : a, b ≥ 0, a + b ≤ 4}, by Lagrange's formula in the
    barycentric coordinates (x, y, 4 - x - y)."""
    def at(x, y):
        total = ZERO
        for (a, b), v in values.items():
            basis = Fraction(1)
            for coord, node in ((x, a), (y, b), (4 - x - y, 4 - a - b)):
                for t in range(node):
                    basis *= Fraction(coord - t, node - t)
            total += v * basis
        return total
    return at


def line_interpolant(values):
    """The polynomial of degree ≤ 3 through values[m], m = 0..3."""
    def at(x):
        total = ZERO
        for m, v in values.items():
            basis = Fraction(1)
            for t in values:
                if t != m:
                    basis *= Fraction(x - t, m - t)
            total += v * basis
        return total
    return at


LEMMA_ENTRIES = [("vir", {}), ("r_alpha_beta", dict(alpha=3, beta=1)),
                 ("current", dict(g="abelian", n=2))]


class TestInterpolationLemma:
    # Both residuals are linear in the quadruple, so the unfilled single
    # entries, a basis of all quadruples, cover every one.

    @pytest.mark.parametrize("name, params", LEMMA_ENTRIES)
    def test_cyclic_residual_is_its_degree_four_interpolant(self, name,
                                                            params):
        A = catalog_build(name, **params)
        n = A.dim
        rng = random.Random(5)
        for q in single_entries(n, (False,)):
            for i, j, k in product(range(n), repeat=3):
                for s in range(-1, 4):
                    gens = ((i, 0), (j, 0), (k, s))
                    at = triangle_interpolant({
                        (a, b): cyclic_residual(A, q, (i, a), (j, b),
                                                (k, s - a - b))
                        for a in range(5) for b in range(5 - a)})
                    for _ in range(20):
                        x = rng.randint(-40, 40)
                        y = rng.randint(max(-40, s - x - 40),
                                        min(40, s - x + 40))
                        assert (cyclic_residual(A, q, (i, x), (j, y),
                                                (k, s - x - y))
                                == at(x, y)), (q, gens, x, y)
                # outside total modes -1..3 the residual is 0
                x, y, z = (rng.randint(-40, 40) for _ in range(3))
                if not -1 <= x + y + z <= 3:
                    assert cyclic_residual(A, q, (i, x), (j, y), (k, z)) == 0

    @pytest.mark.parametrize("name, params", LEMMA_ENTRIES)
    def test_antisymmetry_is_its_degree_three_interpolant(self, name, params):
        A = catalog_build(name, **params)
        n = A.dim
        rng = random.Random(6)

        def skew(x, y):
            return (coeff_bracket(A, q, x, y)[1]
                    + coeff_bracket(A, q, y, x)[1])

        for q in single_entries(n, (False,)):
            for i in range(n):
                for j in range(i, n):
                    for t in range(-1, 3):
                        at = line_interpolant({
                            m: skew((i, m), (j, t - m)) for m in range(4)})
                        for _ in range(20):
                            m = rng.randint(max(-40, t - 40),
                                            min(40, t + 40))
                            assert skew((i, m), (j, t - m)) == at(m)

    def test_certificate_points_are_unisolvent_for_degree_four(self):
        # the 15 monomials x^p y^r, p + r ≤ 4, evaluated on the points the
        # certificate reads: full rank, so only the zero polynomial
        # vanishes on all of them
        monomials = [(p, r) for p in range(5) for r in range(5 - p)]
        rows = [{c: a ** p * b ** r for c, (p, r) in enumerate(monomials)
                 if a ** p * b ** r} for a, b in ext._TRIANGLE]
        assert len(rows) == len(monomials)
        assert rank(RatMatrix.from_rows(rows, len(monomials))) == len(monomials)

    def test_clean_check_costs_the_same_at_any_window(self, monkeypatch):
        A = catalog_build("loop_hv_cyclic", m=3)
        q = solve_extensions_theorem(A).basis[0]
        calls = []

        def counted(*args):
            calls.append(args[2:])
            return ORIGINAL_BRACKET(*args)

        monkeypatch.setattr(ext, "coeff_bracket", counted)
        counts = []
        for window in (3, 40):
            calls.clear()
            assert check_coeff_cocycle(A, q, window) == []
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_clean_check_asks_few_brackets_once_each(self, monkeypatch):
        # only 3 of the 76 cyclic classes can reach a central term; the
        # other classes are skipped (3,099 calls when all were certified)
        A = catalog_build("loop_hv_cyclic", m=3)
        q = solve_extensions_theorem(A).basis[0]
        calls = []

        def counted(*args):
            calls.append(args[2:])
            return ORIGINAL_BRACKET(*args)

        monkeypatch.setattr(ext, "coeff_bracket", counted)
        assert check_coeff_cocycle(A, q, 3) == []
        assert 0 < len(calls) <= 1000
        assert len(set(calls)) == len(calls)
