import random
from fractions import Fraction
from itertools import product

import pytest

from qlca import (CocycleQuadruple, catalog_build, check_coeff_cocycle,
                  coeff_bracket, coeff_relation_consistency,
                  solve_extensions_theorem)


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


def brute_force_coeff_check(A, q, window, samples=None, seed=0):
    """Reference for check_coeff_cocycle: every generator triple, with no
    mode filter, and each cyclic residual summed straight from
    coeff_bracket."""
    gens = [(i, m) for i in range(A.dim) for m in range(-window, window + 1)]

    def central(x, y):
        return coeff_bracket(A, q, x, y)[1]

    out = [("antisymmetry", x, y, central(x, y) + central(y, x))
           for x in gens for y in gens]
    out = [f for f in out if f[-1]]
    if samples is None or samples >= len(gens) ** 3:
        triples = product(gens, repeat=3)
    else:
        rng = random.Random(seed)
        triples = [(rng.choice(gens), rng.choice(gens), rng.choice(gens))
                   for _ in range(samples)]
    for x, y, z in triples:
        r = sum(c * central(g, w)
                for u, v, w in ((x, y, z), (y, z, x), (z, x, y))
                for g, c in coeff_bracket(A, q, u, v)[0].items())
        if r:
            out.append(("cocycle", x, y, z, r))
    return out


class TestCocycleIdentity:
    def test_exhaustive_on_small_algebras(self):
        for name, params in (("vir", {}), ("r_alpha_beta", dict(alpha=1, beta=0))):
            A = catalog_build(name, **params)
            for q in solve_extensions_theorem(A).basis:
                assert check_coeff_cocycle(A, q, window=2) == []

    def test_sampled_run_is_seed_reproducible(self):
        A = catalog_build("vir_current", g="sl2")
        q = solve_extensions_theorem(A).basis[0]
        r1 = check_coeff_cocycle(A, q, window=3, samples=100, seed=11)
        r2 = check_coeff_cocycle(A, q, window=3, samples=100, seed=11)
        assert r1 == r2 == []

    def test_detects_fake_cocycle(self):
        A = catalog_build("vir")
        fake = CocycleQuadruple.single(1, 2, 0, 0, symmetrize=False)
        assert check_coeff_cocycle(A, fake, window=2)

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
                    assert got == brute_force_coeff_check(A, q, window)
                    failing += bool(got)
                    sampled = dict(samples=60, seed=k + i + j)
                    assert (check_coeff_cocycle(A, q, 3, **sampled)
                            == brute_force_coeff_check(A, q, 3, **sampled))
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
