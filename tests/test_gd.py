import random
from fractions import Fraction

import pytest

from qlca import (GDValidationError, Violation, catalog_build,
                  check_gd_compat, check_lie, check_novikov, gd_build)


def zero_table(n):
    return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]


def dense(grid, n):
    """A sparse product grid as a fresh dense n×n×n table."""
    table = zero_table(n)
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            for k, c in cell:
                table[i][j][k] = c
    return table


def brute_force_violations(A):
    """Test-side oracle: re-derive all three axiom residuals directly from
    the structure constants, without the library's vector helpers. Returns
    (axiom, i, j, k, residual) in the checkers' order: every Novikov
    instance (left-symmetry before right-commutativity at each triple),
    then every Jacobi one, then every compatibility one, each residual the
    dense Fraction vector of the failed identity."""
    n = A.dim
    nov, lie = dense(A.circ_terms, n), dense(A.lie_terms, n)
    novikov, jacobi, compat = [], [], []

    def circ2(i, j):  # (a_i ∘ a_j) as dict
        return {k: nov[i][j][k] for k in range(n) if nov[i][j][k]}

    def apply(table, vec, j, left=True):
        out = {}
        for i, c in vec.items():
            row = table[i][j] if left else table[j][i]
            for k, v in enumerate(row):
                if v:
                    out[k] = out.get(k, Fraction(0)) + c * v
        return {k: v for k, v in out.items() if v}

    def record(found, axiom, i, j, k, res):
        if any(res.values()):
            found.append((axiom, i, j, k,
                          tuple(Fraction(res.get(kk, 0)) for kk in range(n))))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                ab = circ2(i, j)
                # left-symmetry
                lhs = apply(nov, ab, k)
                for kk, v in apply(nov, circ2(j, k), i, left=False).items():
                    lhs[kk] = lhs.get(kk, Fraction(0)) - v
                ba = circ2(j, i)
                for kk, v in apply(nov, ba, k).items():
                    lhs[kk] = lhs.get(kk, Fraction(0)) - v
                for kk, v in apply(nov, circ2(i, k), j, left=False).items():
                    lhs[kk] = lhs.get(kk, Fraction(0)) + v
                record(novikov, "left-symmetry", i, j, k, lhs)
                # right-commutativity
                rc = apply(nov, ab, k)
                for kk, v in apply(nov, circ2(i, k), j).items():
                    rc[kk] = rc.get(kk, Fraction(0)) - v
                record(novikov, "right-commutativity", i, j, k, rc)
                # Jacobi
                jac = {}
                for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = {kk: lie[x][y][kk] for kk in range(n) if lie[x][y][kk]}
                    for kk, v in apply(lie, inner, z).items():
                        jac[kk] = jac.get(kk, Fraction(0)) + v
                record(jacobi, "jacobi", i, j, k, jac)
                # compatibility
                comp = {}
                for kk, v in apply(lie, ab, k).items():
                    comp[kk] = comp.get(kk, Fraction(0)) + v
                for kk, v in apply(lie, circ2(i, k), j).items():
                    comp[kk] = comp.get(kk, Fraction(0)) - v
                lab = {kk: lie[i][j][kk] for kk in range(n) if lie[i][j][kk]}
                for kk, v in apply(nov, lab, k).items():
                    comp[kk] = comp.get(kk, Fraction(0)) + v
                lac = {kk: lie[i][k][kk] for kk in range(n) if lie[i][k][kk]}
                for kk, v in apply(nov, lac, j).items():
                    comp[kk] = comp.get(kk, Fraction(0)) - v
                lbc = {kk: lie[j][k][kk] for kk in range(n) if lie[j][k][kk]}
                for kk, v in apply(nov, lbc, i, left=False).items():
                    comp[kk] = comp.get(kk, Fraction(0)) - v
                record(compat, "compatibility", i, j, k, comp)
    return novikov + jacobi + compat


class TestBuild:
    def test_catalog_entries_validate(self, catalog_algebra):
        assert check_novikov(catalog_algebra) == []
        assert check_lie(catalog_algebra) == []
        assert check_gd_compat(catalog_algebra) == []

    def test_rejects_bad_dimension(self):
        with pytest.raises(GDValidationError):
            gd_build(0, [], [], [])

    def test_rejects_duplicate_names(self):
        with pytest.raises(GDValidationError):
            gd_build(2, ["a", "a"], zero_table(2), zero_table(2))

    def test_rejects_bad_shape(self):
        with pytest.raises(GDValidationError):
            gd_build(2, ["a", "b"], zero_table(3), zero_table(2))

    @pytest.mark.parametrize("which, shape", [
        ("lie", "table"), ("novikov", "ragged row"), ("lie", "ragged row"),
        ("novikov", "ragged cell"), ("lie", "ragged cell")])
    def test_rejects_each_bad_shape_by_its_table(self, which, shape):
        bad = zero_table(3) if shape == "table" else zero_table(2)
        if shape == "ragged row":
            bad[1] = bad[1][:1]
        elif shape == "ragged cell":
            bad[1][0] = bad[1][0] + [Fraction(0)]
        tables = {"novikov": zero_table(2), "lie": zero_table(2), which: bad}
        with pytest.raises(GDValidationError,
                           match=f"{which} table must have shape n×n×n"):
            gd_build(2, ["a", "b"], tables["novikov"], tables["lie"])

    def test_rejects_nonantisymmetric_lie(self):
        lie = zero_table(2)
        lie[0][1][0] = Fraction(1)  # mirror entry left zero
        with pytest.raises(GDValidationError, match="antisymmetric"):
            gd_build(2, ["a", "b"], zero_table(2), lie)

    def test_rejects_nonzero_lie_diagonal(self):
        lie = zero_table(2)
        lie[1][1][0] = Fraction(1)  # [b, b] = a
        with pytest.raises(GDValidationError, match=r"antisymmetric at pair \(1,1\)"):
            gd_build(2, ["a", "b"], zero_table(2), lie)

    def test_rejects_axiom_violation_with_locations(self):
        nov = zero_table(2)
        nov[0][1][1] = Fraction(1)
        nov[1][0][0] = Fraction(1)  # breaks right-commutativity
        with pytest.raises(GDValidationError) as exc:
            gd_build(2, ["a", "b"], nov, zero_table(2))
        assert exc.value.violations

    def test_lie_table_rebuilt_from_upper_part(self):
        lie = zero_table(2)
        lie[0][1][0] = Fraction(2)
        lie[1][0][0] = Fraction(-2)
        A = gd_build(2, ["a", "b"], zero_table(2), lie)
        built = dense(A.lie_terms, 2)
        assert built[1][0][0] == -built[0][1][0]
        assert all(x == 0 for x in built[0][0])


class TestElementOps:
    def test_circ_and_star(self):
        A = catalog_build("r_alpha_beta", alpha=3, beta=1)
        L, W = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
        assert A.circ(L, W) == (Fraction(0), Fraction(2))  # (α-1)W
        assert A.circ(W, L) == (Fraction(0), Fraction(1))
        assert A.star_terms[0][1] == ((1, 3),)  # L∘W + W∘L = αW
        assert A.bracket(W, L) == (Fraction(0), Fraction(1))  # βW
        assert A.bracket(L, W) == (Fraction(0), Fraction(-1))

    def test_bilinearity(self):
        A = catalog_build("vir_current", g="sl2")
        x = (Fraction(1), Fraction(2), Fraction(0), Fraction(-1))
        y = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(0))
        lhs = A.circ(x, y)
        nov = dense(A.circ_terms, 4)
        acc = [Fraction(0)] * 4
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                for k, c in enumerate(nov[i][j]):
                    acc[k] += xi * yj * c
        assert lhs == tuple(acc)


class TestCheckersAgainstOracle:
    def test_catalog_matches_brute_force(self, catalog_algebra):
        assert brute_force_violations(catalog_algebra) == []

    def test_random_mutations_detected_identically(self):
        """Perturb one structure constant at a time; the library checkers
        and the independent test-side oracle must report the same
        violations, residual vectors included, in the same order."""
        rng = random.Random(7)
        base = catalog_build("vir_current", g="sl2")
        n = base.dim
        total = 0
        for _ in range(40):
            nov = dense(base.circ_terms, n)
            lie = dense(base.lie_terms, n)
            table = rng.choice(("nov", "lie"))
            i, j, k = (rng.randrange(n) for _ in range(3))
            delta = Fraction(rng.choice((-2, -1, 1, 2)))
            if table == "nov":
                nov[i][j][k] += delta
            else:
                if i == j:
                    continue
                lie[i][j][k] += delta
                lie[j][i][k] -= delta
            A = gd_build(n, base.basis_names, nov, lie, validate=False)
            found = check_novikov(A) + check_lie(A) + check_gd_compat(A)
            assert found == [Violation(*v) for v in brute_force_violations(A)]
            total += len(found)
        assert total > 0
