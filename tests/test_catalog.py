from fractions import Fraction

import pytest

from qlca import (CatalogEntry, QuadraticLCA, bracket_basis, catalog_build,
                  catalog_names, coeff_bracket, detect_unit_like, entry_label,
                  gd_build, solve_derivations_direct,
                  solve_derivations_theorem, solve_extensions_direct,
                  solve_extensions_theorem, standard_entries)


class TestCatalog:
    def test_names_sorted_and_complete(self):
        assert catalog_names() == sorted(catalog_names())
        assert {"vir", "current", "vir_current", "r_alpha_beta",
                "loop_vir_cyclic", "loop_hv_cyclic"} == set(catalog_names())

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown catalog"):
            catalog_build("nope")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            catalog_build("current", g="e8")
        with pytest.raises(ValueError):
            catalog_build("current", g="abelian", n=0)
        with pytest.raises(ValueError):
            catalog_build("loop_vir_cyclic", m=0)

    def test_standard_entries_cover_spec_fixtures(self):
        labels = {entry_label(e) for e in standard_entries()}
        assert len(labels) == 14
        assert "vir" in labels
        assert "r_alpha_beta:alpha=2,beta=0" in labels
        assert "loop_hv_cyclic:m=3" in labels

    def test_entry_build_and_label(self):
        e = CatalogEntry("r_alpha_beta", {"alpha": 1, "beta": 1})
        A = e.build()
        assert A.dim == 2 and A.basis_names == ("L", "W")
        assert entry_label(e) == "r_alpha_beta:alpha=1,beta=1"

    def test_rational_parameters_accepted(self):
        A = catalog_build("r_alpha_beta", alpha="1/2", beta="-3/4")
        assert A.novikov[0][1][1] == Fraction(-1, 2)  # α - 1
        assert A.lie[1][0][1] == Fraction(-3, 4)

    def test_dimensions(self):
        assert catalog_build("vir").dim == 1
        assert catalog_build("current", g="sl2").dim == 3
        assert catalog_build("vir_current", g="sl2").dim == 4
        assert catalog_build("loop_vir_cyclic", m=5).dim == 5
        assert catalog_build("loop_hv_cyclic", m=3).dim == 6


def _trunc_poly(n, kappa):
    """x^i∘x^j = j·x^{i+j} on Q[x]/(x^n), with [a, b] = κ(a∘b − b∘a)."""
    nov = [[[0] * n for _ in range(n)] for _ in range(n)]
    lie = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n - i):
            nov[i][j][i + j] = j
            lie[i][j][i + j] = kappa * (j - i)
    return gd_build(n, [f"x{i}" for i in range(n)], nov, lie)


def _integral_algebras():
    cases = [pytest.param(e.build, id=entry_label(e)) for e in standard_entries()]
    cases += [pytest.param(lambda k=k: _trunc_poly(6, k), id=f"trunc_poly:n=6,kappa={k}")
              for k in (0, 1)]
    return cases


def _exact(x):
    return type(x) in (int, Fraction)


@pytest.mark.parametrize("build", _integral_algebras())
def test_integral_algebras_compute_in_exact_scalars(build):
    """The grids of an integral algebra hold ints, and every scalar the
    solvers and the bracket engines return is an int or a Fraction."""
    A = build()
    R = QuadraticLCA(A)
    n = A.dim
    for grid in (A.circ_terms, A.lie_terms, A.star_terms):
        assert all(type(c) is int for row in grid for cell in row for _, c in cell)

    theorem = solve_extensions_theorem(A)
    for sp in (theorem, solve_extensions_direct(A, 3)):
        assert all(_exact(x) for q in sp.basis for x in q.as_vector())
    for sp in (solve_derivations_direct(R, 1, 2),
               solve_derivations_theorem(R, 2, assert_simple=True)):
        assert all(_exact(x) for d in sp.basis for _, v in d.coeffs for x in v)
    found = detect_unit_like(A)
    if found is not None:
        assert all(_exact(x) for x in found[1]) and _exact(found[2])

    q = theorem.basis[0]
    for i in range(n):
        for j in range(n):
            assert all(_exact(c) for p in bracket_basis(R, i, j)
                       for c in p.terms.values())
            for m in (-1, 0, 2):
                terms, central = coeff_bracket(A, q, (i, m), (j, 1 - m))
                assert all(_exact(c) for c in terms.values()) and _exact(central)
