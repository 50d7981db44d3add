from fractions import Fraction

import pytest

import qlca.gd
from qlca import (CatalogEntry, RatMatrix, bracket_basis, catalog_build,
                  catalog_names, coeff_bracket, detect_unit_like, emit_algebra,
                  entry_label, gd_build, nullspace_basis, parse_algebra,
                  solve_derivations_direct, solve_derivations_theorem,
                  solve_extensions_direct, solve_extensions_theorem,
                  standard_entries)
from qlca.derivations import _direct_rows, _inner_vectors, _lambda_shifts
from qlca.poly import span_coordinates_many


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

    def test_missing_or_unknown_parameter_is_named(self):
        with pytest.raises(TypeError, match=r"^missing parameter 'beta'$"):
            catalog_build("r_alpha_beta", alpha=1)
        with pytest.raises(TypeError, match=r"^unknown parameter 'gamma'$"):
            catalog_build("r_alpha_beta", alpha=1, beta=0, gamma=2)
        assert catalog_build("current").dim == 3  # defaults need no key

    @pytest.mark.parametrize("name, params, message", [
        ("r_alpha_beta", {"alpha": 0.1, "beta": 0},
         "alpha must be a rational number, got 0.1"),
        ("current", {"g": "abelian", "n": 2.0},
         "n must be an integer >= 1, got 2.0"),
    ], ids=["rational", "size"])
    def test_a_float_parameter_is_refused(self, name, params, message):
        """A float parameter is refused, not read as its binary fraction."""
        with pytest.raises(ValueError, match=message):
            catalog_build(name, **params)

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
        L, W = (1, 0), (0, 1)
        assert A.circ(L, W)[1] == Fraction(-1, 2)  # α - 1
        assert A.bracket(W, L)[1] == Fraction(-3, 4)

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


def full_rows(builder, A, P, D):
    """The plain, unpeeled λ-shift at bounds (P, D) of the templates that a
    derivation row builder returns: the whole system, before any peel."""
    stride = (P + 1) * A.dim ** 2
    return [row for t in builder(A, P)
            for row in _lambda_shifts(t, D, stride, ())]


def _integral_algebras():
    cases = [pytest.param(e.build, id=entry_label(e)) for e in standard_entries()]
    cases += [pytest.param(lambda k=k: _trunc_poly(6, k), id=f"trunc_poly:n=6,kappa={k}")
              for k in (0, 1)]
    return cases


def _exact(x):
    return type(x) in (int, Fraction)


def _normal(x):
    """x in the ``_as_q`` form: an int where integral, else a Fraction."""
    return type(x) is int if x == int(x) else type(x) is Fraction


@pytest.mark.parametrize("build", _integral_algebras())
def test_integral_algebras_compute_in_exact_scalars(build):
    """The grids of an integral algebra hold ints, and every scalar the
    solvers and the bracket engines return is an int or a Fraction. Cocycle
    values are ints where integral, so a cocycle with integral values has
    an int central part in every mode bracket. So are the values of
    nullspace vectors, derivations, span coordinates and the unit-like
    element."""
    A = build()
    n = A.dim
    for grid in (A.circ_terms, A.lie_terms, A.star_terms):
        assert all(type(c) is int for row in grid for cell in row for _, c in cell)

    theorem, direct = solve_extensions_theorem(A), solve_extensions_direct(A, 3)
    cocycles = theorem.basis + direct.basis
    assert all(_normal(x) for q in cocycles for x in q.as_vector().values())
    for q in cocycles:
        if all(type(x) is int for x in q.as_vector().values()):
            assert all(type(coeff_bracket(A, q, (i, m), (j, t - m))[1]) is int
                       for i in range(n) for j in range(n)
                       for t in range(-1, 3) for m in (-1, 0, 2))
    vt, vd = ([q.as_vector() for q in sp.basis] for sp in (theorem, direct))
    coords = span_coordinates_many(vd, vt)
    assert None not in coords and all(_normal(x) for c in coords for x in c)

    system = RatMatrix.from_rows(full_rows(_direct_rows, A, 1, 2),
                                 n * 2 * 3 * n)
    assert all(_normal(x) for v in nullspace_basis(system) for x in v.values())
    derivations = solve_derivations_direct(A, 1, 2)
    for sp in (derivations, solve_derivations_theorem(A, 2, assert_simple=True)):
        assert all(_normal(x) for d in sp.basis for _, x in d.entries)
    basis = [d.as_vector(n, 1, 2) for d in derivations.basis]
    coords = span_coordinates_many(basis, _inner_vectors(A, 1, 2))
    assert None not in coords and all(_normal(x) for c in coords for x in c)
    found = detect_unit_like(A)  # its division of two ints must stay exact
    if found is not None:
        assert all(_normal(x) for x in found[1]) and _exact(found[2])

    q = theorem.basis[0]
    for i in range(n):
        for j in range(n):
            assert all(_exact(c) for p in bracket_basis(A, i, j)
                       for c in p.terms.values())
            for m in (-1, 0, 2):
                terms, central = coeff_bracket(A, q, (i, m), (j, 1 - m))
                assert all(_exact(c) for c in terms.values()) and _exact(central)


@pytest.mark.parametrize("build", _integral_algebras() + [pytest.param(
    lambda: catalog_build("r_alpha_beta", alpha="1/2", beta="-2/3"),
    id="r_alpha_beta:alpha=1/2,beta=-2/3")])
def test_every_route_builds_the_same_grids(build):
    """The catalog's (or gd_build's) algebra, its emitted file read back,
    and gd_build of the dense tables read back through circ and bracket
    are one algebra: every route ends in the same canonical grids."""
    A = build()
    units = [tuple(int(k == i) for k in range(A.dim)) for i in range(A.dim)]
    nov, lie = ([[list(op(x, y)) for y in units] for x in units]
                for op in (A.circ, A.bracket))
    assert A == parse_algebra(emit_algebra(A))
    assert A == gd_build(A.dim, A.basis_names, nov, lie)


def test_catalog_and_files_build_without_dense_tables(monkeypatch):
    """Only gd_build reads a dense table; the catalog and the file parser
    write the grids straight from sparse cells."""
    texts = [emit_algebra(e.build()) for e in standard_entries()]

    def refuse(table):
        raise AssertionError("a dense table was read")

    monkeypatch.setattr(qlca.gd, "_grid", refuse)
    with pytest.raises(AssertionError, match="dense table"):
        _trunc_poly(2, 0)
    for entry, text in zip(standard_entries(), texts):
        assert entry.build() == parse_algebra(text)
