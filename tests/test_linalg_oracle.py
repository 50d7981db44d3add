"""Differential oracle: the exact linear algebra of ``qlca.poly`` against
``sympy.Matrix`` on random sparse systems and on solver systems."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import qlca.derivations
import qlca.extensions
from qlca import (QuadraticLCA, catalog_build, solve_derivations_direct,
                  solve_derivations_theorem, solve_extensions_direct,
                  solve_extensions_theorem)
from qlca.poly import RatMatrix, nullspace_basis, rank, solve

SCALARS = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(-3, 3, max_denominator=6))


def _sym(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def _dense(m):
    return sympy.Matrix(m.rows, m.cols, lambda r, c: _sym(m[r, c]))


def _exact(vector):
    return tuple(_sym(x) for x in vector)


def check_against_sympy(m, rhs):
    """rank, nullspace_basis and solve against sympy, exactly: the basis is
    sympy's RREF nullspace vector for vector, and the solution is sympy's
    Gauss–Jordan solution with every free parameter set to 0."""
    ref = _dense(m)
    assert rank(m) == ref.rank()
    basis = nullspace_basis(m)
    for v in basis:
        assert all(x == 0 for x in m.matvec(v))
    assert [_exact(v) for v in basis] == [tuple(v) for v in ref.nullspace()]
    x = solve(m, rhs)
    b = sympy.Matrix([_sym(v) for v in rhs])
    try:
        sol, params = ref.gauss_jordan_solve(b)
    except ValueError:  # inconsistent
        assert x is None
    else:
        assert x is not None and m.matvec(x) == list(rhs)
        assert _exact(x) == tuple(sol.subs({p: 0 for p in params}))


@st.composite
def sparse_systems(draw):
    """A sparse matrix up to 8×8 with some rows copied over others, and a
    right-hand side that is either arbitrary or M·x0 (so consistent)."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    entries = draw(st.dictionaries(cells, SCALARS, max_size=2 * max(rows, cols)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                            st.integers(0, rows - 1)),
                                  max_size=3)):
        entries = {(r, c): v for (r, c), v in entries.items() if r != dst}
        entries.update({(dst, c): v for (r, c), v in list(entries.items())
                        if r == src})
    m = RatMatrix(rows, cols, entries)
    if draw(st.booleans()):
        rhs = draw(st.lists(SCALARS, min_size=rows, max_size=rows))
    else:
        rhs = m.matvec(draw(st.lists(SCALARS, min_size=cols, max_size=cols)))
    return m, rhs


@given(sparse_systems())
@settings(max_examples=150, deadline=None)
def test_linear_algebra_matches_sympy(system):
    check_against_sympy(*system)


CATALOG_SYSTEMS = pytest.mark.parametrize("name, params", [
    ("vir", {}),
    ("r_alpha_beta", {"alpha": 2, "beta": 0}),
])


def _captured(monkeypatch, module, solver):
    """The systems ``solver()`` hands to ``module.nullspace_basis``, in
    call order."""
    systems = []

    def capture(m):
        systems.append(m)
        return nullspace_basis(m)

    monkeypatch.setattr(module, "nullspace_basis", capture)
    solver()
    return systems


def check_system(m):
    check_against_sympy(m, [0] * m.rows)
    check_against_sympy(m, [1] + [0] * (m.rows - 1))
    check_against_sympy(m, m.matvec(range(m.cols)))


@CATALOG_SYSTEMS
def test_theorem_extension_system_matches_sympy(monkeypatch, name, params):
    A = catalog_build(name, **params)
    (m,) = _captured(monkeypatch, qlca.extensions,
                     lambda: solve_extensions_theorem(A))
    check_system(m)


@CATALOG_SYSTEMS
def test_direct_extension_system_matches_sympy(monkeypatch, name, params):
    A = catalog_build(name, **params)
    (m,) = _captured(monkeypatch, qlca.extensions,
                     lambda: solve_extensions_direct(A, 3))
    check_system(m)


@CATALOG_SYSTEMS
def test_direct_derivation_system_matches_sympy(monkeypatch, name, params):
    R = QuadraticLCA(catalog_build(name, **params))
    (m,) = _captured(monkeypatch, qlca.derivations,
                     lambda: solve_derivations_direct(R, 3, 3))
    check_system(m)


@CATALOG_SYSTEMS
def test_closed_derivation_system_matches_sympy(monkeypatch, name, params):
    R = QuadraticLCA(catalog_build(name, **params))
    # detect_unit_like eliminates its small systems first
    *_, m = _captured(monkeypatch, qlca.derivations,
                      lambda: solve_derivations_theorem(R, 4))
    check_system(m)
