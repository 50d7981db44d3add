"""Differential oracle: the exact linear algebra of ``qlca.poly`` against
``sympy.Matrix`` on random sparse systems and on solver systems."""

import copy
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
from qlca.poly import (RatMatrix, _echelon, _peel, nullspace_basis, rank,
                       solve)

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


NONZERO = st.one_of(st.integers(-3, -1), st.integers(1, 3),
                    st.fractions(-3, 3, max_denominator=6).filter(bool))


@st.composite
def singleton_cascades(draw):
    """A system whose single-entry rows force a chain of columns to 0, one
    per peel round: {c0}, {c0, c1}, {c1, c2}, … with the chain running
    toward higher or lower columns. Random rows are mixed in, some rows
    are repeated, and the rows are shuffled. Returns (matrix, rhs, chain).

    The right-hand side is arbitrary, consistent (M·x0), or zero except on
    one extra row supported on the chain: that row is inconsistent, but
    only once the peel has forced its columns to 0."""
    cols = draw(st.integers(2, 8))
    chain = sorted(draw(st.sets(st.integers(0, cols - 1), min_size=2)),
                   reverse=draw(st.booleans()))
    rows = [{chain[0]: draw(NONZERO)}]
    rows += [{a: draw(NONZERO), b: draw(NONZERO)}
             for a, b in zip(chain, chain[1:])]
    rows += draw(st.lists(st.dictionaries(st.integers(0, cols - 1), NONZERO,
                                          min_size=1, max_size=4),
                          max_size=4))
    rows += [dict(rows[i]) for i in draw(st.lists(
        st.integers(0, len(rows) - 1), max_size=3))]
    kind = draw(st.sampled_from(["arbitrary", "consistent", "late"]))
    if kind == "late":
        rows.append({c: draw(NONZERO) for c in chain})
    rows = draw(st.permutations(rows))
    m = RatMatrix.from_rows(rows, cols)
    if kind == "arbitrary":
        rhs = draw(st.lists(SCALARS, min_size=m.rows, max_size=m.rows))
    elif kind == "consistent":
        rhs = m.matvec(draw(st.lists(SCALARS, min_size=cols, max_size=cols)))
    else:
        rhs = [int(set(row) == set(chain)) for row in rows]
    return m, rhs, chain


@given(singleton_cascades())
@settings(max_examples=150, deadline=None)
def test_peeled_cascades_match_sympy(system):
    m, rhs, chain = system
    forced, _ = _peel(m.row_dicts())
    assert set(chain) <= forced
    check_against_sympy(m, rhs)


def test_late_inconsistency_is_found_after_peeling():
    """The chain 0 → 1 → 2 takes three peel rounds; the last row holds no
    single entry, yet with the chain forced its right-hand side 1 has
    nothing left to meet it."""
    rows = [{2: 3, 1: -1}, {0: 2}, {0: 1, 1: 5}, {0: 1, 1: 1, 2: 1}]
    m = RatMatrix.from_rows(rows, 3)
    forced, left = _peel(m.row_dicts())
    assert forced == {0, 1, 2} and left == []
    assert solve(m, [0, 0, 0, 0]) == (0, 0, 0)
    assert solve(m, [0, 0, 0, 1]) is None
    check_against_sympy(m, [0, 0, 0, 1])


def test_peel_rounds_run_toward_lower_columns():
    rows = [{5: 1}, {5: 2, 3: 1}, {3: 1, 0: 4}, {0: 1, 1: 1, 2: 1}, {5: 1}]
    forced, left = _peel(rows)
    assert forced == {0, 3, 5}
    assert left == [{1: 1, 2: 1}]
    assert rows[3] == {0: 1, 1: 1, 2: 1}  # copied, not edited in place
    check_against_sympy(RatMatrix.from_rows(rows, 6), [0, 0, 0, 1, 0])


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


def _solver_systems(monkeypatch, A):
    """The theorem and direct extension systems and the direct and closed
    derivation systems of the algebra A."""
    R = QuadraticLCA(A)
    return [
        *_captured(monkeypatch, qlca.extensions,
                   lambda: solve_extensions_theorem(A)),
        *_captured(monkeypatch, qlca.extensions,
                   lambda: solve_extensions_direct(A, 3)),
        *_captured(monkeypatch, qlca.derivations,
                   lambda: solve_derivations_direct(R, 3, 3)),
        _captured(monkeypatch, qlca.derivations,
                  lambda: solve_derivations_theorem(R, 4))[-1],
    ]


def test_echelon_contract_on_solver_systems(monkeypatch):
    """Pivots come in increasing column order, each pivot row holds its own
    column and no other pivot column, the stored rows (the builders' dicts,
    which ``solve`` reuses) are left as they were, and a second call
    answers the same."""
    systems = _solver_systems(monkeypatch,
                              catalog_build("r_alpha_beta", alpha=2, beta=0))
    assert len(systems) == 4
    for m in systems:
        before = copy.deepcopy(m.row_dicts())
        assert _peel(m.row_dicts())[0]  # every system has forced columns
        assert m.row_dicts() == before
        pivots = _echelon(m)
        cols = [col for col, _ in pivots]
        assert cols == sorted(set(cols))
        for col, row in pivots:
            assert row[col] != 0
            assert set(row) & set(cols) == {col}
        assert m.row_dicts() == before
        assert rank(m) == rank(m) == len(pivots)
        assert nullspace_basis(m) == nullspace_basis(m)
        assert m.row_dicts() == before
