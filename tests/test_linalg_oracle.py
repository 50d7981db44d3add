"""Differential oracle: the exact linear algebra of ``qlca.poly`` against
``sympy.Matrix`` on random sparse systems and on solver systems."""

import contextlib
import copy
import runpy
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import qlca.derivations
import qlca.extensions
from qlca import (HypothesisNotDetected, catalog_build, entry_label,
                  solve_derivations_direct, solve_derivations_theorem,
                  solve_extensions_direct, solve_extensions_theorem,
                  standard_entries)
from qlca.derivations import stabilized_outer
from qlca.poly import (RatMatrix, _echelon, _int_rows, _peel, nullspace_basis,
                       rank, solve, span_coordinates_many)
from test_catalog import _trunc_poly
from test_poly import apply, densify

CHANGE_OF_BASIS = (Path(__file__).resolve().parent.parent / "scripts"
                   / "change_of_basis.py")

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
        assert all(x == 0 for x in apply(m, v))
    assert ([_exact(densify(v, m.cols)) for v in basis]
            == [tuple(v) for v in ref.nullspace()])
    x = solve(m, rhs)
    b = sympy.Matrix([_sym(v) for v in rhs])
    try:
        sol, params = ref.gauss_jordan_solve(b)
    except ValueError:  # inconsistent
        assert x is None
    else:
        assert x is not None and apply(m, dict(enumerate(x))) == list(rhs)
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
        rhs = apply(m, dict(enumerate(draw(
            st.lists(SCALARS, min_size=cols, max_size=cols)))))
    return m, rhs


@given(sparse_systems())
@settings(max_examples=150, deadline=None)
def test_linear_algebra_matches_sympy(system):
    check_against_sympy(*system)


@st.composite
def span_questions(draw):
    """Up to 5 sparse vectors in Q^dim, dim ≤ 6, where each vector past
    the first may be a combination of the ones before it, and up to 5
    targets that are each a combination of the vectors or drawn freely
    (so often outside their span). Zero entries are dropped."""
    dim = draw(st.integers(1, 6))
    free = st.dictionaries(st.integers(0, dim - 1), SCALARS, max_size=dim).map(
        lambda v: {i: x for i, x in v.items() if x})

    def combination(vectors):
        out = {}
        for v in vectors:
            c = draw(SCALARS)
            for i, x in v.items():
                out[i] = out.get(i, 0) + c * x
        return {i: x for i, x in out.items() if x}

    vectors = []
    for _ in range(draw(st.integers(0, 5))):
        dependent = vectors and draw(st.booleans())
        vectors.append(combination(vectors) if dependent else draw(free))
    targets = [combination(vectors) if draw(st.booleans()) else draw(free)
               for _ in range(draw(st.integers(0, 5)))]
    return dim, vectors, targets


@given(span_questions())
@settings(max_examples=200, deadline=None)
def test_span_coordinates_match_solve_and_sympy(question):
    """The one elimination of [vectors | targets] gives, for every target,
    what ``solve`` gives on the matrix with the vectors as columns (free
    coordinates 0, None outside the span), and that is sympy's
    Gauss–Jordan solution with every free parameter set to 0."""
    dim, vectors, targets = question
    m = RatMatrix(dim, len(vectors), {(i, j): x for j, v in enumerate(vectors)
                                      for i, x in v.items()})
    got = span_coordinates_many(vectors, targets)
    assert len(got) == len(targets)
    for coords, target in zip(got, targets):
        rhs = [target.get(i, 0) for i in range(dim)]
        assert coords == solve(m, rhs)
        if coords is not None:
            assert apply(m, dict(enumerate(coords))) == rhs
        if vectors:
            try:
                sol, params = _dense(m).gauss_jordan_solve(
                    sympy.Matrix([_sym(x) for x in rhs]))
            except ValueError:  # inconsistent
                assert coords is None
            else:
                assert _exact(coords) == tuple(sol.subs({p: 0 for p in params}))


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
        rhs = apply(m, dict(enumerate(draw(
            st.lists(SCALARS, min_size=cols, max_size=cols)))))
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
    check_against_sympy(m, apply(m, dict(enumerate(range(m.cols)))))


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
    R = catalog_build(name, **params)
    (m,) = _captured(monkeypatch, qlca.derivations,
                     lambda: solve_derivations_direct(R, 3, 3))
    check_system(m)


@CATALOG_SYSTEMS
def test_closed_derivation_system_matches_sympy(monkeypatch, name, params):
    R = catalog_build(name, **params)
    # detect_unit_like eliminates its small systems first
    *_, m = _captured(monkeypatch, qlca.derivations,
                      lambda: solve_derivations_theorem(R, 4))
    check_system(m)


def _solver_systems(monkeypatch, A):
    """The theorem and direct extension systems and the direct and closed
    derivation systems of the algebra A."""
    return [
        *_captured(monkeypatch, qlca.extensions,
                   lambda: solve_extensions_theorem(A)),
        *_captured(monkeypatch, qlca.extensions,
                   lambda: solve_extensions_direct(A, 3)),
        *_captured(monkeypatch, qlca.derivations,
                   lambda: solve_derivations_direct(A, 3, 3)),
        _captured(monkeypatch, qlca.derivations,
                  lambda: solve_derivations_theorem(A, 4))[-1],
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


# -- the kernel against a copy of its earlier column sweep ---------------
# The elimination used to sweep the columns in order: each column's pivot
# was the not yet chosen row with the smallest |entry| there, and its row
# was eliminated from every other row holding the column, found through an
# index over every row. Kept here as the reference: the reduced row
# echelon form is unique, so both must give the same pivot rows up to scale.


def column_sweep(matrix):
    forced, rows = _peel(matrix.row_dicts())
    # _int_rows dropped duplicate rows then
    pool = list({tuple(sorted(r.items())): r for r in _int_rows(rows)}.values())
    col_index = {}
    for idx, row in enumerate(pool):
        for c in row:
            col_index.setdefault(c, set()).add(idx)
    alive = set(range(len(pool)))
    pivots = []
    for col in range(matrix.cols):
        holders = list(col_index.get(col, ()))
        cands = [i for i in holders if i in alive]
        if not cands:
            continue
        piv = min(cands, key=lambda i: (abs(pool[i][col]), len(pool[i]), i))
        prow, pv = pool[piv], pool[piv][col]
        alive.discard(piv)
        pivots.append((col, piv))
        for i in holders:
            if i == piv:
                continue
            row, f = pool[i], pool[i][col]
            new = {c: v * pv for c, v in row.items()}
            for c, v in prow.items():
                s = new.get(c, 0) - f * v
                if s:
                    new[c] = s
                else:
                    del new[c]
            g = gcd(*new.values())
            if g > 1:
                new = {c: v // g for c, v in new.items()}
            for c in row.keys() - new.keys():
                col_index[c].discard(i)
            for c in new.keys() - row.keys():
                col_index.setdefault(c, set()).add(i)
            pool[i] = new
            if not new:
                alive.discard(i)
    pivots = [(col, pool[piv]) for col, piv in pivots]
    pivots += ((c, {c: 1}) for c in forced)
    return sorted(pivots, key=lambda p: p[0])


def normalized(pivots):
    """Pivot rows each divided by its pivot entry."""
    return [(col, {c: Fraction(v, row[col]) for c, v in row.items()})
            for col, row in pivots]


def _every_solver_system(monkeypatch, A):
    """Every system the theorem and direct extension solvers and the
    direct and closed derivation solvers hand to ``nullspace_basis`` at
    their default bounds, the closed solver's unit-like probes included."""
    systems = []
    for module, solver in ((qlca.extensions, solve_extensions_theorem),
                           (qlca.extensions, solve_extensions_direct),
                           (qlca.derivations, solve_derivations_direct),
                           (qlca.derivations, solve_derivations_theorem)):
        with contextlib.suppress(HypothesisNotDetected):
            systems += _captured(monkeypatch, module, lambda: solver(A))
    return systems


@pytest.mark.parametrize("build", [
    *(pytest.param(e.build, id=entry_label(e)) for e in standard_entries()),
    *(pytest.param(lambda n=n, k=k: _trunc_poly(n, k),
                   id=f"trunc_poly:n={n},kappa={k}")
      for n in (3, 6) for k in (0, 1))])
def test_echelon_matches_column_sweep_on_solver_systems(monkeypatch, build):
    systems = _every_solver_system(monkeypatch, build())
    assert len(systems) >= 3
    for m in systems:
        assert normalized(_echelon(m)) == normalized(column_sweep(m))


@st.composite
def permuted_systems(draw):
    """A sparse system with int and Fraction entries and copied rows, or a
    singleton cascade with repeated rows, and the same rows permuted."""
    m = draw(st.one_of(sparse_systems(), singleton_cascades()))[0]
    rows = draw(st.permutations(m.row_dicts()))
    return m, RatMatrix.from_rows(rows, m.cols)


@given(permuted_systems())
@settings(max_examples=200, deadline=None)
def test_echelon_does_not_depend_on_row_order(systems):
    m, shuffled = systems
    expected = normalized(column_sweep(m))
    assert normalized(_echelon(m)) == normalized(_echelon(shuffled)) == expected
    assert rank(m) == rank(shuffled) == len(expected)
    assert nullspace_basis(m) == nullspace_basis(shuffled)


def test_new_pivot_is_eliminated_from_two_earlier_pivot_rows():
    """Columns 0 and 1 take the first two rows as pivots, both holding
    column 2; the third row's pivot is column 2, so it is eliminated from
    both earlier pivot rows."""
    m = RatMatrix.from_rows([{0: 1, 2: 1}, {1: 2, 2: 1}, {2: 1, 3: 2}], 4)
    assert _echelon(m) == [(0, {0: 1, 3: -2}), (1, {1: 1, 3: -1}),
                           (2, {2: 1, 3: 2})]
    assert normalized(_echelon(m)) == normalized(column_sweep(m))
    assert nullspace_basis(m) == [{3: 1, 0: 2, 1: 1, 2: -2}]


# -- dimensions under a change of basis -----------------------------------
# change_of_basis.py writes an algebra in a unimodular basis; its tables are
# dense, and dense rows are where the order of elimination matters most.


@pytest.mark.parametrize("name, params", [
    ("r_alpha_beta", {"alpha": 2, "beta": 0}),
    ("current", {"g": "sl2"}),
    ("vir_current", {"g": "sl2"}),
])
def test_dimensions_do_not_depend_on_the_basis(name, params):
    A = catalog_build(name, **params)
    B = runpy.run_path(str(CHANGE_OF_BASIS))["change_basis"](A, 1)
    assert B != A

    def dimensions(R):
        space, outer = stabilized_outer(R, 3, 4)
        return (solve_extensions_theorem(R).dimension,
                solve_extensions_direct(R).dimension,
                space.dimension, space.inner_dim, outer)

    assert dimensions(B) == dimensions(A)
