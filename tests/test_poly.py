from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlca.poly import (DEL, LAM, MU, FormalPoly, RatMatrix, _as_q, _echelon,
                       _exact_rows, nullspace_basis, rank, solve,
                       span_coordinates, span_coordinates_many, span_rank,
                       spans_equal)


def densify(vec, cols):
    """The sparse vector ``vec`` as a tuple of ``cols`` Fractions."""
    return tuple(Fraction(vec.get(c, 0)) for c in range(cols))


def apply(m, vec):
    """M·v for a sparse vector v, computed from the stored rows."""
    return [sum(c * vec.get(col, 0) for col, c in row.items())
            for row in m.row_dicts()]


def sparse(vec):
    """The sequence ``vec`` as a sparse vector."""
    return {c: Fraction(x) for c, x in enumerate(vec) if x}


def P(**kw):
    """Build ∂^a λ^b μ^c with coefficient c0 from keyword shorthand."""
    return FormalPoly(
        {(kw.get("d", 0), kw.get("l", 0), kw.get("m", 0)): Fraction(kw.get("c", 1))}
    )


class TestFormalPoly:
    def test_zero_and_const(self):
        assert not FormalPoly()
        assert not FormalPoly.const(0)
        assert FormalPoly.const(Fraction(2, 3)).terms == {(0, 0, 0): Fraction(2, 3)}

    def test_ring_identities(self):
        d, lam = FormalPoly.sym(DEL), FormalPoly.sym(LAM)
        assert (d + lam) * (d - lam) == d * d - lam * lam
        assert (d + lam) * (d + lam) == d * d + 2 * d * lam + lam * lam
        assert d - d == FormalPoly()

    def test_scalar_ops(self):
        lam = FormalPoly.sym(LAM)
        assert 2 * lam == lam * 2 == lam + lam
        assert (lam + 1) - 1 == lam
        assert -lam == lam * (-1)

    def test_substitute_expands(self):
        d, lam, mu = (FormalPoly.sym(s) for s in (DEL, LAM, MU))
        p = lam * lam + d * lam
        q = p.substitute(LAM, lam + mu)
        assert q == (lam + mu) * (lam + mu) + d * (lam + mu)

    def test_substitute_eliminates_symbol(self):
        lam, mu = FormalPoly.sym(LAM), FormalPoly.sym(MU)
        p = FormalPoly.sym(LAM, 3).substitute(LAM, -mu)
        assert p == -FormalPoly.sym(MU, 3)

    def test_unknown_symbol_index_is_refused(self):
        for index in (3, -1):
            with pytest.raises(ValueError, match="unknown formal symbol index"):
                FormalPoly.sym(index)
        with pytest.raises(ValueError, match="unknown formal symbol index 5"):
            FormalPoly.sym(LAM).substitute(5, FormalPoly.sym(MU))

    def test_degree_and_str(self):
        p = FormalPoly.sym(DEL) + FormalPoly.sym(LAM, 2, 3)
        assert max(e[LAM] for e in p.terms) == 2
        assert max(e[DEL] for e in p.terms) == 1
        assert str(p) == "∂ + 3λ^2"
        assert str(FormalPoly()) == "0"

    @given(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 3)] * 3),
                st.fractions(max_denominator=10),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_add_commutes_mul_distributes(self, items):
        p = FormalPoly(dict(items))
        q = FormalPoly.sym(DEL) + FormalPoly.sym(MU, 2)
        assert p + q == q + p
        assert p * (q + 1) == p * q + p


class TestLinearAlgebra:
    def test_rank_and_nullspace_simple(self):
        m = RatMatrix.from_rows(
            [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}], 3
        )
        assert rank(m) == 1
        basis = nullspace_basis(m)
        assert len(basis) == 2
        for v in basis:
            assert all(x == 0 for x in apply(m, v))

    def test_nullspace_normalization_deterministic(self):
        m = RatMatrix.from_rows([{0: Fraction(1), 2: Fraction(-1)}], 3)
        basis = [densify(v, 3) for v in nullspace_basis(m)]
        # free columns are 1 and 2; each vector has 1 at its own free slot
        assert basis[0][1] == 1 and basis[0][2] == 0
        assert basis[1][2] == 1 and basis[1][1] == 0

    def test_solve_consistent_and_inconsistent(self):
        m = RatMatrix.from_rows(
            [{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1)}], 2
        )
        x = solve(m, [Fraction(5), Fraction(2)])
        assert x == (Fraction(2), Fraction(1))
        bad = RatMatrix.from_rows([{0: Fraction(1)}, {0: Fraction(1)}], 1)
        assert solve(bad, [Fraction(1), Fraction(2)]) is None

    def test_solve_rejects_a_rhs_of_the_wrong_length(self):
        m = RatMatrix.from_rows([{0: 1}, {1: 1}], 2)
        for rhs in ([1], [1, 2, 3]):
            with pytest.raises(ValueError):
                solve(m, rhs)

    def test_entries_are_the_nonzero_entries(self):
        """The read surface of a matrix: its shape and its nonzero
        entries, the same from either constructor."""
        entries = {(0, 0): 1, (0, 2): Fraction(-1, 2), (1, 1): 0, (2, 1): 3}
        nonzero = {k: v for k, v in entries.items() if v}
        m = RatMatrix(3, 3, entries)
        rows = RatMatrix.from_rows([{0: 1, 2: Fraction(-1, 2)}, {1: 0}, {1: 3}], 3)
        for a in (m, rows):
            assert (a.rows, a.cols) == (3, 3)
            assert dict(a.entries) == nonzero
            assert len(a.entries) == 3
            assert a[1, 1] == 0 and a[0, 2] == Fraction(-1, 2)
            with pytest.raises(TypeError):
                a.entries[1, 1] = 1
        for bad in ({(0, 3): 1}, {(3, 0): 1}, {(0, -1): 1}, {(-1, 0): 1}):
            with pytest.raises(IndexError):
                RatMatrix(3, 3, bad)
        for bad in ([{3: 1}], [{-1: 1}]):
            with pytest.raises(IndexError):
                RatMatrix.from_rows(bad, 3)
        for shape in ((-1, 2), (2, -1)):
            with pytest.raises(ValueError, match="negative dimensions"):
                RatMatrix(*shape)

    def test_fractional_entries(self):
        m = RatMatrix.from_rows(
            [{0: Fraction(1, 3), 1: Fraction(1, 6)}], 2
        )
        (v,) = nullspace_basis(m)
        assert Fraction(1, 3) * v[0] + Fraction(1, 6) * v[1] == 0
        assert v == {0: Fraction(-1, 2), 1: 1}

    def test_span_utilities(self):
        a = [{0: Fraction(1)}, {1: Fraction(1)}]
        b = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}]
        assert span_rank(a) == span_rank(b) == 2
        assert spans_equal(a, b)
        assert span_coordinates(b, {0: Fraction(2)}) == (
            Fraction(1),
            Fraction(1),
        )
        assert span_coordinates([a[0]], {1: Fraction(1)}) is None
        assert span_coordinates_many([], [{}, a[0]]) == [(), None]
        assert span_coordinates_many(b, a + [{}]) == [
            (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)),
            (0, 0)]

    @given(
        st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                 max_size=3),
        st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                 max_size=3),
        st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                 max_size=1),
    )
    @example([[1, 0, 0]], [], [[0, 1, 0]])  # equal ranks, different spans
    @example([[1, 0, 0], [0, 1, 0]], [[1, 1, 0]], [])  # proper subspace
    @example([], [], [])
    @example([], [], [[0, 0, 0]])
    @example([], [], [[1, 0, 0]])
    @settings(max_examples=80, deadline=None)
    def test_spans_equal_is_mutual_membership(self, a, mix, extra):
        """b mixes the vectors of a (so span b ⊆ span a) plus extra ones."""
        b = [[sum(c * v[t] for c, v in zip(row, a)) for t in range(3)]
             for row in mix]
        a, b = [sparse(v) for v in a], [sparse(v) for v in b + extra]
        mutual = (None not in span_coordinates_many(b, a)
                  and None not in span_coordinates_many(a, b))
        assert spans_equal(a, b) == spans_equal(b, a) == mutual

    @given(st.lists(st.dictionaries(st.integers(0, 7), st.integers(-3, 3),
                                    max_size=4), max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_nullspace_vectors_end_at_their_free_column(self, rows):
        """Each basis vector holds no zero, maps its free column to 1 and
        ends there, and the free columns increase: what ``_leading``
        reads."""
        m = RatMatrix.from_rows(rows, 8)
        basis = nullspace_basis(m)
        pivots = {col for col, _ in _echelon(m)}
        free = [c for c in range(8) if c not in pivots]
        assert [max(v) for v in basis] == free
        for v, f in zip(basis, free):
            assert v[f] == 1 and all(v.values())
            assert all(type(x) is Fraction for x in v.values())
            assert set(v) & set(free) == {f}

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_nullspace_vectors_annihilate(self, rows):
        m = RatMatrix.from_rows(
            [{c: Fraction(v) for c, v in enumerate(r) if v} for r in rows], 4
        )
        basis = nullspace_basis(m)
        assert rank(m) + len(basis) == 4
        for v in basis:
            assert all(x == 0 for x in apply(m, v))


def exact_rows_per_row(rows, cols):
    """Reference for ``_exact_rows``: every row checked on its own."""
    out = []
    for r, row in enumerate(rows):
        if row and not (0 <= min(row) and max(row) < cols):
            raise IndexError(f"row {r} has a column outside [0, {cols})")
        if not all(type(v) is int and v for v in row.values()):
            row = {c: q for c, v in row.items() if (q := _as_q(v))}
        out.append(row)
    return out


COLS = 4


def _systems(columns, values):
    return st.lists(st.dictionaries(columns, values, max_size=4), max_size=6)


_CLEAN = st.integers(-3, 3).filter(bool)
_ANY = st.one_of(st.integers(-3, 3),
                 st.fractions(-3, 3, max_denominator=3), st.booleans())
_IN_RANGE, _ANY_COLUMN = st.integers(0, COLS - 1), st.integers(-2, COLS + 1)


def _typed(rows):
    return [[(c, type(v), v) for c, v in row.items()] for row in rows]


class TestExactRows:
    @given(st.one_of(_systems(_IN_RANGE, _CLEAN), _systems(_IN_RANGE, _ANY),
                     _systems(_ANY_COLUMN, _CLEAN), _systems(_ANY_COLUMN, _ANY)),
           st.booleans())
    @example([{0: 1}, {COLS: 1}, {-1: 2}], False)
    @example([{0: 1}, {-1: 1}, {COLS: 2}], True)
    @example([{0: 2, 1: -1}, {2: 0, 3: 1}], False)
    @example([{0: Fraction(4, 2)}, {1: True, 2: False}], True)
    @settings(max_examples=300, deadline=None)
    def test_one_pass_check_equals_the_per_row_loop(self, rows, as_generator):
        given_rows = (row for row in rows) if as_generator else rows
        try:
            expected = exact_rows_per_row(rows, COLS)
        except IndexError as e:
            with pytest.raises(IndexError) as got:
                _exact_rows(given_rows, COLS)
            assert str(got.value) == str(e)
            return
        got = _exact_rows(given_rows, COLS)
        assert _typed(got) == _typed(expected)
        # a row of nonzero ints comes back as the same object
        assert ([g is r for g, r in zip(got, rows)]
                == [e is r for e, r in zip(expected, rows)])

    def test_values_are_made_exact(self):
        clean = [{0: 1, 3: -2}, {1: 5}]
        assert all(g is r for g, r in zip(_exact_rows(clean, COLS), clean))
        got = _exact_rows([{0: Fraction(6, 3), 1: 0, 2: True, 3: False},
                           {1: Fraction(1, 2), 2: Fraction(0)}], COLS)
        assert _typed(got) == [[(0, int, 2), (2, int, 1)],
                               [(1, Fraction, Fraction(1, 2))]]
        for bad, first in (([{0: 1}, {COLS: 1}], 1), ([{-1: 0}], 0)):
            with pytest.raises(IndexError,
                               match=rf"^row {first} has a column outside \[0, {COLS}\)$"):
                _exact_rows(bad, COLS)
