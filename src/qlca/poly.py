"""Exact sparse polynomials in the formal symbols ∂, λ, μ, and exact
rational linear algebra (nullspace, rank, span utilities).

Scalars are exact, never float: ``int`` when integral, ``Fraction`` otherwise
(``_as_q``, which refuses a float), in every result; a ``/`` keeps a
``Fraction`` operand, as int / int is a float. Vectors (``nullspace_basis``
results, span-utility inputs) are sparse dicts of their nonzero entries.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from math import gcd

DEL, LAM, MU = 0, 1, 2
SYMBOL_NAMES = ("∂", "λ", "μ")

ZERO = Fraction(0)


def _as_q(x):
    """x as an exact scalar: an int if integral, else a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        if isinstance(x, float):
            raise TypeError(f"{x!r} is a float, not an exact scalar")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class FormalPoly:
    """Polynomial over Q in the three commuting symbols ∂, λ, μ.

    Terms are stored sparsely as a map from exponent triples
    ``(e_∂, e_λ, e_μ)`` to nonzero rational coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {k: v for k, v in terms.items() if v != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c):
        c = _as_q(c)
        return cls({(0, 0, 0): c}) if c else cls()

    @classmethod
    def sym(cls, which, power=1, coeff=1):
        if which not in (DEL, LAM, MU):
            raise ValueError(f"unknown formal symbol index {which!r}")
        exps = [0, 0, 0]
        exps[which] = power
        return cls({tuple(exps): _as_q(coeff)})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FormalPoly):
            other = FormalPoly.const(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return FormalPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return FormalPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, FormalPoly):
            other = FormalPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, FormalPoly):
            c = _as_q(other)
            if not c:
                return FormalPoly()
            return FormalPoly({k: v * c for k, v in self.terms.items()})
        out = {}
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                k = (a1 + a2, b1 + b2, c1 + c2)
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return FormalPoly(out)

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FormalPoly):
            return self.terms == other.terms
        return self.terms == FormalPoly.const(other).terms

    def __bool__(self):
        return bool(self.terms)

    def substitute(self, target, replacement):
        """Replace every occurrence of a formal symbol by a polynomial,
        fully expanded."""
        if target not in (DEL, LAM, MU):
            raise ValueError(f"unknown formal symbol index {target!r}")
        if not isinstance(replacement, FormalPoly):
            replacement = FormalPoly.const(replacement)
        if not self.terms:
            return FormalPoly()
        maxdeg = max((k[target] for k in self.terms), default=0)
        powers = [FormalPoly.const(1)]
        for _ in range(maxdeg):
            powers.append(powers[-1] * replacement)
        out = {}
        for k, v in self.terms.items():
            rest = list(k)
            e = rest[target]
            rest[target] = 0
            for (a, b, c), w in powers[e].terms.items():
                key = (rest[0] + a, rest[1] + b, rest[2] + c)
                out[key] = out.get(key, 0) + v * w
        return FormalPoly(out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            v = self.terms[k]
            mono = "".join(
                SYMBOL_NAMES[s] + (f"^{k[s]}" if k[s] > 1 else "")
                for s in (DEL, LAM, MU)
                if k[s]
            )
            if not mono:
                parts.append(str(v))
            elif v == 1:
                parts.append(mono)
            elif v == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{v}{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"FormalPoly({self})"


# ---------------------------------------------------------------------
# Sparse exact matrices
# ---------------------------------------------------------------------


def _values(rows):
    """The values of a list of {col: coeff} rows, one after another."""
    return chain.from_iterable(map(dict.values, rows))


def _exact_rows(rows, cols):
    """The {col: coeff} dicts of ``rows`` with zeros dropped and every
    coefficient exact (``_as_q``); a row of nonzero ints is kept as given.
    Raises IndexError for a column outside [0, cols).

    A system whose values are all nonzero ints and whose columns all lie
    in range, as the builders' systems are, is checked in one pass of
    C-level builtins and returned as given; any other is walked row by
    row."""
    rows = list(rows)
    if {int}.issuperset(map(type, _values(rows))) and all(_values(rows)):
        used = set().union(*rows)
        if not used or 0 <= min(used) and max(used) < cols:
            return rows
    out = []
    for r, row in enumerate(rows):
        if row and not (0 <= min(row) and max(row) < cols):
            raise IndexError(f"row {r} has a column outside [0, {cols})")
        if not all(type(v) is int and v for v in row.values()):
            row = {c: q for c, v in row.items() if (q := _as_q(v))}
        out.append(row)
    return out


class _Entries(Mapping):
    """Read-only {(r, c): coeff} view of the nonzero entries of a list of
    {col: coeff} rows; its length is a sum over the rows, not a copy."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = rows

    def __len__(self):
        return sum(map(len, self._rows))

    def __iter__(self):
        return ((r, c) for r, row in enumerate(self._rows) for c in row)

    def __getitem__(self, key):
        r, c = key
        if not 0 <= r < len(self._rows):
            raise KeyError(key)
        return self._rows[r][c]


class RatMatrix:
    """Sparse matrix over Q, stored as one {col: coeff} dict per row with
    only nonzero coefficients."""

    __slots__ = ("cols", "_rows")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        grid = [{} for _ in range(rows)]
        for (r, c), v in (entries or {}).items():
            if not 0 <= r < rows:
                raise IndexError(f"entry {(r, c)} out of bounds")
            grid[r][c] = v
        self.cols = cols
        self._rows = _exact_rows(grid, cols)

    @classmethod
    def from_rows(cls, rows_list, cols):
        """Build from an iterable of {col: coeff} dicts."""
        m = cls(0, cols)
        m._rows = _exact_rows(rows_list, cols)
        return m

    @property
    def rows(self):
        return len(self._rows)

    @property
    def entries(self):
        return _Entries(self._rows)

    def __getitem__(self, key):
        r, c = key
        return self._rows[r].get(c, ZERO)

    def row_dicts(self):
        """The stored {col: coeff} rows; callers must not mutate them."""
        return self._rows


def _int_rows(rows):
    """Clear denominators row by row and reduce by gcd; drops zero rows.
    Duplicates are kept: the elimination reduces each one to zero."""
    out = []
    for row in rows:
        if not row:
            continue
        denom_lcm = 1
        for v in row.values():
            denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
        irow = row if denom_lcm == 1 else {c: int(v * denom_lcm) for c, v in row.items()}
        g = 0
        for v in irow.values():
            g = gcd(g, v)
        if g > 1:
            irow = {c: v // g for c, v in irow.items()}
        # canonical sign: first (smallest-column) entry positive
        lead = min(irow)
        if irow[lead] < 0:
            irow = {c: -v for c, v in irow.items()}
        out.append(irow)
    return out


def _peel(rows):
    """Split off the columns that single-entry rows force to 0.

    A row with one entry forces its column to 0; the forced columns are
    dropped from every row and rows left empty are discarded, round after
    round until a round forces nothing new. Returns (forced columns, the
    remaining rows); a row that loses an entry is a new dict, so the
    given rows are never mutated.
    """
    forced = set()
    while new := {c for row in rows if len(row) == 1 for c in row}:
        forced |= new
        kept = (row if new.isdisjoint(row) else
                {c: v for c, v in row.items() if c not in new}
                for row in rows if len(row) > 1)
        rows = [row for row in kept if row]
    return forced, rows


def _eliminate(row, prow, col):
    """a·row − b·prow with a = pv/g, b = f/g for pv = prow[col],
    f = row[col] and g = gcd(pv, f), so col cancels; divided by the gcd
    of its entries to keep integers small. Both rows are left as given."""
    pv, f = prow[col], row[col]
    g = gcd(pv, f)
    a, b = pv // g, f // g
    new = {c: v * a for c, v in row.items()}
    for c, v in prow.items():
        s = new.get(c, 0) - b * v
        if s:
            new[c] = s
        else:
            del new[c]
    g = gcd(*new.values())
    return {c: v // g for c, v in new.items()} if g > 1 else new


def _echelon(matrix):
    """Fraction-free (integer, gcd-reduced) row-at-a-time Gauss–Jordan
    elimination.

    Returns the list of pivot (col, row-dict) pairs in increasing column
    order: the reduced row echelon form up to the scale of each row. Each
    pivot row holds no column left of its pivot and no other pivot
    column, so x[col] = −Σ row[c]·x[c] / row[col] over its free columns c.

    The rows are taken one at a time in the order given. A row is reduced
    once by the pivot rows of the pivot columns it holds; as a pivot row
    holds no other pivot column, one pass leaves it with none. A row
    reduced to zero is dropped. Otherwise it becomes the pivot row of its
    lowest column c, and c is eliminated from the earlier pivot rows that
    hold it, found through an index from each non-pivot column to the
    pivot columns whose rows hold it. The new pivot row holds no column
    left of c, and an earlier pivot row that holds c has its pivot left
    of c, so it gains no column left of its pivot.

    Columns forced to 0 are peeled off first (``_peel``) and returned as
    the unit pivot rows (c, {c: 1}); only the rows left over are reduced.
    That gives the same pivots as reducing every row: the row space is
    spanned by the unit rows of the forced columns together with the
    leftover rows, which hold no forced column. A unit row in the row
    space makes its column a pivot of the reduced row echelon form with
    that unit row, and the reduced form for a fixed column order is
    unique, so the reduction of the leftover rows gives exactly the other
    pivot rows, up to the scale that ``nullspace_basis`` and
    ``span_coordinates_many`` divide out.
    """
    forced, rows = _peel(matrix.row_dicts())
    pivots = {}  # pivot column -> its pivot row
    holders = {}  # non-pivot column -> pivot columns whose rows hold it
    for row in _int_rows(rows):
        for c in [c for c in row if c in pivots]:
            row = _eliminate(row, pivots[c], c)
        if not row:
            continue
        col = min(row)
        for p in holders.pop(col, ()):
            old = pivots[p]
            pivots[p] = new = _eliminate(old, row, col)
            for c in old.keys() - new.keys() - {col}:
                holders[c].discard(p)
            for c in new.keys() - old.keys():
                holders.setdefault(c, set()).add(p)
        pivots[col] = row
        for c in row:
            if c != col:
                holders.setdefault(c, set()).add(col)
    return sorted([*pivots.items(), *((c, {c: 1}) for c in forced)])


def rank(matrix):
    return len(_echelon(matrix))


def nullspace_basis(matrix):
    """Exact basis of {x : Mx = 0} as sparse vectors, normalized so that
    each basis vector has a 1 in its own free coordinate and 0 in every
    other basis vector's free coordinate; ordered by that coordinate. A
    pivot row holds no column left of its pivot but its own, so each
    vector's support ends at its free column."""
    pivots = _echelon(matrix)
    pivot_cols = {col for col, _ in pivots}
    basis = {free: {free: 1} for free in range(matrix.cols)
             if free not in pivot_cols}
    for col, row in pivots:
        for free, v in row.items():
            if free != col:
                basis[free][col] = _as_q(Fraction(-v, row[col]))
    return list(basis.values())


def solve(matrix, rhs):
    """One exact solution of Mx = b, or None if inconsistent: every free
    coordinate of the solution is 0. Mx = b says that b is Σ x_c·(column
    c of M), so x is b's coordinates in the span of M's columns, read off
    the RREF of [M | b] by ``span_coordinates_many``."""
    if len(rhs) != matrix.rows:
        raise ValueError(f"right-hand side has {len(rhs)} entries, "
                         f"the matrix {matrix.rows} rows")
    columns = [{} for _ in range(matrix.cols)]
    for (r, c), v in matrix.entries.items():
        columns[c][r] = v
    return span_coordinates_many(columns, [rhs])[0]


# ---------------------------------------------------------------------
# Span utilities (sparse vectors)
# ---------------------------------------------------------------------


def _columns_matrix(vectors):
    """The matrix whose j-th column is vectors[j]. A plain sequence, as
    ``solve``'s right-hand side and the benchmark's own tests are, is
    read as {index: entry}; the matrix drops its zeros."""
    rows = {}
    for j, vec in enumerate(vectors):
        for i, x in vec.items() if isinstance(vec, dict) else enumerate(vec):
            rows.setdefault(i, {})[j] = x
    return RatMatrix.from_rows(rows.values(), len(vectors))


def span_rank(vectors):
    return rank(_columns_matrix(vectors))


def span_coordinates_many(vectors, targets):
    """Each target's coordinates in span(vectors) as a tuple, or None if
    outside, from one elimination of [vectors | targets]. In the RREF a
    non-pivot column is the combination of the pivot columns with its
    entries in their rows, so a target is in the span iff it is no pivot
    and has no entry in a target pivot's row; its coordinates are then
    row_c[target]/row_c[c] at each vector pivot c, else 0."""
    m, cols = len(vectors), range(len(vectors), len(vectors) + len(targets))
    pivots = _echelon(_columns_matrix([*vectors, *targets]))
    outside = {c for col, row in pivots if col >= m for c in row}
    coords = {t: [0] * m for t in cols if t not in outside}
    for col, row in pivots:  # a target pivot's row holds only outside columns
        for t in coords.keys() & row.keys():
            coords[t][col] = _as_q(Fraction(row[t], row[col]))
    return [tuple(coords[t]) if t in coords else None for t in cols]


def span_coordinates(vectors, target):
    """Coordinates of target in span(vectors), or None if outside."""
    return span_coordinates_many(list(vectors), [target])[0]


def spans_equal(a, b):
    """Whether two lists of vectors span the same space: each span holds
    the other exactly when both have the rank of their union."""
    a, b = list(a), list(b)
    return span_rank(a) == span_rank(b) == span_rank(a + b)
