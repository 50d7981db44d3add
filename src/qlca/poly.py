"""Exact sparse polynomials in the formal symbols ∂, λ, μ, and exact
rational linear algebra (nullspace, rank, span utilities).

Scalars are exact, never float: ``int`` when integral, ``Fraction`` otherwise
(``_as_q``); ``nullspace_basis``/``solve`` vectors hold ``Fraction``s. A ``/``
on scalars keeps a ``Fraction`` operand, since ``int / int`` is a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

DEL, LAM, MU = 0, 1, 2
SYMBOL_NAMES = ("∂", "λ", "μ")

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_q(x):
    """x as an exact scalar: an int if integral, else a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
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
    def zero(cls):
        return cls()

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

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = FormalPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FormalPoly):
            return self.terms == other.terms
        return self.terms == FormalPoly.const(other).terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def degree(self, which):
        if not self.terms:
            return -1
        return max(k[which] for k in self.terms)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), ZERO)

    def uses_only(self, symbols):
        allowed = set(symbols)
        for k in self.terms:
            for s in (DEL, LAM, MU):
                if k[s] and s not in allowed:
                    return False
        return True

    def substitute(self, target, replacement):
        """Replace every occurrence of a formal symbol by a polynomial,
        fully expanded."""
        if target not in (DEL, LAM, MU):
            raise ValueError(f"unknown formal symbol index {target!r}")
        if not isinstance(replacement, FormalPoly):
            replacement = FormalPoly.const(replacement)
        if not replacement.uses_only((DEL, LAM, MU)):
            raise ValueError("replacement uses unknown symbols")
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


class RatMatrix:
    """Sparse matrix over Q; only nonzero entries are stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self[r, c] = _as_q(v)

    def __setitem__(self, key, value):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry {key} out of bounds")
        value = _as_q(value)
        if value:
            self.entries[r, c] = value
        else:
            self.entries.pop((r, c), None)

    def __getitem__(self, key):
        return self.entries.get(key, ZERO)

    @classmethod
    def from_rows(cls, rows_list, cols):
        """Build from an iterable of {col: coeff} dicts."""
        rows_list = list(rows_list)
        m = cls(len(rows_list), cols)
        for r, row in enumerate(rows_list):
            for c, v in row.items():
                m[r, c] = v
        return m

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def matvec(self, x):
        out = [ZERO] * self.rows
        for (r, c), v in self.entries.items():
            out[r] += v * x[c]
        return out


def _int_rows(matrix):
    """Clear denominators row by row and reduce by gcd; drops zero rows
    and duplicates."""
    seen = set()
    out = []
    for row in matrix.row_dicts():
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
        key = tuple(sorted(irow.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(irow)
    return out


def _echelon(matrix):
    """Fraction-free (integer, gcd-reduced) forward elimination.

    Returns the list of pivot (col, row-dict) pairs in increasing column
    order. Pivot choice within a column is the entry of smallest absolute
    value, to limit coefficient growth.
    """
    pool = _int_rows(matrix)
    # column index: col -> set of pool slots whose row currently has col
    col_index = {}
    for idx, row in enumerate(pool):
        for c in row:
            col_index.setdefault(c, set()).add(idx)
    alive = set(range(len(pool)))

    pivots = []
    for col in range(matrix.cols):
        cands = [i for i in col_index.get(col, ()) if i in alive]
        if not cands:
            continue
        piv = min(cands, key=lambda i: (abs(pool[i][col]), len(pool[i]), i))
        prow = pool[piv]
        pv = prow[col]
        alive.discard(piv)
        pivots.append((col, prow))
        for i in cands:
            if i == piv:
                continue
            row = pool[i]
            f = row[col]
            new = {}
            for c, v in row.items():
                new[c] = v * pv
            for c, v in prow.items():
                s = new.get(c, 0) - f * v
                if s:
                    new[c] = s
                else:
                    new.pop(c, None)
            new.pop(col, None)
            # re-reduce to keep integers small
            g = 0
            for v in new.values():
                g = gcd(g, v)
            if g > 1:
                new = {c: v // g for c, v in new.items()}
            # update index
            for c in row:
                if c not in new:
                    col_index[c].discard(i)
            for c in new:
                if c not in row:
                    col_index.setdefault(c, set()).add(i)
            pool[i] = new
            if not new:
                alive.discard(i)
    return pivots


def _rref(matrix):
    """Reduced row echelon form as a list of (pivot_col, {col: Fraction})
    rows with leading 1, in increasing pivot-column order."""
    pivots = _echelon(matrix)
    reduced = []  # processed back-to-front
    for col, irow in reversed(pivots):
        frow = {c: Fraction(v, irow[col]) for c, v in irow.items() if c != col}
        frow[col] = ONE
        for pcol, prow in reduced:
            f = frow.get(pcol)
            if not f:
                continue
            for c, v in prow.items():
                s = frow.get(c, ZERO) - f * v
                if s:
                    frow[c] = s
                else:
                    frow.pop(c, None)
        reduced.insert(0, (col, frow))
    return reduced


def rank(matrix):
    return len(_echelon(matrix))


def nullspace_basis(matrix):
    """Exact basis of {x : Mx = 0}, normalized so that each basis vector
    has a 1 in its own free coordinate and 0 in every other basis
    vector's free coordinate; ordered by that coordinate."""
    reduced = _rref(matrix)
    pivot_cols = {col for col, _ in reduced}
    basis = []
    for free in range(matrix.cols):
        if free in pivot_cols:
            continue
        vec = [ZERO] * matrix.cols
        vec[free] = ONE
        for col, frow in reduced:
            coeff = frow.get(free)
            if coeff:
                vec[col] = -coeff
        basis.append(tuple(vec))
    return basis


def solve(matrix, rhs):
    """One exact solution of Mx = b, or None if inconsistent."""
    aug = RatMatrix(matrix.rows, matrix.cols + 1)
    for (r, c), v in matrix.entries.items():
        aug[r, c] = v
    for r, v in enumerate(rhs):
        aug[r, matrix.cols] = v
    reduced = _rref(aug)
    if any(col == matrix.cols for col, _ in reduced):
        return None
    x = [ZERO] * matrix.cols
    for col, frow in reduced:
        x[col] = frow.get(matrix.cols, ZERO)
    return tuple(x)


# ---------------------------------------------------------------------
# Span utilities (vectors are sequences of Fractions)
# ---------------------------------------------------------------------


def _columns_matrix(vectors):
    m = RatMatrix(len(vectors[0]), len(vectors))
    for j, v in enumerate(vectors):
        for i, x in enumerate(v):
            if x:
                m[i, j] = x
    return m


def span_rank(vectors):
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return 0
    return rank(_columns_matrix(vectors))


def span_coordinates(vectors, target):
    """Coordinates of target in span(vectors), or None if outside."""
    vectors = list(vectors)
    if not vectors:
        return None if any(target) else ()
    return solve(_columns_matrix(vectors), list(target))


def spans_equal(a, b):
    """Whether two lists of vectors span the same space: each span holds
    the other exactly when both have the rank of their union."""
    a, b = list(a), list(b)
    return span_rank(a) == span_rank(b) == span_rank(a + b)
