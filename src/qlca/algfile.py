"""Canonical text format for algebra definitions.

Grammar (line-based; ``#`` starts a comment; blank lines ignored)::

    algebra NAME
    dim N
    basis NAME1 NAME2 ... NAMEn
    novikov I J = K1:COEFF K2:COEFF ...
    lie I J = K1:COEFF ...
    meta KEY VALUE...
    end

* ``I``, ``J``, ``K`` are declared basis names; ``COEFF`` is a rational
  literal matching ``-?digits(/digits)?`` with nonzero denominator.
* Omitted (I, J) pairs are zero. Duplicate (I, J) lines are an error,
  and so is a target named twice in one line, zero coefficients included.
* ``lie`` lines are only permitted with I strictly before J in basis
  order; the antisymmetric completion is implied.
* ``meta`` lines are optional free-form key/value annotations, one per key.
* ``N`` is at most ``MAX_DIM``, which bounds the time of the axiom
  checks over all n³ basis triples; a larger ``dim`` is refused at its
  own line, before any basis name or table entry is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .gd import GDBialgebra, _cells_grid, _validated

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_WORD_RE = re.compile(r"[^\s#]+\Z")  # one token of a line
_WORDS_RE = re.compile(r"[^\s#]+( [^\s#]+)*\Z")  # tokens as split and rejoined

MAX_DIM = 128

_KINDS = ("novikov", "lie")  # the table directives, in emitted order


class ParseError(ValueError):
    """Syntax or structural error in an algebra-definition file; carries
    the 1-based source line number."""

    def __init__(self, message, line_no=None):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)
        self.line_no = line_no


@dataclass
class AlgebraFile:
    """Parsed but not yet validated algebra definition."""

    name: str
    dim: int
    basis: list
    novikov: dict  # (i, j) -> {k: Fraction}, indices into basis
    lie: dict      # (i, j) with i < j -> {k: Fraction}
    meta: dict = field(default_factory=dict)

    def build(self, validate=True) -> GDBialgebra:
        lie = {**self.lie, **{(j, i): {k: -c for k, c in cell.items()}
                              for (i, j), cell in self.lie.items()}}
        return _validated(GDBialgebra(
            self.dim, tuple(self.basis), _cells_grid(self.dim, self.novikov),
            _cells_grid(self.dim, lie)), validate)


def _parse_rational(tok, line_no):
    if not _RATIONAL_RE.match(tok):
        raise ParseError(f"bad rational literal {tok!r}", line_no)
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {tok!r}", line_no) from None


def parse_algebra_file(text) -> AlgebraFile:
    """Parse the canonical format into an AlgebraFile; raises ParseError
    with a line number on any syntax or structural problem."""
    name = None
    dim = None
    basis = None
    index = {}
    tables = {kind: {} for kind in _KINDS}
    seen = set()  # (kind, i, j) of every table line, all-zero ones included
    meta = {}
    ended = False

    def resolve(tok, line_no):
        if tok not in index:
            raise ParseError(f"undeclared basis name {tok!r}", line_no)
        return index[tok]

    def parse_table_line(parts, line_no, kind):
        if len(parts) < 5 or parts[3] != "=":
            raise ParseError(f"expected '{kind} I J = K:coeff ...'", line_no)
        i = resolve(parts[1], line_no)
        j = resolve(parts[2], line_no)
        if kind == "lie" and i >= j:
            raise ParseError(
                f"lie entry ({parts[1]},{parts[2]}) must have the first name "
                "strictly earlier in basis order", line_no)
        if (kind, i, j) in seen:
            raise ParseError(
                f"duplicate {kind} entry ({parts[1]},{parts[2]})", line_no)
        seen.add((kind, i, j))
        cell = {}
        for tok in parts[4:]:
            if ":" not in tok:
                raise ParseError(f"expected K:coeff, got {tok!r}", line_no)
            kname, _, lit = tok.partition(":")
            k = resolve(kname, line_no)
            if k in cell:
                raise ParseError(
                    f"repeated target {kname!r} in one entry", line_no)
            cell[k] = _parse_rational(lit, line_no)
        if cell := {k: c for k, c in cell.items() if c}:
            tables[kind][i, j] = cell

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError("content after 'end'", line_no)
        parts = line.split()
        head = parts[0]
        if head == "algebra":
            if name is not None:
                raise ParseError("duplicate 'algebra' line", line_no)
            if len(parts) != 2:
                raise ParseError("expected 'algebra NAME'", line_no)
            name = parts[1]
        elif head == "dim":
            if dim is not None:
                raise ParseError("duplicate 'dim' line", line_no)
            if (len(parts) != 2 or not re.fullmatch("[0-9]+", parts[1])
                    or int(parts[1]) < 1):
                raise ParseError("expected 'dim N' with N >= 1", line_no)
            dim = int(parts[1])
            if dim > MAX_DIM:
                raise ParseError(
                    f"dim {dim} exceeds the maximum {MAX_DIM}", line_no)
        elif head == "basis":
            if basis is not None:
                raise ParseError("duplicate 'basis' line", line_no)
            if name is None or dim is None:
                raise ParseError("'basis' must follow 'algebra' and 'dim'", line_no)
            names = parts[1:]
            if len(names) != dim:
                raise ParseError(
                    f"expected {dim} basis names, got {len(names)}", line_no)
            for s in names:
                if not _NAME_RE.match(s):
                    raise ParseError(f"bad basis name {s!r}", line_no)
            if len(set(names)) != dim:
                raise ParseError("basis names must be distinct", line_no)
            basis = names
            index = {s: i for i, s in enumerate(names)}
        elif head in tables:
            if basis is None:
                raise ParseError("algebra/dim/basis lines must come first",
                                 line_no)
            parse_table_line(parts, line_no, head)
        elif head == "meta":
            if len(parts) < 3:
                raise ParseError("expected 'meta KEY VALUE...'", line_no)
            if parts[1] in meta:
                raise ParseError(f"duplicate meta key {parts[1]!r}", line_no)
            meta[parts[1]] = " ".join(parts[2:])
        elif head == "end":
            if basis is None:
                raise ParseError("'end' before the header lines", line_no)
            ended = True
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    if basis is None:
        raise ParseError("missing algebra/dim/basis header")
    if not ended:
        raise ParseError("missing 'end' line")
    return AlgebraFile(name, dim, basis, tables["novikov"], tables["lie"],
                       meta)


def parse_algebra(text, validate=True) -> GDBialgebra:
    """Parse and build in one step; axiom violations surface as
    GDValidationError."""
    return parse_algebra_file(text).build(validate=validate)


def emit_algebra(A: GDBialgebra, name="algebra", meta=None) -> str:
    """Serialize a GDBialgebra to the canonical format; the output parses
    back to a structurally identical algebra with the same name and meta.
    A dim over ``MAX_DIM``, or a name, key or value that would not read
    back as given, raises ValueError naming it."""
    names = A.basis_names
    meta = {str(k): str(v) for k, v in (meta or {}).items()}
    if A.dim > MAX_DIM:
        raise ValueError(f"dim {A.dim} exceeds the maximum {MAX_DIM}")
    checks = [("algebra name", name, _WORD_RE)]
    checks += [("basis name", s, _NAME_RE) for s in names]
    for k, v in meta.items():
        checks += [("meta key", k, _WORD_RE), ("meta value", v, _WORDS_RE)]
    for what, s, pattern in checks:
        if not pattern.match(s):
            raise ValueError(f"{what} {s!r} cannot be written to an algebra file")
    lines = [f"algebra {name}", f"dim {A.dim}", "basis " + " ".join(names)]
    for kind, grid in zip(_KINDS, (A.circ_terms, A.lie_terms)):
        for i, row in enumerate(grid):
            for j, cell in enumerate(row):
                if cell and (kind == "novikov" or i < j):
                    body = " ".join(f"{names[k]}:{c}" for k, c in cell)
                    lines.append(f"{kind} {names[i]} {names[j]} = {body}")
    for k in sorted(meta):
        lines.append(f"meta {k} {meta[k]}")
    lines.append("end")
    return "\n".join(lines) + "\n"
