"""Built-in parameterized GD bialgebras used as fixtures and golden-value
sources.

Loop-type entries are realized on cyclic index groups Z/m, which keeps them
finite while preserving the multiplication shape of their Z-graded models.
Current-type entries store the reversed Lie table of the underlying Lie
algebra so that the λ-bracket on generators comes out as [a_λ b] = [a,b].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algfile import MAX_DIM
from .gd import GDBialgebra, gd_build
from .poly import _as_q


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: dict = field(default_factory=dict)

    def build(self):
        return catalog_build(self.name, **self.params)


def _size(name, value, dim_per_unit=1):
    """``value`` as an integer ≥ 1 whose algebra, of dimension
    dim_per_unit·value, fits ``MAX_DIM``: a build allocates n³-cell
    tables, so catalog builds get the cap that files get."""
    try:
        k = _as_q(value)
    except (TypeError, ValueError):
        k = None
    if type(k) is not int or k < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value}")
    if dim_per_unit * k > MAX_DIM:
        raise ValueError(f"{name}={k} gives dim {dim_per_unit * k}, "
                         f"which exceeds the maximum {MAX_DIM}")
    return k


def _zero_table(n):
    return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]


def _sl2_bracket():
    """Structure constants of sl2 on (e, f, h): [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    t = _zero_table(3)
    E, F, H = 0, 1, 2
    t[E][F][H] = Fraction(1)
    t[F][E][H] = Fraction(-1)
    t[H][E][E] = Fraction(2)
    t[E][H][E] = Fraction(-2)
    t[H][F][F] = Fraction(-2)
    t[F][H][F] = Fraction(2)
    return t


def _negate(table):
    return [[[-x for x in cell] for cell in row] for row in table]


def _vir():
    nov = _zero_table(1)
    nov[0][0][0] = Fraction(1)
    return gd_build(1, ["L"], nov, _zero_table(1))


def _current(g="sl2", n=None):
    if g == "abelian":
        n = _size("n", n)
        names = [f"a{i}" for i in range(n)]
        return gd_build(n, names, _zero_table(n), _zero_table(n))
    if g != "sl2":
        raise ValueError(f"unknown coefficient Lie algebra {g!r}")
    if n is not None:
        raise TypeError("n applies only to g=abelian")
    # reversed bracket: makes [a_λ b] equal the g-bracket [a,b]
    return gd_build(3, ["e", "f", "h"], _zero_table(3), _negate(_sl2_bracket()))


def _vir_current(g="sl2"):
    if g != "sl2":
        raise ValueError(f"unknown coefficient Lie algebra {g!r}")
    n = 4  # L, e, f, h
    names = ["L", "e", "f", "h"]
    nov = _zero_table(n)
    nov[0][0][0] = Fraction(1)  # L∘L = L
    for a in range(1, n):
        nov[a][0][a] = Fraction(1)  # a∘L = a, L∘a = 0
    lie = _zero_table(n)
    sl2 = _negate(_sl2_bracket())
    for i in range(3):
        for j in range(3):
            for k in range(3):
                lie[i + 1][j + 1][k + 1] = sl2[i][j][k]
    return gd_build(n, names, nov, lie)


def _r_alpha_beta(alpha, beta):
    alpha, beta = _as_q(alpha), _as_q(beta)
    nov = _zero_table(2)
    L, W = 0, 1
    nov[L][L][L] = Fraction(1)
    nov[L][W][W] = alpha - 1
    nov[W][L][W] = Fraction(1)
    lie = _zero_table(2)
    lie[W][L][W] = beta
    lie[L][W][W] = -beta
    return gd_build(2, ["L", "W"], nov, lie)


def _loop_vir_cyclic(m):
    m = _size("m", m)
    names = [f"L{i}" for i in range(m)]
    nov = _zero_table(m)
    for i in range(m):
        for j in range(m):
            nov[i][j][(i + j) % m] = Fraction(-1)
    return gd_build(m, names, nov, _zero_table(m))


def _loop_hv_cyclic(m):
    m = _size("m", m, dim_per_unit=2)
    n = 2 * m
    names = [f"L{i}" for i in range(m)] + [f"H{i}" for i in range(m)]
    nov = _zero_table(n)
    for i in range(m):
        for j in range(m):
            nov[i][j][(i + j) % m] = Fraction(1)          # Li∘Lj = L(i+j)
            nov[m + j][i][m + (i + j) % m] = Fraction(1)  # Hj∘Li = H(i+j)
    return gd_build(n, names, nov, _zero_table(n))


_BUILDERS = {
    "vir": _vir,
    "current": _current,
    "vir_current": _vir_current,
    "r_alpha_beta": _r_alpha_beta,
    "loop_vir_cyclic": _loop_vir_cyclic,
    "loop_hv_cyclic": _loop_hv_cyclic,
}


def catalog_names():
    return sorted(_BUILDERS)


def catalog_build(name, **params) -> GDBialgebra:
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog algebra {name!r}; known: {catalog_names()}")
    return _BUILDERS[name](**params)


def standard_entries():
    """The fixture set used throughout the test suite."""
    return [
        CatalogEntry("vir"),
        CatalogEntry("current", {"g": "sl2"}),
        CatalogEntry("current", {"g": "abelian", "n": 2}),
        CatalogEntry("vir_current", {"g": "sl2"}),
        CatalogEntry("r_alpha_beta", {"alpha": 3, "beta": 1}),
        CatalogEntry("r_alpha_beta", {"alpha": 0, "beta": 0}),
        CatalogEntry("r_alpha_beta", {"alpha": 0, "beta": 1}),
        CatalogEntry("r_alpha_beta", {"alpha": 1, "beta": 0}),
        CatalogEntry("r_alpha_beta", {"alpha": 1, "beta": 1}),
        CatalogEntry("r_alpha_beta", {"alpha": 2, "beta": 0}),
        CatalogEntry("loop_vir_cyclic", {"m": 3}),
        CatalogEntry("loop_vir_cyclic", {"m": 4}),
        CatalogEntry("loop_hv_cyclic", {"m": 2}),
        CatalogEntry("loop_hv_cyclic", {"m": 3}),
    ]


def entry_label(entry):
    if not entry.params:
        return entry.name
    inner = ",".join(f"{k}={v}" for k, v in entry.params.items())
    return f"{entry.name}:{inner}"
