"""Built-in parameterized GD bialgebras used as fixtures and golden-value
sources.

Loop-type entries are realized on cyclic index groups Z/m, which keeps them
finite while preserving the multiplication shape of their Z-graded models.
Current-type entries store the reversed Lie table of the underlying Lie
algebra so that the λ-bracket on generators comes out as [a_λ b] = [a,b].
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from .algfile import MAX_DIM, AlgebraFile
from .gd import GDBialgebra
from .poly import _as_q


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: dict = field(default_factory=dict)

    def build(self):
        return catalog_build(self.name, **self.params)


def _size(name, value, dim_per_unit=1):
    """``value`` as an integer ≥ 1 whose algebra, of dimension
    dim_per_unit·value, fits ``MAX_DIM``: a build checks the axioms over
    all n³ basis triples, so catalog builds get the cap that files get."""
    if value is None:
        raise TypeError(f"missing parameter {name!r}")
    try:
        k = _as_q(value)
    except (TypeError, ValueError):
        k = None
    if type(k) is not int or k < 1:  # quote a string the CLI read no number in
        shown = repr(value) if isinstance(value, str) else value
        raise ValueError(f"{name} must be an integer >= 1, got {shown}")
    if dim_per_unit * k > MAX_DIM:
        raise ValueError(f"{name}={k} gives dim {dim_per_unit * k}, "
                         f"which exceeds the maximum {MAX_DIM}")
    return k


def _rational(name, value):
    """``value`` as an exact rational, or a ValueError naming ``name``."""
    try:
        return _as_q(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a rational number, "
                         f"got {value!r}") from None


# sl2 on (e, f, h) is [e,f]=h, [h,e]=2e, [h,f]=-2f; the catalog stores
# the reversed bracket, which makes [a_λ b] equal the g-bracket [a,b]
_SL2_REVERSED = {(0, 1): {2: -1}, (0, 2): {0: 2}, (1, 2): {1: -2}}


def _build(names, novikov, lie):
    """The unbuilt algebra on ``names`` of the sparse cells
    {(i, j): {k: coeff}}, Lie cells with i < j, as a file gives them."""
    return AlgebraFile("catalog", len(names), names, novikov, lie)


def _vir():
    return _build(["L"], {(0, 0): {0: 1}}, {})


def _current(g="sl2", n=None):
    if g == "abelian":
        n = _size("n", n)
        return _build([f"a{i}" for i in range(n)], {}, {})
    if g != "sl2":
        raise ValueError(f"unknown coefficient Lie algebra {g!r}")
    if n is not None:
        raise TypeError("n applies only to g=abelian")
    return _build(["e", "f", "h"], {}, _SL2_REVERSED)


def _vir_current(g="sl2"):
    if g != "sl2":
        raise ValueError(f"unknown coefficient Lie algebra {g!r}")
    nov = {(0, 0): {0: 1}}  # L∘L = L
    for a in range(1, 4):
        nov[a, 0] = {a: 1}  # a∘L = a, L∘a = 0
    lie = {(i + 1, j + 1): {k + 1: c for k, c in cell.items()}
           for (i, j), cell in _SL2_REVERSED.items()}
    return _build(["L", "e", "f", "h"], nov, lie)


def _r_alpha_beta(alpha, beta):
    alpha, beta = _rational("alpha", alpha), _rational("beta", beta)
    L, W = 0, 1
    nov = {(L, L): {L: 1}, (L, W): {W: alpha - 1}, (W, L): {W: 1}}
    return _build(["L", "W"], nov, {(L, W): {W: -beta}})  # [W,L] = βW


def _loop_vir_cyclic(m):
    m = _size("m", m)
    nov = {(i, j): {(i + j) % m: -1} for i in range(m) for j in range(m)}
    return _build([f"L{i}" for i in range(m)], nov, {})


def _loop_hv_cyclic(m):
    m = _size("m", m, dim_per_unit=2)
    names = [f"L{i}" for i in range(m)] + [f"H{i}" for i in range(m)]
    nov = {}
    for i in range(m):
        for j in range(m):
            nov[i, j] = {(i + j) % m: 1}          # Li∘Lj = L(i+j)
            nov[m + j, i] = {m + (i + j) % m: 1}  # Hj∘Li = H(i+j)
    return _build(names, nov, {})


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


def catalog_build(name, validate=True, /, **params) -> GDBialgebra:
    """Build a catalog entry, its axioms checked unless ``validate`` is
    false (positional, so no entry parameter is read as it); an unknown
    or missing parameter raises TypeError naming it."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog algebra {name!r}; known: {catalog_names()}")
    builder = _BUILDERS[name]
    known = inspect.signature(builder).parameters
    for k in params:
        if k not in known:
            raise TypeError(f"unknown parameter {k!r}")
    for k, p in known.items():
        if k not in params and p.default is p.empty:
            raise TypeError(f"missing parameter {k!r}")
    return builder(**params).build(validate)


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
