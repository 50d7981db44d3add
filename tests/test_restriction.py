"""The solvers eliminate once, at the largest bound a question needs, and
read every smaller bound off that reduced echelon form. These tests solve
each smaller bound on its own and compare, vector for vector."""

import pytest

from qlca import CocycleQuadruple, solve_extensions_direct
from qlca.derivations import solve_derivations_direct, stabilized_outer
from qlca.extensions import _direct_nullspace, _leading
from test_catalog import _integral_algebras

TOP = 5  # the extension bounds N = 0..4 are read off the bound-5 basis


@pytest.mark.parametrize("build", _integral_algebras())
def test_extension_bases_restrict_from_one_elimination(build):
    A = build()
    n = A.dim
    full = _direct_nullspace(A, TOP)
    own = {N: _direct_nullspace(A, N) for N in range(TOP)}
    for N in range(TOP):
        assert _leading(full, (N + 1) * n * n) == own[N]
    for N in range(TOP - 1):
        space = solve_extensions_direct(A, N)
        assert space.basis == tuple(CocycleQuadruple.from_vector(n, v)
                                    for v in own[3])
        assert space.stable == (len(own[N]) == len(own[N + 1]))


@pytest.mark.parametrize("bounds", [(1, 2), (3, 3)])
@pytest.mark.parametrize("build", _integral_algebras())
def test_derivation_bases_restrict_from_one_elimination(build, bounds):
    R = build()
    P, D = bounds
    read, outer = stabilized_outer(R, P, D)  # one elimination, at (P, D+2)
    own = solve_derivations_direct(R, P, D)
    assert len(read.basis) == len(own.basis)
    for got, want in zip(read.basis, own.basis):
        assert got == want
    assert (read.inner_dim, read.outer_dim) == (own.inner_dim, own.outer_dim)
    assert (outer if isinstance(outer, int) else outer[1]) == own.outer_dim

