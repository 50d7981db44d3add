"""One-dimensional central extensions of quadratic Lie conformal algebras.

Two independent solvers are shipped and cross-checked:

* ``solve_extensions_theorem`` solves the closed equation system on the
  four bilinear forms α_0..α_3 (valid whenever the λ-degree of cocycles is
  forced to be ≤ 3, e.g. when the Novikov part is spanned by products);
* ``solve_extensions_direct`` expands the cocycle functional equation with
  a degree-N ansatz and collects every λ^p μ^q coefficient. It acts as the
  brute-force oracle for the first method and also detects unbounded
  per-degree families.

Every basis cocycle either solver returns is then verified by
``verify_cocycle``: the central part of the conformal Jacobi identity of
the extended algebra, evaluated by the λ-bracket engine in
``qlca.conformal`` independently of both solvers.

The induced 2-cocycles of the coefficient Lie algebra (modes a⊗t^m) are
computed and verified exactly as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .conformal import _jacobi_residuals, _jacobi_tables, bracket_basis
from .gd import GDBialgebra
from .poly import (DEL, LAM, MU, FormalPoly, RatMatrix, _as_q,
                   nullspace_basis, span_rank)

MAX_CLOSED_DEGREE = 3  # λ-degree bound of the closed-form system


def _column(n, k, i, j):
    """Column of the unknown α_k(a_i, a_j) in a degree-major system."""
    return (k * n + i) * n + j


@dataclass(frozen=True)
class CocycleQuadruple:
    """A λ-degree ≤ 3 cocycle on an algebra of dimension ``dim``, stored
    once as the nonzero (column, value) pairs of its sparse vector, in
    ``_column`` order, each value an int where it is integral (``_as_q``);
    ``alpha`` is a dense view of its four forms."""

    dim: int
    entries: tuple

    @classmethod
    def from_vector(cls, n, vec):
        """The quadruple of a sparse vector indexed by ``_column``; a column
        that is no int in [0, 4n²) raises ValueError."""
        for col in vec:
            if type(col) is not int or not 0 <= col < 4 * n * n:
                raise ValueError(f"column {col} is out of range for a "
                                 f"cocycle quadruple of dimension {n}")
        return cls(n, tuple(sorted((c, _as_q(x)) for c, x in vec.items() if x)))

    @classmethod
    def zero(cls, n):
        return cls.from_vector(n, {})

    @classmethod
    def single(cls, n, k, i, j, value=1, symmetrize=True):
        """Quadruple with α_k(a_i, a_j) = value; by default the pair entry
        is filled in with the parity sign (-1)^{k+1}. A λ-degree k outside
        [0, 3] or a basis index outside [0, n) raises ValueError."""
        for kind, x, top in (("form", k, 4), ("basis", i, n), ("basis", j, n)):
            if not 0 <= x < top:
                raise ValueError(f"{kind} index {x} is out of range [0, {top})")
        value = _as_q(value)
        vec = {_column(n, k, i, j): value}
        if symmetrize and i != j:
            vec[_column(n, k, j, i)] = value if k % 2 else -value
        return cls.from_vector(n, vec)

    @cached_property
    def alpha(self):
        """4 × n × n nested tuples: alpha[k][i][j] is α_k(a_i, a_j)."""
        n = self.dim
        flat = [0] * (4 * n * n)
        for col, x in self.entries:
            flat[col] = x
        rows = [tuple(flat[r * n:(r + 1) * n]) for r in range(4 * n)]
        return tuple(tuple(rows[k * n:(k + 1) * n]) for k in range(4))

    def lambda_poly(self, i, j):
        """Σ_k λ^k α_k(a_i, a_j) as a FormalPoly."""
        return FormalPoly({(0, k, 0): self.alpha[k][i][j] for k in range(4)})

    def as_vector(self):
        """The sparse vector indexed by ``_column`` that from_vector reads."""
        return dict(self.entries)

    def _check_dim(self, n):
        """Refuse a quadruple of another dimension than n."""
        if self.dim != n:
            raise ValueError(f"cocycle quadruple of dimension {self.dim} "
                             f"for an algebra of dimension {n}")


@dataclass(frozen=True)
class CocycleSpace:
    basis: tuple  # CocycleQuadruples
    stable: bool = True
    per_degree: tuple = ()  # dims of the degree-k projections, k = 0..bound
    warnings: tuple = ()

    @property
    def dimension(self):
        return len(self.basis)


# ---------------------------------------------------------------------
# Closed system on α_0..α_3
# ---------------------------------------------------------------------


def _bilinear_terms(eq, sign, k, x, y, n):
    """Accumulate sign * α_k(x, y) into equation dict ``eq`` where x, y
    are sparse ((index, coeff), ...) terms in dimension n."""
    for i, xi in x:
        for j, yj in y:
            u = _column(n, k, i, j)
            s = eq.get(u, 0) + sign * xi * yj
            if s:
                eq[u] = s
            else:
                eq.pop(u, None)


def _unit(i):
    """The basis element a_i as sparse terms."""
    return ((i, 1),)


def solve_extensions_theorem(A: GDBialgebra) -> CocycleSpace:
    """Nullspace of the closed equation system on the 4n² unknowns
    α_k(a_i, a_j), instantiated at all basis triples."""
    n = A.dim
    rows = []
    circ, br, star = A.circ_terms, A.lie_terms, A.star_terms

    def terms(*args):
        eq = {}
        for sign, k, x, y in args:
            _bilinear_terms(eq, sign, k, x, y, n)
        rows.append(eq)

    # parity: α_k(a,b) - (-1)^{k+1} α_k(b,a) = 0
    for k in range(4):
        for i in range(n):
            for j in range(n):
                terms((1, k, _unit(i), _unit(j)),
                      (-1 if k % 2 else 1, k, _unit(j), _unit(i)))

    for ia in range(n):
        for ib in range(n):
            for ic in range(n):
                a, b, c = _unit(ia), _unit(ib), _unit(ic)
                ab, ba, cb = circ[ia][ib], circ[ib][ia], circ[ic][ib]
                bc_star, ac_star = star[ib][ic], star[ia][ic]
                lcb, lba, lca = br[ic][ib], br[ib][ia], br[ic][ia]

                # α_3(a, c∘b) = α_3(a∘b, c) and α_3(a∘b, c) = α_3(b∘a, c)
                terms((1, 3, a, cb), (-1, 3, ab, c))
                terms((1, 3, ab, c), (-1, 3, ba, c))
                # α_2(a, c∘b) + α_3(a, [c,b]) = α_2(a∘b, c) + α_3([b,a], c)
                terms((1, 2, a, cb), (1, 3, a, lcb), (-1, 2, ab, c),
                      (-1, 3, lba, c))
                # α_2(a, b∗c) + α_2(b∘a, c) = 2α_2(a∘b, c) + 3α_3([b,a], c)
                terms((1, 2, a, bc_star), (1, 2, ba, c), (-2, 2, ab, c),
                      (-3, 3, lba, c))
                # α_1(a, c∘b) + α_2(a, [c,b]) = α_1(a∘b, c) + α_2([b,a], c)
                terms((1, 1, a, cb), (1, 2, a, lcb), (-1, 1, ab, c),
                      (-1, 2, lba, c))
                # α_1(a, b∗c) - α_1(b, a∗c)
                #   = -α_1(b∘a, c) + α_1(a∘b, c) + 2α_2([b,a], c)
                terms((1, 1, a, bc_star), (-1, 1, b, ac_star), (1, 1, ba, c),
                      (-1, 1, ab, c), (-2, 2, lba, c))
                # α_0(a, c∘b) + α_1(a, [c,b]) - α_0(b, a∗c)
                #   = α_0(a∘b, c) + α_1([b,a], c)
                terms((1, 0, a, cb), (1, 1, a, lcb), (-1, 0, b, ac_star),
                      (-1, 0, ab, c), (-1, 1, lba, c))
                # α_0(a, [c,b]) - α_0(b, [c,a]) = α_0([b,a], c)
                terms((1, 0, a, lcb), (-1, 0, b, lca), (-1, 0, lba, c))

    m = RatMatrix.from_rows((r for r in rows if r), 4 * n * n)
    sols = nullspace_basis(m)
    basis = tuple(CocycleQuadruple.from_vector(n, v) for v in sols)
    per_degree = _per_degree_profile(sols, n, MAX_CLOSED_DEGREE)
    return CocycleSpace(basis, True, per_degree)


# ---------------------------------------------------------------------
# Direct expansion of the functional equation
# ---------------------------------------------------------------------


def _direct_rows(A, N):
    """Rows of the linear system obtained by expanding skew-symmetry and
    the cocycle functional equation with ansatz α_λ = Σ_{i<=N} λ^i α_i,
    at the basis pairs a ≤ b only.

    Lemma. Swap (a, λ) ↔ (b, μ) in the functional equation
    α_λ(a, [b_μ c]) − α_μ(b, [a_λ c]) − α_{λ+μ}([a_λ b], c). Skew-symmetry
    gives [b_μ a] = −[a_{−μ−∂} b], and inside the first argument of
    α_{λ+μ} the ∂ acts as −(λ+μ), so −μ−∂ becomes λ. The (b, a, c)
    identity is therefore the (a, b, c) identity times −1 with λ and μ
    exchanged: its rows are the (a, b, c) rows negated, with the λ- and
    μ-powers swapped, and the pairs a > b add no equation. Likewise the
    skew row of (q, p) at λ^i is (−1)^i times the row of (p, q). The
    diagonal a = b is kept, since no other pair implies it. The lemma
    uses only the skew-symmetry of the λ-bracket, which holds for every
    algebra ``gd_build`` or a file builds, validated or not (its Lie grid
    is always antisymmetric). ``verify_cocycle`` still checks every triple.

    A triple forms its nine products x⊗y once, places them at α_i's columns
    (offset i·n², ``place``) and lists its rows in the expansion's order.
    """
    n = A.dim
    # skew: λ^i coefficient of α_λ(a,b) + α_{-λ}(b,a), 0 at a = b, i odd
    out = [{_column(n, i, p, q): 1, _column(n, i, q, p): (-1) ** i} if p < q
           else {_column(n, i, p, p): 2} for p in range(n)
           for q in range(p, n) for i in range(N + 1) if p < q or i % 2 == 0]
    # place[i][slot]: (λ-power, μ-power, coefficient)s of the slot-th α_i
    place = [[((i + 1, 0, 1),), ((i, 1, 1),), ((i, 0, 1),),
              ((0, i + 1, -1),), ((1, i, -1),), ((0, i, -1),),
              tuple((s, i + 1 - s, comb(i + 1, s)) for s in range(i + 2)),
              tuple((s + 1, i - s, -comb(i, s)) for s in range(i + 1)),
              tuple((s, i - s, -comb(i, s)) for s in range(i + 1))]
             for i in range(N + 1)]
    order = dict.fromkeys((lp, mp) for slots in place for terms in slots
                          for lp, mp, _ in terms)
    circ, br, star = A.circ_terms, A.lie_terms, A.star_terms
    for ia in range(n):
        for ib in range(ia, n):
            for ic in range(n):
                a, b, c = _unit(ia), _unit(ib), _unit(ic)
                eqs = {}  # (λ-pow, μ-pow) -> {unknown: coeff}
                # λ·α_λ(a, c∘b), μ·α_λ(a, b∗c), α_λ(a, [c,b]); minus μ·α_μ(b,
                # c∘a), λ·α_μ(b, a∗c), α_μ(b, [c,a]); minus (-λ-μ)·α_{λ+μ}(b∘a,
                # c), λ·α_{λ+μ}(a∗b, c), α_{λ+μ}([b,a], c)
                for slot, (x, y) in enumerate((
                        (a, circ[ic][ib]), (a, star[ib][ic]), (a, br[ic][ib]),
                        (b, circ[ic][ia]), (b, star[ia][ic]), (b, br[ic][ia]),
                        (circ[ib][ia], c), (star[ia][ib], c), (br[ib][ia], c))):
                    prod = [(_column(n, 0, u, v), xu * yv)
                            for u, xu in x for v, yv in y]
                    if not prod:
                        continue
                    for i in range(N + 1):
                        off = _column(n, i, 0, 0)
                        for lp, mp, w in place[i][slot]:
                            eq = eqs.setdefault((lp, mp), {})
                            for u, v in prod:
                                eq[u + off] = eq.get(u + off, 0) + w * v
                for key in order:
                    if row := {u: v for u, v in eqs.get(key, {}).items() if v}:
                        out.append(row)
    return out


def _direct_nullspace(A, N):
    return nullspace_basis(RatMatrix.from_rows(_direct_rows(A, N),
                                               (N + 1) * A.dim * A.dim))


def _leading(basis, size):
    """The vectors of a ``nullspace_basis`` result that vanish past the
    first ``size`` coordinates. Each ends at its own free column, so this
    is the ``nullspace_basis`` of the system with the unknowns past
    ``size`` set to 0: the same vectors, not only the same span."""
    return [v for v in basis if max(v) < size]


def _per_degree_profile(basis, n, maxdeg):
    """Rank of the degree-k projection of the solution span, k = 0..maxdeg,
    for sparse vectors indexed by (k, i, j) with k ≤ maxdeg."""
    return tuple(span_rank([{c: x for c, x in v.items() if c // (n * n) == k}
                            for v in basis]) for k in range(maxdeg + 1))


def solve_extensions_direct(A: GDBialgebra, degree_bound: int = 6) -> CocycleSpace:
    """Brute-force cocycle solver with explicit λ-degree ansatz.

    Compares the solutions at ``degree_bound`` and at ``degree_bound + 1``;
    if the dimensions differ the per-degree family is unbounded and the
    result carries an "unbounded family" warning. The returned quadruple
    basis is the (always well-defined) subspace of solutions supported in
    degrees ≤ 3.

    One system is eliminated, at the largest of these bounds. The bound-t
    system is that system with every α_i, i > t, set to 0, and the columns
    are degree-major, so its basis is read off the one elimination.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    n = A.dim
    N = degree_bound
    full = _direct_nullspace(A, max(N + 1, MAX_CLOSED_DEGREE))
    sols = _leading(full, (N + 1) * n * n)
    probe = _leading(full, (N + 2) * n * n)
    stable = len(probe) == len(sols)
    warnings = ()
    if not stable:
        warnings = (
            "unbounded family: cocycle space keeps growing with the "
            f"λ-degree bound (dim {len(sols)} at N={N}, {len(probe)} at N={N + 1})",
        )
    deg3 = _leading(full, (MAX_CLOSED_DEGREE + 1) * n * n)
    basis = tuple(CocycleQuadruple.from_vector(n, v) for v in deg3)
    per_degree = _per_degree_profile(sols, n, N)
    return CocycleSpace(basis, stable, per_degree, warnings)


# ---------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------


def verify_cocycle(A: GDBialgebra, q: CocycleQuadruple):
    """Check that α_λ(a_i, a_j) = Σ_k λ^k α_k(a_i, a_j) is a conformal
    2-cocycle, i.e. that adding α_λ(a, b)·𝔠 to the λ-bracket with a
    central 𝔠 keeps a Lie conformal algebra (Bakalov-Kac-Voronov). The
    brackets come from the λ-bracket engine, so the check shares no
    formula with either extension solver: the Jacobi part is the engine's
    own expansion, the one ``check_jacobi`` runs, with α in place of the
    outer brackets: tables of width-1 sparse entries that leave out the
    zero forms, so the expansion never visits them.

    α is applied sesquilinearly: ∂ in its second argument becomes the
    form's variable, ∂ in its first argument becomes minus that variable
    (∂ kills the centre), and λ, μ inside the arguments ride along as
    scalars. A quadruple of another dimension raises ValueError. Returns
    the failing identity instances, empty iff q is a cocycle:

    * ("skew", i, j, r): r = α_λ(a_i, a_j) + α_{-λ}(a_j, a_i) ≠ 0;
    * ("jacobi", a, b, c, r): r is the central part of the Jacobi identity
      at the basis triple (a_a, a_b, a_c) in the extension,
      α_λ(a, [b_μ c]) - α_{λ+μ}([a_λ b], c) - α_μ(b, [a_λ c]) ≠ 0.
    """
    n = A.dim
    q._check_dim(n)
    lam, mu = FormalPoly.sym(LAM), FormalPoly.sym(MU)

    polys = [[q.lambda_poly(a, b) for b in range(n)] for a in range(n)]

    def forms_at(slot):  # forms[a][b] = ((0, α_slot(a_a, a_b)),), or () if 0
        return [[((0, f.substitute(LAM, slot)),) if f else () for f in row]
                for row in polys]

    at_lam, at_neg = forms_at(lam), forms_at(-lam)
    out = []
    for i in range(n):
        for j in range(n):
            r = sum((f for _, f in at_lam[i][j] + at_neg[j][i]), FormalPoly())
            if r:
                out.append(("skew", i, j, r))

    # ∂ kills the centre
    _, outer, right = _jacobi_tables(A)
    for a, b, c, (r,) in _jacobi_residuals(A, (at_lam, outer, right),
                                           forms_at(lam + mu), forms_at(mu), 1):
        r = r.substitute(DEL, 0)
        if r:
            out.append(("jacobi", a, b, c, r))
    return out


# ---------------------------------------------------------------------
# Coefficient (mode) algebra
# ---------------------------------------------------------------------


def coeff_bracket(A: GDBialgebra, q: CocycleQuadruple, gen1, gen2):
    """Bracket of modes [a_i ⊗ t^m, a_j ⊗ t^n] in the centrally extended
    coefficient algebra.

    Returns (terms, central) where terms maps (basis index, mode index) to
    an exact scalar and central is the rational coefficient of the center.
    The module part is [a_i, a_j]-reversed at mode m+n plus the two
    Novikov shifts; the central part collects the four mode cocycles
    π_0..π_3. A generator index outside [0, n) and a quadruple of another
    dimension raise ValueError.
    """
    (i, m) = gen1
    (j, n_mode) = gen2
    n = A.dim
    q._check_dim(n)
    for g in (i, j):
        if not 0 <= g < n:
            raise ValueError(f"generator index {g} is out of range for "
                             f"dimension {n}")
    terms = {}
    # a_(0)b = ∂(b∘a) + [b,a] contributes [b,a]_{m+n} - (m+n)(b∘a)_{m+n-1};
    # a_(1)b = a∗b contributes m(a∗b)_{m+n-1}; together:
    # [b,a]_{m+n} + m(a∘b)_{m+n-1} - n(b∘a)_{m+n-1}
    for mode, scale, cell in ((m + n_mode, 1, A.lie_terms[j][i]),
                              (m + n_mode - 1, m, A.circ_terms[i][j]),
                              (m + n_mode - 1, -n_mode, A.circ_terms[j][i])):
        for k, c in cell:
            terms[k, mode] = terms.get((k, mode), 0) + scale * c
    terms = {key: v for key, v in terms.items() if v}

    central = 0
    if m + n_mode + 1 == 0:
        central += q.alpha[0][i][j]
    if m + n_mode == 0:
        central += m * q.alpha[1][i][j]
    if m + n_mode - 1 == 0:
        central += m * (m - 1) * q.alpha[2][i][j]
    if m + n_mode - 2 == 0:
        central += m * (m - 1) * (m - 2) * q.alpha[3][i][j]
    return terms, central


# {(a, b) : a, b ≥ 0, a + b ≤ 4}, the principal lattice of degree 4: a
# polynomial of total degree ≤ 4 in two variables that vanishes on it is 0
_TRIANGLE = tuple((a, b) for a in range(5) for b in range(5 - a))


def check_coeff_cocycle(A: GDBialgebra, q: CocycleQuadruple, window: int):
    """Verify antisymmetry and the Lie 2-cocycle identity of the induced
    mode cocycle on generators a_i ⊗ t^m, for every mode m, and list the
    failures with |m| ≤ window, then one failure for each flagged class
    that left none there.

    Every mode bracket is read from ``coeff_bracket``, whose module
    coefficients are linear in the modes and whose central part is a
    falling factorial of degree ≤ 3 in the first mode, supported on total
    modes -1..2.

    Lemma. Fix a generator triple (i, j, k) and a total mode s. The
    cyclic residual at (a_i ⊗ t^x, a_j ⊗ t^y, a_k ⊗ t^{s-x-y}) is 0
    unless s ∈ {-1..3}, and is a polynomial of total degree ≤ 4 in (x, y):
    a module coefficient of degree ≤ 1 times a central term of degree
    ≤ 3, with every δ fixed by s. So it vanishes at every mode once it
    vanishes on the 15 points {(a, b) : a, b ≥ 0, a + b ≤ 4}. The
    residual is invariant under the rotation (x, y, z) → (y, z, x), so one
    class per cyclic orbit of (i, j, k) is evaluated and the rotations
    share its verdict. Likewise the antisymmetry residual of (a_i ⊗ t^m,
    a_j ⊗ t^{t-m}) is symmetric in the pair, 0 unless t ∈ {-1..2}, and of
    degree ≤ 3 in m, so the 4 points m = 0..3 decide it.

    Support lemma. The antisymmetry points read both orders of each pair
    i ≤ j, so each order meets every line m+n = t ∈ {-1..2} at 4
    distinct first modes; the central part is a cubic there and 0 off
    these lines, so ``central``, the generator pairs with a nonzero
    central value at those points, is exactly where it is not identically
    0. A module coefficient is affine in the modes and its two mode
    offsets never share a key at one point, so ``module[u][v]``, the
    basis indices in the module parts at the modes (0, 0), (1, 0) and
    (0, 1) (antisymmetry points too), holds every index [a_u ⊗ t^x,
    a_v ⊗ t^y] ever reaches. A class where no rotation (u, v, w) has
    some g ∈ module[u][v] with (g, w) ∈ central has a zero factor in
    every term at every mode, so its residual is 0 and it is skipped; the
    15 points would clear it, so the result is unchanged. Both supports
    are read off ``coeff_bracket``, never off q.alpha or the product
    grids, so a wrong bracket is still caught.

    A class these points prove zero has no failure at any mode, and when
    no class is flagged the window is not walked at all. The flagged
    classes are walked inside the window, in generator order. From
    window 3 on, every class has a unisolvent point set inside the
    window, so a flagged class always leaves a failure there; at windows
    1 and 2 its failures may all lie outside. The walk then appends the
    class's first failing certificate point, in the same tuple shape
    (antisymmetry classes first, each kind in certificate order), so an
    empty result means that both identities hold at every mode, at any
    window. Exact equality required; returns the list of failures.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    n = A.dim
    q._check_dim(n)
    cache = {}  # (x, y) -> coeff_bracket(A, q, x, y)

    def bracket(x, y):
        if (x, y) not in cache:
            cache[x, y] = coeff_bracket(A, q, x, y)
        return cache[x, y]

    def skew(x, y):
        return bracket(x, y)[1] + bracket(y, x)[1]

    def residual(x, y, z):
        """Σ_cyc of the central part of [[u, v], w]."""
        r = 0
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            for g, c in bracket(u, v)[0].items():
                central = bracket(g, w)[1]
                if central:
                    r += c * central
        return r

    def first_failure(kind, check, points):
        """The first failing certificate point, as a failure, or None."""
        for point in points:
            if r := check(*point):
                return (kind, *point, r)
        return None

    # the certificate's generators, modes -5..4, one tuple each for the
    # cache keys to share
    gen = {(i, m): (i, m) for i in range(n) for m in range(-5, 5)}
    # flagged class -> its first failing certificate point
    skew_flags = {}
    for i in range(n):
        for j in range(i, n):
            for t in range(-1, 3):
                points = [(gen[i, m], gen[j, t - m]) for m in range(4)]
                for x, y in points:  # both orders, even after a failure
                    bracket(x, y), bracket(y, x)
                if f := first_failure("antisymmetry", skew, points):
                    skew_flags[i, j, t] = f
    # the supports of the lemma; the cache holds the antisymmetry points
    central = {(x[0], y[0]) for (x, y), b in cache.items() if b[1]}
    module = [[{g for x, y in ((0, 0), (1, 0), (0, 1))
                for g, _ in bracket(gen[u, x], gen[v, y])[0]}
               for v in range(n)] for u in range(n)]
    flags = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rotations = ((i, j, k), (j, k, i), (k, i, j))
                if (i, j, k) != min(rotations) or not any(
                        (g, w) in central
                        for u, v, w in rotations for g in module[u][v]):
                    continue
                for s in range(-1, 4):
                    if f := first_failure("cocycle", residual, (
                            (gen[i, a], gen[j, b], gen[k, s - a - b])
                            for a, b in _TRIANGLE)):
                        flags.update((r + (s,), f) for r in rotations)
    if not skew_flags and not flags:
        return []

    modes = range(-window, window + 1)
    gens = [(i, m) for i in range(n) for m in modes]
    out = []
    listed = set()  # the classes with a failure listed, by certificate point
    for x in gens:
        for y in gens:
            f = skew_flags.get((min(x[0], y[0]), max(x[0], y[0]), x[1] + y[1]))
            if f and (r := skew(x, y)):
                out.append(("antisymmetry", x, y, r))
                listed.add(f)
    # third generators z with -1 <= m_x + m_y + m_z <= 3, in gens order
    near = {s: [z for z in gens if -1 <= s + z[1] <= 3]
            for s in range(-2 * window, 2 * window + 1)}
    for x in gens:
        for y in gens:
            for z in near[x[1] + y[1]]:
                f = flags.get((x[0], y[0], z[0], x[1] + y[1] + z[1]))
                if f and (r := residual(x, y, z)):
                    out.append(("cocycle", x, y, z, r))
                    listed.add(f)
    out += (f for f in dict.fromkeys([*skew_flags.values(),
                                      *flags.values()])
            if f not in listed)
    return out


def coeff_relation_consistency(A: GDBialgebra, window: int,
                               q: CocycleQuadruple):
    """Recompute mode brackets from first principles and compare with the
    closed form of coeff_bracket, for every pair of modes, and list the
    mismatches with |m|, |n| ≤ window.

    The independent route reads the λ-expansion coefficients a_(0)b and
    a_(1)b off the λ-bracket on generators, applies the binomial mode
    formula, and reduces (∂x)_k = -k x_{k-1}. The central contributions of
    q are also derived independently from the falling factorials of the
    mode index.

    Both routes give, per basis pair, module coefficients at the modes
    m+n-d (d = 0..2) that are polynomials of degree ≤ 2 in (m, n), and a
    central part supported on total modes m+n ∈ {-1..2}, of degree ≤ 3 in
    m there. The 16 points (m, t-m), t ∈ {-1..2}, m ∈ {0..3}, put 4
    points on each of 4 lines m+n = t, which settles both: a degree-≤2
    polynomial zero on three such lines is 0, and each central line is a
    cubic in m. A pair that agrees there agrees at every mode; only the
    other pairs are walked inside the window. From window 3 on, the
    window holds 4 points of each central line and a 3×3 grid, which is
    unisolvent for degree ≤ 2, so a flagged pair always leaves a mismatch
    there. At windows 1 and 2, a flagged pair with no mismatch inside
    gets its first mismatching certificate point listed, in the same
    tuple shape, so an empty result holds at every mode at any window.
    A window below 1 and a quadruple of another dimension raise
    ValueError.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    n = A.dim
    q._check_dim(n)

    def mismatch(i, j, expr, m, nn):
        """The mismatch at modes (m, nn), or None where the routes agree."""
        # ∂- and λ-degrees of [a_i λ a_j] are ≤ 1 (``_grid_table``)
        expected = {}
        for k, pol in enumerate(expr):
            for (ed, el, em), c in pol.terms.items():
                mode = m + nn
                coeff = c
                if el:
                    coeff = m * c
                    mode -= 1
                if ed:
                    coeff = -mode * coeff
                    mode -= 1
                expected[k, mode] = expected.get((k, mode), 0) + coeff
        expected = {key: v for key, v in expected.items() if v}
        # central part: Σ_p m(m-1)…(m-p+1) α_p δ_{m+n-p+1,0}
        central = 0
        for p in range(4):
            if m + nn - p + 1 == 0:
                fall = 1
                for t in range(p):
                    fall *= m - t
                central += fall * q.alpha[p][i][j]
        got_terms, got_central = coeff_bracket(A, q, (i, m), (j, nn))
        if got_terms != expected or got_central != central:
            return ((i, m), (j, nn), expected, central, got_terms, got_central)
        return None

    modes = range(-window, window + 1)
    out = []
    for i in range(n):
        for j in range(n):
            expr = bracket_basis(A, i, j)
            first = next((f for t in range(-1, 3) for m in range(4)
                          if (f := mismatch(i, j, expr, m, t - m))), None)
            if first is None:
                continue
            found = [f for m in modes for nn in modes
                     if (f := mismatch(i, j, expr, m, nn))]
            out += found or [first]
    return out
