"""Acceptance gate: one test per top-level criterion, each printing a
single visible [PASS]/[FAIL] line."""

import random
from fractions import Fraction

import pytest

from qlca import (CocycleQuadruple, DerivationAnsatz, QuadraticLCA,
                  catalog_build, check_coeff_cocycle, check_gd_compat,
                  check_jacobi, check_lie, check_novikov, check_skew,
                  coeff_relation_consistency, detect_unit_like, entry_label,
                  gd_build, inner_derivation, outer_dimension,
                  solve_derivations_direct, solve_derivations_theorem,
                  solve_extensions_direct, solve_extensions_theorem,
                  span_coordinates, spaces_agree, spans_equal,
                  standard_entries, verify_cocycle, verify_derivation)
from test_derivations import inner_vectors


def report(capsys, ok, label, detail=""):
    tail = f" — {detail}" if detail else ""
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}{tail}")
    assert ok, f"{label}{tail}"


def test_criterion_1_axiom_identities(capsys):
    failures = []
    for entry in standard_entries():
        A = entry.build()
        R = QuadraticLCA(A)
        if (check_novikov(A) or check_lie(A) or check_gd_compat(A)
                or check_skew(R) or check_jacobi(R)):
            failures.append(entry_label(entry))
    report(capsys, not failures,
           "criterion 1: all 14 catalog algebras satisfy every axiom exactly",
           ", ".join(failures) or "14/14 clean")


def test_criterion_2_extension_dimension_table(capsys):
    expected = {
        (3, 1): 3, (0, 0): 4, (0, 1): 3, (1, 0): 5, (2, 0): 5,
    }
    got = {}
    for (a, b) in expected:
        sp = solve_extensions_theorem(catalog_build("r_alpha_beta", alpha=a, beta=b))
        got[a, b] = sp.dimension
    vir = solve_extensions_theorem(catalog_build("vir"))
    vir_ok = (
        vir.dimension == 2
        and all(q.alpha[0][0][0] == 0 and q.alpha[2][0][0] == 0 for q in vir.basis)
        and any(q.alpha[3][0][0] != 0 for q in vir.basis)
    )
    mismatches = [f"R{k}: expected {v}, computed {got[k]}"
                  for k, v in expected.items() if got[k] != v]
    if not vir_ok:
        mismatches.append("vir structure (dim 2, even forms zero, cubic generator)")
    report(capsys, not mismatches,
           "criterion 2: central-extension dimensions match the published table",
           "; ".join(mismatches) or "all five R cases and vir as published")


def _products_span(A):
    from qlca import span_rank

    prods = [dict(A.circ_terms[i][j]) for i in range(A.dim) for j in range(A.dim)]
    return span_rank(prods) == A.dim


def test_criterion_3_extension_oracle_equivalence(capsys):
    bad = []
    for entry in standard_entries():
        A = entry.build()
        if not _products_span(A):
            continue
        thm = solve_extensions_theorem(A)
        direct = solve_extensions_direct(A, degree_bound=6)
        if thm.dimension != direct.dimension or not spans_equal(
            [q.as_vector() for q in thm.basis],
            [q.as_vector() for q in direct.basis],
        ):
            bad.append(entry_label(entry))
    report(capsys, not bad,
           "criterion 3: closed-system and direct solvers give equal subspaces "
           "on every product-spanned catalog algebra", ", ".join(bad))


def test_criterion_4_current_sl2_profile(capsys):
    sp = solve_extensions_direct(catalog_build("current", g="sl2"))
    ok = (sp.dimension == 4 and sp.per_degree[0] == 3 and sp.per_degree[1] == 1
          and all(d == 0 for d in sp.per_degree[2:]) and sp.stable)
    report(capsys, ok, "criterion 4: Cur(sl2) extension space is 4-dimensional "
           "with per-degree profile (3, 1, 0, ...)",
           f"dim {sp.dimension}, profile {sp.per_degree}")


def test_criterion_5_loop_profiles(capsys):
    problems = []
    for m in (3, 4):
        sp = solve_extensions_theorem(catalog_build("loop_vir_cyclic", m=m))
        if sp.dimension != 2 * m or sp.per_degree != (0, m, 0, m):
            problems.append(f"loop_vir({m}): dim {sp.dimension}, {sp.per_degree}")
    for m in (2, 3):
        A = catalog_build("loop_hv_cyclic", m=m)
        sp = solve_extensions_theorem(A)
        if sp.dimension != 5 * m or sp.per_degree != (0, 3 * m, m, m):
            problems.append(f"loop_hv({m}): dim {sp.dimension}, {sp.per_degree}")
            continue
        # block support: quadratic forms only between L and H, cubic only L-L
        for q in sp.basis:
            for i in range(2 * m):
                for j in range(2 * m):
                    if q.alpha[0][i][j] != 0:
                        problems.append(f"loop_hv({m}): constant form present")
                    if q.alpha[2][i][j] != 0 and (i < m) == (j < m):
                        problems.append(f"loop_hv({m}): λ² outside L-H block")
                    if q.alpha[3][i][j] != 0 and not (i < m and j < m):
                        problems.append(f"loop_hv({m}): λ³ outside L-L block")
    report(capsys, not problems,
           "criterion 5: cyclic loop-algebra extension profiles match the "
           "graded shapes (2m and 5m with the expected block supports)",
           "; ".join(sorted(set(problems))))


def test_criterion_6_induced_cocycles(capsys):
    bad = []
    for entry in standard_entries():
        A = entry.build()
        for idx, q in enumerate(solve_extensions_theorem(A).basis):
            if check_coeff_cocycle(A, q, window=3):
                bad.append(f"{entry_label(entry)}#{idx}")
        if coeff_relation_consistency(A, window=4):
            bad.append(f"{entry_label(entry)}:closed-form")
    report(capsys, not bad,
           "criterion 6: every induced coefficient-algebra 2-cocycle verifies "
           "exhaustively (window 3) and the closed form matches first "
           "principles (window 4)", ", ".join(bad))


def test_criterion_7_derivation_grid(capsys):
    problems = []
    notes = []
    if outer_dimension(QuadraticLCA(catalog_build("vir")), 3, 3) != 0:
        problems.append("vir outer != 0")
    for (a, b) in ((3, 1), (1, 0), (1, 1), (2, 0), (0, 1)):
        R = QuadraticLCA(catalog_build("r_alpha_beta", alpha=a, beta=b))
        out = outer_dimension(R, 3, 3)
        if a in (0, -1):
            notes.append(f"R({a},{b}) outer {out} (reported, not asserted)")
            continue
        want = 1 if a == 1 else 0
        if out != want:
            problems.append(f"R({a},{b}): outer {out}, expected {want}")
    # the α=1 outer generator: L ↦ cW, W ↦ 0
    R = QuadraticLCA(catalog_build("r_alpha_beta", alpha=1, beta=0))
    Q = DerivationAnsatz.from_dict(1, 3, {(0, 0, 0): (Fraction(0), Fraction(1))})
    inner = inner_vectors(R, 3, 3)
    sols = [d.as_vector(2, 3, 3) for d in solve_derivations_direct(R, 3, 3).basis]
    if verify_derivation(R, Q):
        problems.append("candidate outer generator is not a derivation")
    if span_coordinates(inner, Q.as_vector(2, 3, 3)) is not None:
        problems.append("outer generator lies in the inner span")
    if any(span_coordinates(inner + [Q.as_vector(2, 3, 3)], v) is None for v in sols):
        problems.append("inner + outer generator do not span the solutions")
    if outer_dimension(QuadraticLCA(catalog_build("loop_vir_cyclic", m=3)), 3, 3) != 0:
        problems.append("loop_vir_cyclic(3) outer != 0")
    report(capsys, not problems,
           "criterion 7: outer-derivation dimensions across the grid "
           "(1 exactly at α=1, generator L ↦ W)",
           "; ".join(problems) or "; ".join(notes))


def test_criterion_8_derivation_solver_agreement(capsys):
    problems = []
    for entry in standard_entries():
        A = entry.build()
        if detect_unit_like(A) is None:
            continue
        R = QuadraticLCA(A)
        if not spaces_agree(R, solve_derivations_direct(R, 3, 3),
                            solve_derivations_theorem(R, 3)):
            problems.append(entry_label(entry))
    # Cur(sl2): outer part = scaling family λ^k(∂+λ)·id, growing with the bound
    R = QuadraticLCA(catalog_build("current", g="sl2"))
    n = R.dim
    for D in (2, 3):
        sp = solve_derivations_direct(R, 1, D)
        outer = sp.dimension - sp.inner_dim
        if outer != D:
            problems.append(f"Cur(sl2) outer {outer} at λ-bound {D}, expected {D}")
            continue
        pool = inner_vectors(R, 1, D)
        for k in range(D):
            coeffs = {}
            for j in range(n):
                vec = tuple(Fraction(1 if r == j else 0) for r in range(n))
                coeffs[(j, 1, k)] = vec
                coeffs[(j, 0, k + 1)] = vec
            d = DerivationAnsatz.from_dict(1, D, coeffs)
            if verify_derivation(R, d):
                problems.append(f"Cur(sl2) scaling map λ^{k}(∂+λ) fails")
            pool.append(d.as_vector(n, 1, D))
        for d in sp.basis:
            if span_coordinates(pool, d.as_vector(n, 1, D)) is None:
                problems.append(f"Cur(sl2) solution outside inner+scaling at D={D}")
                break
    report(capsys, not problems,
           "criterion 8: derivation solvers agree wherever the closed system "
           "applies; Cur(sl2) outer part is the scaling family with linear growth",
           "; ".join(problems))


def test_criterion_9_property_suite(capsys):
    failures = 0
    rng = random.Random(97)
    for _ in range(200):
        nov = [[[Fraction(rng.randint(-2, 2)) for _ in range(2)]
                for _ in range(2)] for _ in range(2)]
        lie = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        for k in range(2):
            c = Fraction(rng.randint(-2, 2))
            lie[0][1][k], lie[1][0][k] = c, -c
        A = gd_build(2, ["a", "b"], nov, lie, validate=False)
        gd_ok = not (check_novikov(A) or check_lie(A) or check_gd_compat(A))
        R = QuadraticLCA(A)
        conf_ok = not (check_skew(R) or check_jacobi(R))
        failures += gd_ok != conf_ok
    for entry in standard_entries():
        A = entry.build()
        R = QuadraticLCA(A)
        for v in range(A.dim):
            for k in (0, 1, 2):
                failures += bool(verify_derivation(R, inner_derivation(R, v, k)))
        for q in solve_extensions_theorem(A).basis:
            failures += bool(verify_cocycle(A, q))
        for d in solve_derivations_direct(R, 2, 2).basis:
            failures += bool(verify_derivation(R, d))
    report(capsys, failures == 0,
           "criterion 9: property suite (200 random tables: bialgebra verdict "
           "≡ conformal verdict; all solver outputs verify)",
           f"{failures} failures")
