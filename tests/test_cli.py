import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from qlca import catalog_build, entry_label, parse_algebra, standard_entries
from qlca.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_catalog_target_ok(self, capsys):
        code, out, _ = run(capsys, "check", "catalog:vir")
        assert code == 0
        assert "all axioms hold" in out
        assert "[L λ L] = (∂ + 2λ)L" in out

    def test_catalog_with_params(self, capsys):
        code, out, _ = run(capsys, "check", "catalog:r_alpha_beta:alpha=3,beta=1")
        assert code == 0

    def test_bad_file_reports_violations_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text(
            "algebra bad\ndim 2\nbasis a b\n"
            "novikov a b = b:1\nnovikov b a = a:1\nend\n"
        )
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 1
        assert "violations found" in out

    def test_conformal_violations_read_like_the_gd_ones(self, capsys,
                                                        tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text(
            "algebra bad\ndim 2\nbasis a b\n"
            "novikov a b = b:1\nnovikov b a = a:1\nend\n"
        )
        code, out, _ = run(capsys, "--json", "check", str(bad))
        assert code == 1
        jacobi = json.loads(out)["violations"]["conformal_jacobi"]
        assert jacobi[0] == ("conformal Jacobi fails at basis triple (0,0,1); "
                             "residual (-∂λ + ∂μ, 0)")
        assert all("FormalPoly" not in v for v in jacobi)
        # no GD bialgebra breaks conformal skew-symmetry, so word one directly
        from qlca import LAM, FormalPoly
        from qlca.cli import _conformal_violation
        assert (_conformal_violation("conformal skew-symmetry", "pair", (0, 1),
                                     (FormalPoly.sym(LAM), FormalPoly()))
                == "conformal skew-symmetry fails at basis pair (0,1); "
                   "residual (λ, 0)")

    def test_syntax_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "syntax.alg"
        f.write_text("algebra x\ndim 1\nbasis L\nnovikov L L = L:1/0\nend\n")
        code, _, err = run(capsys, "check", str(f))
        assert code == 2
        assert "line 4" in err

    def test_dim_over_cap_exit_2(self, capsys, tmp_path):
        f = tmp_path / "big.alg"
        f.write_text("algebra big\ndim 1000000\nbasis a\nend\n")
        code, out, err = run(capsys, "check", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: line 2: dim 1000000 exceeds the maximum")

    def test_unknown_catalog_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "catalog:missing")
        assert code == 2
        assert "unknown catalog" in err

    def test_zero_denominator_parameter_exit_2(self, capsys):
        code, out, err = run(capsys, "check",
                             "catalog:r_alpha_beta:alpha=1/0,beta=1")
        assert code == 2 and out == ""
        assert err == ("error: catalog parameter 'alpha=1/0' has a zero "
                       "denominator\n")

    @pytest.mark.parametrize("target, message", [
        ("loop_vir_cyclic:m=5/2", "m must be an integer >= 1, got 5/2"),
        ("current:g=abelian,n=3/2", "n must be an integer >= 1, got 3/2"),
    ])
    def test_non_integral_size_exit_2(self, capsys, target, message):
        code, out, err = run(capsys, "--json", "check", "catalog:" + target)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("target, message", [
        ("current:g=abelian,n=129", "n=129 gives dim 129"),
        ("loop_hv_cyclic:m=65", "m=65 gives dim 130"),
    ])
    def test_catalog_dim_over_cap_exit_2_before_building(
            self, capsys, monkeypatch, target, message):
        """The cap is checked on the parameter, so no algebra of the
        refused size, whose axiom checks take n³ steps, is ever built."""
        import qlca.algfile
        import qlca.catalog

        def refuse(*args):
            raise AssertionError("an algebra was built")

        monkeypatch.setattr(qlca.catalog, "_build", refuse)
        monkeypatch.setattr(qlca.algfile.AlgebraFile, "build", refuse)
        code, out, err = run(capsys, "check", "catalog:" + target)
        assert code == 2 and out == ""
        assert err == f"error: {message}, which exceeds the maximum 128\n"

    @pytest.mark.parametrize("target, message", [
        ("current:g=sl2,n=5", "bad parameters for 'current': "
                              "n applies only to g=abelian"),
        ("vir_current:g=sl2,n=7", "bad parameters for 'vir_current': "
                                  "unknown parameter 'n'"),
    ])
    def test_size_for_a_fixed_dim_algebra_exit_2(self, capsys, target,
                                                 message):
        code, out, err = run(capsys, "--json", "check", "catalog:" + target)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("target, message", [
        ("loop_hv_cyclic:m=3,m=4", "catalog parameter 'm' given twice"),
        ("r_alpha_beta:alpha=1, alpha =2,beta=0",
         "catalog parameter 'alpha' given twice"),
        ("r_alpha_beta:alpha=1", "bad parameters for 'r_alpha_beta': "
                                 "missing parameter 'beta'"),
        ("r_alpha_beta:alpha=1,beta=0,gamma=2",
         "bad parameters for 'r_alpha_beta': unknown parameter 'gamma'"),
        ("vir:m=2", "bad parameters for 'vir': unknown parameter 'm'"),
        ("current:g=abelian", "bad parameters for 'current': "
                              "missing parameter 'n'"),
        ("vir:=3", "catalog parameter '=3' is not k=v"),
        ("vir:", "catalog parameter '' is not k=v"),
        ("vir:,", "catalog parameter '' is not k=v"),
        ("r_alpha_beta:alpha=x,beta=0",
         "alpha must be a rational number, got 'x'"),
        ("r_alpha_beta:alpha=1,beta=", "beta must be a rational number, got ''"),
        ("loop_hv_cyclic:m=", "m must be an integer >= 1, got ''"),
        ("loop_vir_cyclic:m=two", "m must be an integer >= 1, got 'two'"),
        ("vir_current:g=so3", "unknown coefficient Lie algebra 'so3'"),
        # catalog_build's validate flag is positional, never an entry key
        ("vir:validate=0", "bad parameters for 'vir': "
                           "unknown parameter 'validate'"),
    ])
    def test_bad_catalog_parameter_is_named_exit_2(self, capsys, target,
                                                   message):
        """A repeated key is refused, not overwritten, and a missing or
        unknown key is named without the builder's Python signature. An
        empty key or an empty parameter list after ':' is not k=v. A value
        that is no number is quoted beside the parameter it was given for."""
        code, out, err = run(capsys, "--json", "check", "catalog:" + target)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.alg"))
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["check", "catalog:vir_current:g=sl2"],
        ["check", "catalog:loop_hv_cyclic:m=2"],
        ["extend", "catalog:vir_current:g=sl2", "--method", "theorem"],
    ])
    def test_each_gd_axiom_check_runs_once(self, capsys, monkeypatch, argv):
        """``check`` loads a catalog target unvalidated and runs the three
        GD checks itself; the other commands validate it while loading."""
        import qlca.cli
        import qlca.gd

        calls = []
        for name in ("check_novikov", "check_lie", "check_gd_compat"):
            def counted(A, fn=getattr(qlca.gd, name), name=name):
                calls.append(name)
                return fn(A)
            for module in (qlca.gd, qlca.cli):
                monkeypatch.setattr(module, name, counted)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert sorted(calls) == ["check_gd_compat", "check_lie", "check_novikov"]


# two tables that break the bialgebra axioms: Novikov alone, and Novikov
# and compatibility with a fractional residual entry
INVALID = ("algebra bad\ndim 2\nbasis a b\n"
           "novikov a b = b:1\nnovikov b a = a:1\nend\n")
INCOMPATIBLE = ("algebra incompatible\ndim 3\nbasis a b c\n"
                "novikov a a = a:1\nnovikov b a = b:1\nnovikov c a = c:2\n"
                "lie a b = c:1\nlie b c = a:1/2\nend\n")


class TestAxiomViolations:
    """``check`` lists the violations of an axiom-breaking file; the other
    commands refuse it with exit 1 and the violations on stderr. Each
    residual entry is printed as a number, as the conformal ones are."""

    @pytest.mark.parametrize("text, shown", [
        (INVALID,
         "right-commutativity fails at basis triple (0,0,1); residual (-1, 0)"),
        (INCOMPATIBLE,
         "compatibility fails at basis triple (0,1,2); residual (-1/2, 0, 0)"),
    ], ids=["invalid", "incompatible"])
    def test_check_prints_residual_entries_as_numbers(self, capsys, tmp_path,
                                                      text, shown):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        code, out, err = run(capsys, "--json", "check", str(path))
        assert code == 1 and err == ""
        listed = [v for vs in json.loads(out)["violations"].values() for v in vs]
        assert shown in listed
        assert [v for v in listed if "Fraction(" in v] == []

    @pytest.mark.parametrize("text", [INVALID, INCOMPATIBLE],
                             ids=["invalid", "incompatible"])
    @pytest.mark.parametrize("argv", [
        ["extend"], ["extend", "--method", "direct"], ["derive"],
        ["derive", "--assert-simple"],
        ["coeff", "--cocycle-index", "0", "--window", "1"],
    ])
    def test_other_commands_refuse_with_the_violations(self, capsys, tmp_path,
                                                       argv, text):
        from qlca import check_gd_compat, check_lie, check_novikov

        path = tmp_path / "bad.alg"
        path.write_text(text)
        A = parse_algebra(text, validate=False)
        violations = check_novikov(A) + check_lie(A) + check_gd_compat(A)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 1 and out == ""
        first, *rest = err.splitlines()
        assert first == (f"axiom violation: axiom violations: {violations[0]} "
                         f"(+{len(violations) - 1} more)")
        assert rest == [f"  {v}" for v in violations]
        assert "Fraction(" not in err


class TestExtend:
    def test_both_methods_json_certificate(self, capsys):
        code, out, _ = run(
            capsys, "--json", "extend", "catalog:r_alpha_beta:alpha=2,beta=0",
            "--method", "both",
        )
        assert code == 0
        data = json.loads(out)
        assert data["theorem"]["dimension"] == 4
        assert data["direct"]["dimension"] == 4
        assert "methods agree" in data["agreement"]
        cert = data["mutual_membership"]
        assert all(c is not None for c in cert["theorem_in_direct"])
        assert all(c is not None for c in cert["direct_in_theorem"])
        # coordinates parse back to exact rationals
        from fractions import Fraction

        for coords in cert["theorem_in_direct"]:
            [Fraction(x) for x in coords]

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "extend", "catalog:vir", "--method", "theorem")
        assert code == 0
        assert "dimension: 2" in out
        assert "λ^3" in out

    def test_each_distinct_basis_cocycle_is_verified_once(self, capsys,
                                                          monkeypatch):
        # both solvers return the same 15 basis cocycles here
        from qlca import cli

        calls = []

        def counted(A, q):
            calls.append(q)
            return verify(A, q)

        verify = cli.verify_cocycle
        monkeypatch.setattr(cli, "verify_cocycle", counted)
        code, out, _ = run(capsys, "--json", "extend",
                           "catalog:loop_hv_cyclic:m=3")
        assert code == 0
        data = json.loads(out)
        assert data["theorem"]["verified"] and data["direct"]["verified"]
        assert data["theorem"]["dimension"] == 15
        assert len(calls) == len(set(calls)) == 15

    @pytest.mark.parametrize("swap", [False, True],
                             ids=["proper-subspace", "equal-dimension"])
    def test_methods_disagree_without_mutual_membership(self, capsys,
                                                        monkeypatch, swap):
        """A direct space that lacks the theorem's last cocycle, or holds
        another one in its place, disagrees, with null at the cocycle that
        the other space misses: mutual membership alone decides."""
        from dataclasses import replace

        from qlca import CocycleQuadruple, cli

        def lacking(A, degree_bound):
            space = solve(A, degree_bound=degree_bound)
            # α_2(L, L) is outside the span of vir's α_1 and α_3
            other = (CocycleQuadruple.single(A.dim, 2, 0, 0),) if swap else ()
            return replace(space, basis=space.basis[:-1] + other)

        solve = cli.solve_extensions_direct
        monkeypatch.setattr(cli, "solve_extensions_direct", lacking)
        code, out, _ = run(capsys, "--json", "extend", "catalog:vir")
        assert code == 1
        data = json.loads(out)
        assert data["agreement"] == "methods disagree"
        assert data["theorem"]["dimension"] == 2
        assert data["direct"]["dimension"] == (2 if swap else 1)
        cert = data["mutual_membership"]
        assert [c is None for c in cert["theorem_in_direct"]] == [False, True]
        assert ([c is None for c in cert["direct_in_theorem"]]
                == [False, True][:1 + swap])

    def test_unbounded_warning_shown(self, capsys):
        code, out, _ = run(
            capsys, "--json", "extend", "catalog:current:g=abelian,n=2",
            "--method", "direct",
        )
        assert code == 0
        data = json.loads(out)
        assert any("unbounded" in w for w in data["direct"]["warnings"])


class TestDerive:
    def test_vir_all_inner(self, capsys):
        code, out, _ = run(capsys, "derive", "catalog:vir")
        assert code == 0
        assert "outer_dimension: 0" in out
        assert "CDer = CInn" in out

    def test_alpha1_outer(self, capsys):
        code, out, _ = run(
            capsys, "--json", "derive", "catalog:r_alpha_beta:alpha=1,beta=0"
        )
        assert code == 0
        data = json.loads(out)
        assert data["outer_dimension"] == 1
        assert data["solvers_agree"] is True

    def test_no_unit_like_skips_theorem(self, capsys):
        code, out, _ = run(capsys, "--json", "derive", "catalog:current:g=sl2")
        assert code == 0
        data = json.loads(out)
        assert "skipped" in data["theorem_solver"]
        assert data["outer_dimension"] == "not stabilized"

    def test_assert_simple_flag(self, capsys):
        code, out, _ = run(
            capsys, "--json", "derive", "catalog:current:g=sl2", "--assert-simple",
            "--lambda-bound", "2",
        )
        assert code == 0
        data = json.loads(out)
        assert "theorem_dimension" in data


class TestCoeff:
    def test_exhaustive_ok(self, capsys):
        code, out, _ = run(
            capsys, "coeff", "catalog:vir", "--cocycle-index", "0", "--window", "2"
        )
        assert code == 0
        assert "induced 2-cocycle verified" in out

    def test_report_has_no_mode_key(self, capsys):
        """There is one mode-cocycle walk, so the report names none."""
        for window in ("1", "3"):
            code, out, _ = run(
                capsys, "--json", "coeff", "catalog:vir", "--cocycle-index", "0",
                "--window", window,
            )
            assert code == 0
            assert "mode" not in json.loads(out)

    @pytest.mark.parametrize("argv", [["--help"], ["coeff", "--help"]])
    def test_help_lists_no_sampling_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "usage: qlca" in out
        assert "--samples" not in out and "--seed" not in out

    def test_failures_are_listed_up_to_20(self, capsys, monkeypatch):
        import qlca.extensions

        true_bracket = qlca.extensions.coeff_bracket

        def shifted(A, q, x, y):  # every central part off by one
            terms, central = true_bracket(A, q, x, y)
            return terms, central + 1

        monkeypatch.setattr(qlca.extensions, "coeff_bracket", shifted)
        code, out, err = run(capsys, "--json", "coeff", "catalog:vir",
                             "--cocycle-index", "0", "--window", "3")
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["verdict"] == "violations found"
        count = int(report["mode_cocycle_check"].split()[0])
        assert report["mode_cocycle_check"] == f"{count} failures"
        assert count > 20 and len(report["failures"]) == 20
        assert report["failures"][0].startswith("('antisymmetry', ")
        assert report["closed_form_consistency"].endswith(" mismatches")

    def test_index_out_of_range_exit_2(self, capsys):
        code, _, err = run(
            capsys, "coeff", "catalog:vir", "--cocycle-index", "9", "--window", "2"
        )
        assert code == 2
        assert "out of range" in err


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "vir" in out

    def test_emit_parses_back(self, capsys, tmp_path):
        code, out, _ = run(capsys, "catalog", "emit", "loop_hv_cyclic:m=2")
        assert code == 0
        from qlca import catalog_build, parse_algebra

        assert parse_algebra(out) == catalog_build("loop_hv_cyclic", m=2)

    @pytest.mark.parametrize("ref", ["loop_hv_cyclic:m=0", "nosuch", "vir:m=1",
                                     "vir:x", "r_alpha_beta:alpha=1/0,beta=1"])
    def test_emit_resolves_like_a_catalog_target(self, capsys, ref):
        emit = run(capsys, "catalog", "emit", ref)
        check = run(capsys, "check", "catalog:" + ref)
        assert emit[0] == check[0] == 2
        assert emit[2] == check[2] and emit[2].startswith("error: ")

    def test_emit_without_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "emit"])
        assert exc.value.code == 2

    def test_list_with_name_exits_2(self, capsys):
        # the name was ignored and the whole list printed, exit 0, before
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "list", "vir"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith("catalog list takes no NAME")

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["extend"])
        assert exc.value.code == 2


class TestOneParserPerProcess:
    """``main`` keeps its parser for the process and nothing else: every
    question loads, solves and reports afresh."""

    def test_a_second_call_builds_no_parser(self, capsys, monkeypatch):
        import argparse

        run(capsys, "catalog", "list")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0 and "vir" in out
        assert built == []

    def test_options_of_one_call_do_not_reach_the_next(self, capsys):
        code, out, _ = run(capsys, "--json", "extend", "catalog:vir",
                           "--method", "theorem", "--degree", "2")
        assert code == 0 and json.loads(out)["method"] == "theorem"
        code, out, _ = run(capsys, "--json", "extend", "catalog:vir")
        report = json.loads(out)
        assert code == 0 and report["method"] == "both"
        # one projection dimension per λ-degree 0..6, the default bound
        assert len(report["direct"]["per_degree"]) == 7

    def test_a_repeated_usage_error_reads_the_same(self, capsys):
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["extend"])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            errs.append(err)
        assert errs[0] == errs[1]
        assert errs[0].endswith(
            "error: the following arguments are required: target\n")


# a short mixed sequence: one question of each command and a usage error
MIXED_QUESTIONS = [
    ["check", "catalog:r_alpha_beta:alpha=1,beta=0"],
    ["--json", "extend", "catalog:vir_current:g=sl2", "--degree", "2"],
    ["--json", "derive", "catalog:r_alpha_beta:alpha=1,beta=0",
     "--partial-bound", "1", "--lambda-bound", "2"],
    ["--json", "coeff", "catalog:current:g=sl2", "--cocycle-index", "1",
     "--window", "2"],
    ["catalog", "emit", "loop_vir_cyclic:m=3"],
    ["derive", "catalog:vir", "--lambda-bound", "x"],
]


def test_answers_do_not_depend_on_call_order(capsys):
    """One process asks the sequence forward, then backward; each
    question's stdout, stderr and exit code are the same both times."""
    def ask(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    forward = [ask(q) for q in MIXED_QUESTIONS]
    backward = [ask(q) for q in reversed(MIXED_QUESTIONS)][::-1]
    assert [code for code, _, _ in forward] == [0, 0, 0, 0, 0, 2]
    assert forward == backward


class TestBadBounds:
    """Out-of-range bounds end in exit 2 with an error line, never in a
    traceback or a meaningless answer."""

    def rejected(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_negative_degree(self, capsys):
        err = self.rejected(capsys, "extend", "catalog:vir", "--degree", "-1")
        assert "error: argument --degree: must be >= 0" in err

    def test_non_integer_degree(self, capsys):
        err = self.rejected(capsys, "extend", "catalog:vir", "--degree", "x")
        assert "error: argument --degree: 'x' is not an integer" in err

    def test_zero_window(self, capsys):
        err = self.rejected(capsys, "coeff", "catalog:vir", "--cocycle-index",
                            "0", "--window", "0")
        assert "error: argument --window: must be >= 1" in err

    def test_negative_partial_bound(self, capsys):
        err = self.rejected(capsys, "derive", "catalog:vir",
                            "--partial-bound", "-1")
        assert "error: argument --partial-bound: must be >= 0" in err

    def test_negative_lambda_bound(self, capsys):
        err = self.rejected(capsys, "derive", "catalog:vir",
                            "--lambda-bound", "-1")
        assert "error: argument --lambda-bound: must be >= 0" in err

    def test_negative_samples(self, capsys):
        err = self.rejected(capsys, "coeff", "catalog:vir", "--cocycle-index",
                            "0", "--window", "2", "--samples", "-5")
        assert "error: unrecognized arguments: --samples -5" in err

    @pytest.mark.parametrize("argv", [
        ["coeff", "catalog:vir", "--cocycle-index", "0", "--window", "3",
         "--samples", "5"],
        ["--seed", "3", "coeff", "catalog:vir", "--cocycle-index", "0",
         "--window", "3"],
    ])
    def test_sampling_options_are_gone(self, capsys, argv):
        # coeff checks every mode; there is no sampled run to ask for
        err = self.rejected(capsys, *argv)
        assert err.splitlines()[-1].startswith("qlca: error: ")
        assert "Traceback" not in err

    def test_library_value_error_exit_2(self, capsys, monkeypatch):
        import qlca.cli

        def refuse(*args, **kwargs):
            raise ValueError("degree bound must be non-negative")

        monkeypatch.setattr(qlca.cli, "solve_extensions_direct", refuse)
        code, out, err = run(capsys, "extend", "catalog:vir")
        assert code == 2
        assert out == ""
        assert err == "error: degree bound must be non-negative\n"


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_QUESTIONS = json.loads((GOLDEN / "questions.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN_QUESTIONS))
def test_json_output_matches_golden(capsys, name):
    """``--json`` reports of check, extend, derive and coeff on five catalog
    entries, byte for byte. The recorded stdout lives in
    ``tests/golden/NAME.out``; argv and exit code in ``questions.json``."""
    question = GOLDEN_QUESTIONS[name]
    code, out, err = run(capsys, *question["argv"])
    assert code == question["exit"]
    assert err == ""
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


ROOT = Path(__file__).resolve().parent.parent


def run_script(script, *args):
    """Run scripts/SCRIPT with src on the path; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("script, bounds", [
    ("extension_survey.py", ["--degree", "3"]),
    ("derivation_survey.py", ["--partial-bound", "1", "--lambda-bound", "1"]),
])
def test_survey_script_prints_one_row_per_entry(script, bounds):
    proc = run_script(script, *bounds)
    lines = proc.stdout.splitlines()
    for entry in standard_entries():
        label = entry_label(entry)
        assert sum(line.split(" ", 1)[0] == label for line in lines) == 1


def test_change_of_basis_script_prints_the_algebra_in_another_basis(
        capsys, tmp_path):
    """The printed file is the algebra in a unimodular basis: its tables
    differ, it passes every axiom check, and ``derive`` reports the same
    dimensions."""
    path = tmp_path / "changed.alg"
    path.write_text(run_script("change_of_basis.py", "catalog:r_alpha_beta:"
                               "alpha=2,beta=0", "--seed", "3").stdout)
    A = catalog_build("r_alpha_beta", alpha=2, beta=0)
    B = parse_algebra(path.read_text())
    assert B != A and B.basis_names == A.basis_names
    reports = []
    for target in ("catalog:r_alpha_beta:alpha=2,beta=0", str(path)):
        code, out, _ = run(capsys, "--json", "derive", target)
        assert code == 0
        reports.append({k: v for k, v in json.loads(out).items()
                        if k != "target"})
    assert reports[0] == reports[1]


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_bench_pairs_refuses_too_few_pairs_before_any_run(
        monkeypatch, capsys, tmp_path, pairs):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(subprocess, "run", no_run)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", str(tmp_path), str(tmp_path),
        "--workload", "catalog-certify", "--pairs", pairs])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"),
                       run_name="__main__")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(
        f"error: --pairs must be at least 2, got {pairs}")


@pytest.mark.parametrize("code, stdout, message", [
    (1, "", "with exit code 1"),
    (0, "a progress line, not a result\n",
     "with exit code 0 and no JSON result line"),
])
def test_bench_pairs_names_a_failed_run_and_keeps_the_finished_ones(
        monkeypatch, capsys, tmp_path, code, stdout, message):
    """The third run (pair 1, change side first) fails: the script names
    it with its checkout, pair, seed, exit code and last stderr lines,
    prints the two runs that finished, and exits 1."""
    result = {"metrics": {"wall_s": {"value": 0.5}}, "failed": 0,
              "attempted": 40}
    calls = []

    def fake_run(args, cwd, **kwargs):
        calls.append(cwd)
        if len(calls) == 3:
            return subprocess.CompletedProcess(args, code, stdout,
                                               "first\nlast stderr line\n")
        return subprocess.CompletedProcess(args, 0, json.dumps(result), "")

    parent, change = tmp_path / "parent", tmp_path / "change"
    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", str(parent), str(change),
        "--workload", "catalog-certify", "--pairs", "3"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"),
                       run_name="__main__")
    assert exc.value.code == 1 and len(calls) == 3
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        f"error: the change run in {change} failed at pair 1 (seed 1) "
        + message, "  first", "  last stderr line"]
    finished = {"wall_s": 0.5, "failed": 0, "attempted": 40}
    assert json.loads(out) == {"workload": "catalog-certify", "finished": {
        "parent": [finished], "change": [finished]}}


TIGHT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]


@pytest.mark.parametrize("parent_wall, change_wall, expected", [
    # 10/10 pairs lower, medians 0.2 apart against a parent IQR of ~0.02
    (TIGHT, [0.8] * 10, "gain"),
    # the same gap with 8/10 pairs lower is no gain
    (TIGHT, [0.8] * 8 + [1.5] * 2, "within bound"),
    # lower in every pair, but by less than the parent's IQR
    (TIGHT, [x - 0.001 for x in TIGHT], "within bound"),
    # ties count for neither side
    (TIGHT, TIGHT, "within bound"),
    (TIGHT, [1.25] * 10, "worse"),
    (TIGHT, [1.19] * 10, "within bound"),
    # a parent IQR of ~0.5 against the 0.2 bound
    ([0.7, 1.3] * 5, [1.0] * 10, "unresolved"),
    # ... unless every change run beats every parent run; a gain still
    # needs the medians apart by more than that IQR
    ([0.7, 1.3] * 5, [0.6] * 10, "within bound"),
    ([0.7, 1.3] * 5, [0.3] * 10, "gain"),
])
def test_bench_pairs_verdict_per_end_to_end_metric(
        monkeypatch, capsys, tmp_path, parent_wall, change_wall, expected):
    """The verdict reads wall_s's bound (0.2) and direction (lower) from
    BENCHMARK.json; the runs' other metric has no verdict."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    values = {str(parent): iter(parent_wall), str(change): iter(change_wall)}

    def fake_run(args, cwd, **kwargs):
        result = {"metrics": {"wall_s": {"value": next(values[cwd])},
                              "extra_s": {"value": 1.0}}, "failed": 0,
                  "attempted": 40}
        return subprocess.CompletedProcess(args, 0, json.dumps(result), "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", str(parent), str(change),
        "--workload", "catalog-certify", "--pairs", "10"])
    runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"),
                   run_name="__main__")
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == {"wall_s": expected}
    assert [r["wall_s"] for r in report["change"]["runs"]] == change_wall


@pytest.mark.parametrize("parent_runs, change_runs, expected", [
    # (failed, attempted) per pair
    ([(0, 40)] * 3, [(0, 40)] * 3, "within bound"),
    ([(0, 40)] * 3, [(0, 40), (1, 40), (0, 40)], "worse"),
    # 2/120 = 1/60 against 1/50: a larger count, yet a smaller share
    ([(0, 20), (1, 20), (0, 10)], [(1, 40), (0, 40), (1, 40)], "within bound"),
    ([(1, 20), (0, 20), (0, 10)], [(1, 20), (1, 20), (0, 10)], "worse"),
    ([(2, 40)] * 3, [(0, 40)] * 3, "within bound"),
])
def test_bench_pairs_failed_share_verdict(monkeypatch, capsys, tmp_path,
                                          parent_runs, change_runs, expected):
    """Each side's failed and attempted totals are printed, and the
    change's share of failed questions is compared with the parent's."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    counts = {str(parent): iter(parent_runs), str(change): iter(change_runs)}

    def fake_run(args, cwd, **kwargs):
        failed, attempted = next(counts[cwd])
        result = {"metrics": {"wall_s": {"value": 1.0}}, "failed": failed,
                  "attempted": attempted}
        return subprocess.CompletedProcess(args, 0, json.dumps(result), "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", str(parent), str(change),
        "--workload", "catalog-certify", "--pairs", "3"])
    runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"),
                   run_name="__main__")
    report = json.loads(capsys.readouterr().out)
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        assert report[side]["failed"] == sum(f for f, _ in runs)
        assert report[side]["attempted"] == sum(a for _, a in runs)
    assert report["failed_share"] == expected
    assert report["verdict"] == {"wall_s": "within bound"}


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0] * 4, [9.5] * 4, "within bound"),
    ([10.0] * 4, [8.5] * 4, "worse"),  # 15% lower is past a 10% bound
    ([10.0] * 4, [12.0] * 4, "gain"),
])
def test_bench_pairs_verdict_for_a_higher_is_better_metric(parent, change,
                                                           expected):
    verdict = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))[
        "verdict"]
    assert verdict(parent, change, 0.1, "higher") == expected


def test_snapshot_script_writes_every_report_of_one_target(tmp_path):
    run_script("snapshot_reports.py", str(tmp_path), "--only", "vir")
    names = ["check", "extend", "extend-degree0", "extend-degree1",
             "extend-degree2", "extend-degree3", "derive", "derive-p1l0",
             "derive-p0l2", "derive-simple", "coeff", "coeff-window1",
             "coeff-window6", "emit"]
    # At --partial-bound 0 the closed solver solves at ∂-bound 0 too, so
    # vir's derive-p0l2 report says solvers_agree: true and exits 0.
    for name in names:
        assert (tmp_path / f"{name}-vir.exit").read_text() == "0\n"
        assert (tmp_path / f"{name}-vir.err").read_bytes() == b""
    # the default reports are the golden ones
    for name in ("check", "extend", "derive", "coeff"):
        assert ((tmp_path / f"{name}-vir.out").read_bytes()
                == (GOLDEN / f"{name}-vir.out").read_bytes())
    assert (tmp_path / "emit-vir.out").read_text() == (
        "algebra vir\ndim 1\nbasis L\nnovikov L L = L:1\nend\n")
    assert len(list(tmp_path.glob("*-vir.out"))) == len(names)
