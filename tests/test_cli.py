import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qlca import entry_label, standard_entries
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
                                     (FormalPoly.sym(LAM), FormalPoly.zero()))
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
        """The cap is checked on the parameter, so no n³-cell table of
        the refused size is ever allocated."""
        import qlca.catalog

        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(qlca.catalog, "_zero_table", refuse)
        monkeypatch.setattr(qlca.catalog, "gd_build", refuse)
        code, out, err = run(capsys, "check", "catalog:" + target)
        assert code == 2 and out == ""
        assert err == f"error: {message}, which exceeds the maximum 128\n"

    @pytest.mark.parametrize("target, message", [
        ("current:g=sl2,n=5", "bad parameters for 'current': "
                              "n applies only to g=abelian"),
        ("vir_current:g=sl2,n=7", "bad parameters for 'vir_current': "
                                  "_vir_current() got an unexpected keyword "
                                  "argument 'n'"),
    ])
    def test_size_for_a_fixed_dim_algebra_exit_2(self, capsys, target,
                                                 message):
        code, out, err = run(capsys, "--json", "check", "catalog:" + target)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.alg"))
        assert code == 2


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

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["extend"])
        assert exc.value.code == 2


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


@pytest.mark.parametrize("script, bounds", [
    ("extension_survey.py", ["--degree", "3"]),
    ("derivation_survey.py", ["--partial-bound", "1", "--lambda-bound", "1"]),
])
def test_survey_script_prints_one_row_per_entry(script, bounds):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *bounds], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for entry in standard_entries():
        label = entry_label(entry)
        assert sum(line.split(" ", 1)[0] == label for line in lines) == 1


def test_snapshot_script_writes_every_report_of_one_target(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "snapshot_reports.py"),
                           str(tmp_path), "--only", "vir"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = ["check", "extend", "extend-degree0", "extend-degree1",
             "extend-degree2", "extend-degree3", "derive", "derive-p1l0",
             "derive-p0l2", "derive-simple", "coeff", "coeff-window1",
             "coeff-window6"]
    # At --partial-bound 0 the closed solver solves at ∂-bound 0 too, so
    # vir's derive-p0l2 report says solvers_agree: true and exits 0.
    for name in names:
        assert (tmp_path / f"{name}-vir.exit").read_text() == "0\n"
        assert (tmp_path / f"{name}-vir.err").read_bytes() == b""
    # the default reports are the golden ones
    for name in ("check", "extend", "derive", "coeff"):
        assert ((tmp_path / f"{name}-vir.out").read_bytes()
                == (GOLDEN / f"{name}-vir.out").read_bytes())
    assert len(list(tmp_path.glob("*-vir.out"))) == len(names)
