import re
from fractions import Fraction

import pytest

import qlca.algfile
from qlca import (GDValidationError, ParseError, catalog_build, emit_algebra,
                  gd_build, parse_algebra, parse_algebra_file)
from qlca.cli import main


class TestRoundTrip:
    def test_every_catalog_algebra(self, catalog_algebra):
        text = emit_algebra(catalog_algebra, name="fixture")
        rebuilt = parse_algebra(text)
        assert rebuilt == catalog_algebra  # frozen dataclass equality

    def test_vir_field_for_field(self):
        A = catalog_build("vir")
        spec = parse_algebra_file(emit_algebra(A, name="vir"))
        assert spec.name == "vir"
        assert spec.dim == 1
        assert spec.basis == ["L"]
        assert spec.novikov == {(0, 0): {0: 1}}
        assert spec.lie == {}

    def test_meta_preserved(self):
        A = catalog_build("vir")
        text = emit_algebra(A, name="vir", meta={"source": "builtin catalog"})
        spec = parse_algebra_file(text)
        assert spec.meta == {"source": "builtin catalog"}

    def test_rational_coefficients_survive(self):
        from fractions import Fraction

        A = catalog_build("r_alpha_beta", alpha="1/2", beta="-2/3")
        rebuilt = parse_algebra(emit_algebra(A))
        L, W = (1, 0), (0, 1)
        assert rebuilt.circ(L, W)[1] == Fraction(-1, 2)
        assert rebuilt.bracket(W, L)[1] == Fraction(-2, 3)



class TestEmittedText:
    """The exact text, not only a round trip: a round trip does not fix
    the line order, the target order or the coefficient spelling."""

    def test_fractions_lie_lines_and_meta(self):
        A = catalog_build("r_alpha_beta", alpha="1/2", beta="-2/3")
        assert emit_algebra(A, name="r", meta={
            "source": "paper table 1", "alpha": "1/2"}) == (
            "algebra r\n"
            "dim 2\n"
            "basis L W\n"
            "novikov L L = L:1\n"
            "novikov L W = W:-1/2\n"
            "novikov W L = W:1\n"
            "lie L W = W:2/3\n"
            "meta alpha 1/2\n"
            "meta source paper table 1\n"
            "end\n")

    def test_several_lie_lines(self):
        assert emit_algebra(catalog_build("vir_current", g="sl2"),
                            name="vc") == (
            "algebra vc\n"
            "dim 4\n"
            "basis L e f h\n"
            "novikov L L = L:1\n"
            "novikov e L = e:1\n"
            "novikov f L = f:1\n"
            "novikov h L = h:1\n"
            "lie e f = h:-1\n"
            "lie e h = e:2\n"
            "lie f h = f:-2\n"
            "end\n")

    def test_lines_and_targets_in_basis_order(self):
        # lines and targets out of order, a zero coefficient, no meta
        A = parse_algebra(
            "algebra mixed\ndim 3\nbasis a b c\n"
            "lie b c = c:1 a:-1/3\n"
            "novikov c a = b:2 a:1\n"
            "novikov a b = c:0\n"
            "end\n", validate=False)
        assert emit_algebra(A, name="mixed") == (
            "algebra mixed\n"
            "dim 3\n"
            "basis a b c\n"
            "novikov c a = a:1 b:2\n"
            "lie b c = a:-1/3 c:1\n"
            "end\n")

    @pytest.mark.parametrize("kwargs, shown", [
        ({"name": "my alg"}, "algebra name 'my alg'"),
        ({"name": "a#b"}, "algebra name 'a#b'"),
        ({"meta": {"k": "a # b"}}, "meta value 'a # b'"),
        ({"meta": {"k k": "v"}}, "meta key 'k k'"),
        ({"meta": {"k": ""}}, "meta value ''"),
        ({"meta": {"k": "a  b"}}, "meta value 'a  b'"),
    ])
    def test_refuses_text_that_would_not_read_back(self, kwargs, shown):
        with pytest.raises(ValueError, match=re.escape(
                f"{shown} cannot be written to an algebra file")):
            emit_algebra(catalog_build("vir"), **kwargs)

    def test_refuses_a_basis_name_or_dim_the_parser_rejects(self):
        A = gd_build(1, ["a b"], [[[0]]], [[[0]]])
        with pytest.raises(ValueError, match="basis name 'a b'"):
            emit_algebra(A)
        names = [f"a{i}" for i in range(129)]
        A = qlca.algfile.AlgebraFile("big", 129, names, {}, {}).build(
            validate=False)
        with pytest.raises(ValueError, match="dim 129 exceeds the maximum 128"):
            emit_algebra(A)


GOOD = """\
algebra demo
dim 2
basis L W   # comment after tokens
novikov L L = L:1
novikov W L = W:1
lie L W = W:-1/2
meta note a two-generator example
end
"""


# files the parser refuses, each with its error message
# each case's id names its input, so a repeated message renames no case
MALFORMED = [
    pytest.param(GOOD.replace("dim 2", "algebra again\ndim 2"),
                 "line 2: duplicate 'algebra' line", id="algebra-twice"),
    pytest.param(GOOD.replace("dim 2", "dim 2\ndim 2"),
                 "line 3: duplicate 'dim' line", id="dim-twice"),
    pytest.param(GOOD.replace("novikov L L", "basis L W\nnovikov L L"),
                 "line 4: duplicate 'basis' line", id="basis-twice"),
    pytest.param(GOOD.replace("algebra demo", "algebra"),
                 "line 1: expected 'algebra NAME'", id="algebra-without-name"),
    pytest.param(GOOD.replace("algebra demo", "algebra de mo"),
                 "line 1: expected 'algebra NAME'",
                 id="algebra-name-with-space"),
    pytest.param(GOOD.replace("dim 2", "dim 0"),
                 "line 2: expected 'dim N' with N >= 1", id="dim-0"),
    # non-ASCII digits: Arabic-Indic three, superscript two
    pytest.param(GOOD.replace("dim 2", "dim \u0663"),
                 "line 2: expected 'dim N' with N >= 1",
                 id="dim-arabic-indic-3"),
    pytest.param(GOOD.replace("dim 2", "dim \u00b2"),
                 "line 2: expected 'dim N' with N >= 1",
                 id="dim-superscript-2"),
    pytest.param("dim 1\nbasis L\nend\n",
                 "line 2: 'basis' must follow 'algebra' and 'dim'",
                 id="basis-without-algebra"),
    pytest.param("algebra x\nbasis L\ndim 1\nend\n",
                 "line 2: 'basis' must follow 'algebra' and 'dim'",
                 id="basis-before-dim"),
    pytest.param(GOOD.replace("basis L W", "basis L 2W"),
                 "line 3: bad basis name '2W'", id="basis-name-2W"),
    pytest.param(GOOD.replace("basis L W", "basis L L"),
                 "line 3: basis names must be distinct", id="basis-L-L"),
    pytest.param(GOOD.replace("meta note a two-generator example",
                              "meta note"),
                 "line 7: expected 'meta KEY VALUE...'",
                 id="meta-without-value"),
    pytest.param("algebra x\ndim 1\nend\n",
                 "line 3: 'end' before the header lines",
                 id="end-before-basis"),
    pytest.param("", "missing algebra/dim/basis header", id="empty-file"),
    pytest.param("# only a comment\n\n", "missing algebra/dim/basis header",
                 id="comment-only-file"),
    pytest.param(GOOD.replace("novikov L L = L:1", "novikov L L L:1"),
                 "line 4: expected 'novikov I J = K:coeff ...'",
                 id="novikov-without-equals"),
    pytest.param(GOOD.replace("lie L W = W:-1/2", "lie L W ="),
                 "line 6: expected 'lie I J = K:coeff ...'",
                 id="lie-without-targets"),
    pytest.param(GOOD.replace("novikov L L = L:1", "novikov L L = L1"),
                 "line 4: expected K:coeff, got 'L1'",
                 id="novikov-target-without-colon"),
]


class TestParsing:
    def test_good_file(self):
        spec = parse_algebra_file(GOOD)
        assert spec.dim == 2 and spec.basis == ["L", "W"]
        assert (0, 1) in spec.lie
        A = spec.build(validate=False)
        L, W = (1, 0), (0, 1)
        assert A.bracket(W, L)[1] == -A.bracket(L, W)[1]

    def err(self, text):
        with pytest.raises(ParseError) as exc:
            parse_algebra_file(text)
        return exc.value

    def test_duplicate_entry_names_pair_and_line(self):
        bad = GOOD.replace(
            "novikov W L = W:1", "novikov L L = L:2\nnovikov W L = W:1"
        )
        e = self.err(bad)
        assert "duplicate novikov entry (L,L)" in str(e)
        assert e.line_no == 5

    @pytest.mark.parametrize("old, new, message", [
        ("novikov L L = L:1", "novikov L L = L:0\nnovikov L L = L:1",
         "line 5: duplicate novikov entry (L,L)"),
        ("novikov L L = L:1", "novikov L L = L:0 L:1",
         "line 4: repeated target 'L' in one entry"),
        ("lie L W = W:-1/2", "lie L W = W:0\nlie L W = W:-1/2",
         "line 7: duplicate lie entry (L,W)"),
        ("lie L W = W:-1/2", "lie L W = W:0 W:-1/2",
         "line 6: repeated target 'W' in one entry"),
    ])
    def test_zero_coefficient_does_not_hide_a_duplicate(
            self, capsys, tmp_path, old, new, message):
        bad = GOOD.replace(old, new)
        assert str(self.err(bad)) == message
        path = tmp_path / "bad.alg"
        path.write_text(bad)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_duplicate_meta_key_names_key_and_line(self, capsys, tmp_path):
        bad = GOOD.replace("meta note a two-generator example",
                           "meta note a\nmeta other b\nmeta note b")
        e = self.err(bad)
        assert str(e) == "line 9: duplicate meta key 'note'"
        assert e.line_no == 9
        path = tmp_path / "bad.alg"
        path.write_text(bad)
        assert main(["check", str(path)]) == 2
        assert (capsys.readouterr().err
                == "error: line 9: duplicate meta key 'note'\n")

    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_malformed_file_exits_2_naming_its_line(self, capsys, tmp_path,
                                                    text, message):
        assert str(self.err(text)) == message
        path = tmp_path / "bad.alg"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"

    def test_blank_lines_and_comments_are_skipped(self):
        text = ("# a commented algebra\n\n" + GOOD.replace("\n", "\n   \n", 2)
                .replace("novikov W L = W:1", "novikov W L = W:1  # W∘L")
                .replace("lie L W", "# lie W L = L:1\n\t\nlie L W"))
        spec = parse_algebra_file(text)
        assert spec == parse_algebra_file(GOOD)
        assert spec.novikov == {(0, 0): {0: 1}, (1, 0): {1: 1}}
        assert spec.lie == {(0, 1): {1: Fraction(-1, 2)}}
        assert spec.meta == {"note": "a two-generator example"}

    def test_zero_denominator(self):
        e = self.err(GOOD.replace("L:1", "L:1/0"))
        assert "denominator" in str(e)

    def test_bad_literal(self):
        e = self.err(GOOD.replace("L:1", "L:1.5"))
        assert "rational literal" in str(e)

    def test_lie_entry_order_enforced(self):
        e = self.err(GOOD.replace("lie L W", "lie W L"))
        assert "strictly earlier" in str(e)

    def test_undeclared_basis_name(self):
        e = self.err(GOOD.replace("novikov W L", "novikov X L"))
        assert "undeclared basis name 'X'" in str(e)

    def test_missing_end(self):
        e = self.err(GOOD.replace("end\n", ""))
        assert "missing 'end'" in str(e)

    def test_content_after_end(self):
        e = self.err(GOOD + "dim 3\n")
        assert "after 'end'" in str(e)

    def test_wrong_basis_count(self):
        e = self.err(GOOD.replace("basis L W", "basis L"))
        assert "expected 2 basis names" in str(e)

    def test_unknown_directive(self):
        e = self.err(GOOD.replace("meta note", "metadata note"))
        assert "unknown directive" in str(e)

    def test_repeated_target_in_entry(self):
        e = self.err(GOOD.replace("novikov L L = L:1", "novikov L L = L:1 L:2"))
        assert "repeated target" in str(e)

    def test_table_line_before_header(self):
        e = self.err("algebra x\nnovikov a a = a:1\n")
        assert "must come first" in str(e)

    def test_dim_over_cap_refused_at_its_line(self):
        # the basis line is wrong too: the parser must stop at the dim line
        e = self.err("algebra big\ndim 1000000\nbasis a\nend\n")
        assert e.line_no == 2
        assert f"exceeds the maximum {qlca.algfile.MAX_DIM}" in str(e)

    def test_dim_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(qlca.algfile, "MAX_DIM", 2)
        assert parse_algebra_file(GOOD).dim == 2
        e = self.err(GOOD.replace("dim 2", "dim 3"))
        assert e.line_no == 2 and "exceeds the maximum 2" in str(e)

    def test_axiom_violation_surfaces_on_build(self):
        text = GOOD.replace("novikov W L = W:1", "novikov W W = L:1")
        with pytest.raises(GDValidationError):
            parse_algebra(text)
