import pytest

import qlca.algfile
from qlca import (GDValidationError, ParseError, catalog_build, emit_algebra,
                  parse_algebra, parse_algebra_file)


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
        assert rebuilt.novikov[0][1][1] == Fraction(-1, 2)
        assert rebuilt.lie[1][0][1] == Fraction(-2, 3)


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


class TestParsing:
    def test_good_file(self):
        spec = parse_algebra_file(GOOD)
        assert spec.dim == 2 and spec.basis == ["L", "W"]
        assert (0, 1) in spec.lie
        A = spec.build(validate=False)
        assert A.lie[1][0][1] == -A.lie[0][1][1]

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
