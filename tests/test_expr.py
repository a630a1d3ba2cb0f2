"""Expression language tests: grammar, ring inference, error positions, and
render/parse round trips."""

import random

import pytest

from locfactor.errors import DeskScaleError, ParseError
from locfactor.expr import EXPONENT_CAP, parse_expr, parse_in_ring, render
from locfactor.rings import LT, ZX, ZXY, ZZ
from locfactor.selftest import rand_elem


class TestParsing:
    def test_poly_example(self):
        ring, e = parse_expr("X^2 - 1")
        assert ring == ZX and e == ZX.make([-1, 0, 1])

    def test_laurent_example(self):
        ring, e = parse_expr("T^-1 + T")
        assert ring == LT
        assert e.low == -1 and e.body == ZX.make([1, 0, 1])

    def test_bivariate_example(self):
        ring, e = parse_expr("(X+1)*(Y-2)")
        # expansion oracle: (X+1)(Y-2) = (-2X-2) + (X+1) Y, written by hand
        assert ring == ZXY
        assert e == ZXY.make([ZX.make([-2, -2]), ZX.make([1, 1])])

    def test_integers(self):
        ring, e = parse_expr("-42")
        assert ring == ZZ and e == -42
        ring, e = parse_expr("2^10")
        assert ring == ZZ and e == 1024

    def test_juxtaposition(self):
        assert parse_expr("12X")[1] == ZX.make([0, 12])
        assert parse_expr("2(X+1)")[1] == ZX.make([2, 2])
        assert parse_expr("X(X+1)")[1] == ZX.make([0, 1, 1])
        assert parse_expr("12X^3")[1] == ZX.make([0, 0, 0, 12])

    def test_long_sums_and_products(self):
        # flat lists: a chain of 3,000 operations nests no deeper than one
        assert parse_expr("+".join(["1"] * 3000)) == (ZZ, 3000)
        assert parse_expr("-" + "-".join(["X"] * 3000))[1] == ZX.make([0, -3000])
        assert parse_expr("*".join(["2"] * 3000)) == (ZZ, 2**3000)

    def test_whitespace_insensitive(self):
        assert parse_expr("X ^ 2-  1")[1] == parse_expr("X^2-1")[1]

    def test_y_only_is_bivariate(self):
        ring, e = parse_expr("Y^2-1")
        assert ring == ZXY


class TestParseErrors:
    def test_number_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("2 3")

    def test_negative_exponent_on_x(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_expr("X^-1")
        with pytest.raises(ParseError, match="negative exponent"):
            parse_expr("(T+1)^-2")

    def test_unknown_variable_with_position(self):
        with pytest.raises(ParseError, match="position 4"):
            parse_expr("1 + W")

    def test_mixed_t(self):
        with pytest.raises(ParseError, match="cannot be mixed"):
            parse_expr("T*X")

    def test_syntax_errors(self):
        for bad in ("", "X +", "(X", "X^", "*X", "X^2^3 )"):
            with pytest.raises(ParseError):
                parse_expr(bad)

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="position 2"):
            parse_expr("X $ 1")

    def test_exponent_cap(self):
        assert parse_expr(f"X^{EXPONENT_CAP}")[1] == ZX.make([0] * EXPONENT_CAP + [1])
        assert parse_expr("(X^10)^10 + 3^89")[0] == ZX
        for bad in (f"X^{EXPONENT_CAP + 1}", f"T^-{EXPONENT_CAP + 1}", "1-(X^10)^11", "2*((X+1)^5)^21"):
            with pytest.raises(DeskScaleError, match="exponent"):
                parse_expr(bad)
        # rendered engine output is re-read without the cap
        assert parse_in_ring("-T^-150", LT) == LT.t_power(-150, -1)


class TestRendering:
    def test_frozen_forms(self):
        assert render(ZX, ZX.make([-1, 0, 1])) == "X^2 - 1"
        assert render(ZX, ZX.make([0, 12])) == "12*X"
        assert render(LT, LT.make(-1, [1, 0, 1])) == "T + T^-1"
        assert render(ZZ, -8) == "-8"
        assert render(ZX, ZX.zero) == "0"
        assert render(ZXY, ZXY.make([ZX.make([-2, -2]), ZX.make([1, 1])])) == "(X + 1)*Y - 2*X - 2"

    def test_roundtrip_seeded(self):
        rng = random.Random("expr-roundtrip")
        for _ in range(200):
            ring = rng.choice((ZZ, ZX, LT, ZXY))
            e = rand_elem(rng, ring)
            assert ring.eq(parse_in_ring(render(ring, e), ring), e)

    def test_engine_output_roundtrip(self):
        from locfactor.basefactor import factor_poly_zx

        pf = factor_poly_zx(ZX.make([-6, 0, 6]))
        for q in pf.factors:
            assert parse_in_ring(render(ZX, q), ZX) == q
