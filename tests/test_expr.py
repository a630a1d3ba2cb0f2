"""Expression language tests: grammar, ring inference, error positions, and
render/parse round trips."""

import random

import pytest

from locfactor.errors import DeskScaleError, ParseError
from locfactor.expr import DENSE_BITS_CAP, EXPONENT_CAP, _parse, _size_reach, parse_expr, parse_in_ring, render
from locfactor.localization import LT
from locfactor.rings import ZX, ZXY, ZZ
from locfactor.selftest import rand_elem


class TestParsing:
    def test_poly_example(self):
        ring, e = parse_expr("X^2 - 1")
        assert ring == ZX and e == ZX.make([-1, 0, 1])

    def test_laurent_example(self):
        ring, e = parse_expr("T^-1 + T")
        assert ring == LT
        assert LT.normal_form(e) == ((-1,), ZX.make([1, 0, 1]))

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
        # nested exponents multiply along the chain: 5 * 21
        assert _size_reach(_parse("2*((X+1)^5)^21")[0])[5] == 105
        # rendered engine output is re-read without the cap
        assert LT.normal_form(parse_in_ring("-T^-150", LT)) == ((-150,), ZX.from_int(-1))

    def test_coefficient_size_cap(self):
        # 256 dense coefficients of 1,024 bits: five 2^100 (200 bits each)
        # and a 24-bit literal sit exactly at the cap, a 25-bit one over it
        head = "X^100*X^100*X^55*2^100*2^100*2^100*2^100*2^100*"
        assert parse_expr(head + str(2**24 - 1))[1].coeffs[255] == 2**500 * (2**24 - 1)
        over = f"256 dense coefficients of up to 1025 bits need 262400 bits, over {DENSE_BITS_CAP}"
        with pytest.raises(DeskScaleError, match=over):
            parse_expr(head + str(2**24))

    def test_size_bound_covers_every_value(self):
        # 2^bits bounds the 1-norm: a literal gives its bit length, each '+'
        # one bit, products add and powers multiply
        def one_norm(ring, e):
            if ring == ZZ:
                return abs(e)
            if ring == LT:
                e = LT.normal_form(e)[1]
            if ring == ZXY:
                return sum(one_norm(ZX, c) for c in e.coeffs)
            return sum(abs(c) for c in e.coeffs)

        for text in ("(3*X+5)^7*(X-1)", "(X+Y+1)^3 + 4*Y - 9", "-(2X+1)^5 + 7", "T^-3 + 5*T",
                     "(X+1)^16", "2^100*3^60", "X + X + X + X + X", "(12*X*Y - Y + 1)^4"):
            ring, e = parse_expr(text)
            bits = _size_reach(_parse(text)[0])[3]
            assert one_norm(ring, e) <= 2**bits, text


    def test_sums_and_products_are_charged_for_what_they_build(self):
        # X*X*X*X builds X^2 and X^3 before its value: 3 + 4; as a term of a
        # sum it is charged its own 5 coefficients with at least one bit,
        # and so is the term 1
        assert _size_reach(_parse("X*X*X*X")[0])[4] == 7
        assert _size_reach(_parse("X*X*X*X + 1")[0])[4] == 7 + 5 + 1
        assert _size_reach(_parse("2*X")[0])[4] == 0
        product = "*".join(["X"] * 255)
        assert parse_expr(product)[1] == ZX.make([0] * 255 + [1])
        with pytest.raises(DeskScaleError, match="the terms of sums need 263144 bits"):
            parse_expr("+".join([product] * 8))


class TestRendering:
    def test_frozen_forms(self):
        assert render(ZX, ZX.make([-1, 0, 1])) == "X^2 - 1"
        assert render(ZX, ZX.make([0, 12])) == "12*X"
        assert render(LT, LT.fraction((-1,), ZX.make([1, 0, 1]))) == "T + T^-1"
        assert render(LT, LT.fraction((-2,), ZX.make([-3, 1, 0, 5]))) == "5*T + T^-1 - 3*T^-2"
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
