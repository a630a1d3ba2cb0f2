"""Exact arithmetic kernel tests.

Derived expectations are checked against independent oracles computed here in
the test (naive convolution, evaluation homomorphism, brute-force quotient
search) rather than against the code paths under test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locfactor.errors import MathDomainError
from locfactor.rings import (
    LT,
    ZX,
    ZXY,
    ZZ,
    PolynomialRing,
    laurent_to_poly,
    poly_gcd_z,
    strip_var_power,
)


def naive_mul(a, b):
    """Independent convolution of coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


class TestIntegerRing:
    def test_exact_div_basic(self):
        # oracle: brute-force quotient search
        assert next(q for q in range(-20, 21) if 3 * q == 12) == 4
        assert ZZ.exact_div(12, 3) == 4
        assert ZZ.exact_div(5, 2) is None

    def test_exact_div_zero_divisor(self):
        with pytest.raises(MathDomainError):
            ZZ.exact_div(1, 0)

    def test_canonical(self):
        assert ZZ.canonical_associate(-6) == (-1, 6)
        assert ZZ.canonical_associate(0) == (1, 0)

    def test_units(self):
        assert ZZ.is_unit(-1)
        assert not ZZ.is_unit(2)


class TestPolynomialRing:
    def test_exact_div_example(self):
        p = ZX.make([-1, 0, 1])  # X^2 - 1
        q = ZX.make([-1, 1])  # X - 1
        got = ZX.exact_div(p, q)
        assert got == ZX.make([1, 1])
        # long-division oracle: the quotient re-multiplies to the dividend
        assert naive_mul(list(q.coeffs), list(got.coeffs)) == list(p.coeffs)

    def test_exact_div_non_divisor(self):
        assert ZX.exact_div(ZX.make([1, 1, 1]), ZX.make([1, 2])) is None

    def test_canonical_zx(self):
        u, n = ZX.canonical_associate(ZX.make([2, -2]))  # -2X + 2
        assert u == ZX.make([-1]) and n == ZX.make([-2, 2])

    def test_mul_respects_evaluation(self):
        # evaluation at a point is an independent homomorphism oracle
        a = ZX.make([3, -2, 0, 1])
        b = ZX.make([-1, 4])
        prod = ZX.mul(a, b)
        for x in (-3, -1, 0, 2, 5):
            assert ZX.evaluate(prod, x) == ZX.evaluate(a, x) * ZX.evaluate(b, x)

    def test_unit_family(self):
        assert not ZX.is_unit(ZX.gen)
        assert ZX.is_unit(ZX.make([-1]))

    def test_zero_degree_rejected(self):
        with pytest.raises(MathDomainError):
            ZX.degree(ZX.zero)

    def test_gcd(self):
        a = ZX.make(naive_mul([1, 1], [2, 2]))  # 2(X+1)^2
        b = ZX.make(naive_mul([1, 1], [0, 4]))  # 4X(X+1)
        g = poly_gcd_z(a, b)
        assert g == ZX.make([2, 2])


class TestStripAndLaurent:
    def test_strip_var_power(self):
        m, q = strip_var_power(ZX.make([0, 0, 1, 1]))  # X^3 + X^2
        assert (m, q) == (2, ZX.make([1, 1]))
        assert naive_mul([0] * m + [1], list(q.coeffs)) == [0, 0, 1, 1]
        assert strip_var_power(ZX.gen) == (1, ZX.one)
        assert strip_var_power(ZX.make([7])) == (0, ZX.make([7]))
        with pytest.raises(MathDomainError):
            strip_var_power(ZX.zero)

    def test_laurent_to_poly(self):
        f = LT.make(-1, [1, 0, 1])  # T^-1 + T
        n, p = laurent_to_poly(f)
        assert (n, p) == (1, ZX.make([1, 0, 1]))
        assert LT.eq(LT.mul(f, LT.t_power(n)), LT.from_poly(p))
        assert laurent_to_poly(LT.make(0, [1, 1])) == (0, ZX.make([1, 1]))
        assert laurent_to_poly(LT.zero) == (0, ZX.zero)

    def test_laurent_units(self):
        assert LT.is_unit(LT.t_power(-3))
        assert LT.eq(LT.mul(LT.t_power(-3), LT.t_power(3)), LT.one)
        assert not LT.is_unit(LT.make(0, [2]))

    def test_laurent_canonical(self):
        a = LT.make(2, [-3, 1])
        u, n = LT.canonical_associate(a)
        assert n.low == 0 and n.body.coeffs[-1] > 0
        assert LT.eq(LT.mul(u, n), a)

    def test_laurent_normalization(self):
        assert LT.make(0, [0, 0, 2]).low == 2
        assert LT.make(5, []) == LT.zero



class TestBivariate:
    def test_iterated_ring_ops(self):
        x = ZXY.constant(ZX.gen)
        y = ZXY.gen
        f = ZXY.mul(ZXY.add(x, ZXY.one), ZXY.add(y, ZXY.neg(ZXY.from_int(2))))
        # (X+1)(Y-2) expanded by hand: (-2X-2) + (X+1)Y
        assert f == ZXY.make([ZX.make([-2, -2]), ZX.make([1, 1])])

    def test_canonical_recursive(self):
        f = ZXY.make([ZX.make([1]), ZX.make([0, -2])])  # 1 - 2X*Y
        u, n = ZXY.canonical_associate(f)
        assert n.coeffs[-1].coeffs[-1] > 0
        assert ZXY.eq(ZXY.mul(u, n), f)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_int_ring_axioms(a, b, c):
    assert ZZ.mul(a, ZZ.add(b, c)) == ZZ.add(ZZ.mul(a, b), ZZ.mul(a, c))
    assert ZZ.add(a, ZZ.neg(a)) == 0


_small_poly = st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(ZX.make)


@settings(max_examples=60)
@given(_small_poly, _small_poly, _small_poly)
def test_poly_ring_axioms(a, b, c):
    assert ZX.mul(a, b) == ZX.mul(b, a)
    assert ZX.mul(a, ZX.add(b, c)) == ZX.add(ZX.mul(a, b), ZX.mul(a, c))
    assert ZX.add(a, ZX.neg(a)) == ZX.zero


@settings(max_examples=60)
@given(_small_poly, _small_poly)
def test_poly_exact_div_soundness(a, b):
    if ZX.is_zero(b):
        return
    q = ZX.exact_div(ZX.mul(a, b), b)
    assert q is not None and ZX.eq(q, a)


@settings(max_examples=200)
@given(_small_poly, _small_poly, _small_poly)
def test_gcd_scales_with_a_common_factor(a, b, g):
    """gcd(a*g, b*g) is the canonical associate of gcd(a, b) * g and divides
    both arguments; a zero operand leaves the canonical associate of the other."""
    ag, bg = ZX.mul(a, g), ZX.mul(b, g)
    d = poly_gcd_z(ag, bg)
    assert d == ZX.canonical_associate(ZX.mul(poly_gcd_z(a, b), g))[1]
    for x in (ag, bg):
        if d.coeffs:
            assert ZX.exact_div(x, d) is not None
        else:
            assert not x.coeffs
    canonical = ZX.canonical_associate(ag)[1]
    assert poly_gcd_z(ag, ZX.zero) == canonical == poly_gcd_z(ZX.zero, ag)


GENERIC_ZX = PolynomialRing(ZZ, "X")
# raw coefficient lists: the zero polynomial, trailing zeros and all
_raw_coeffs = st.lists(st.integers(-20, 20), min_size=0, max_size=7)


@settings(max_examples=300)
@given(_raw_coeffs, _raw_coeffs)
def test_integer_ring_matches_the_generic_ring(xs, ys):
    """The integer-native Z[X] agrees with PolynomialRing(ZZ, "X"), which
    dispatches every coefficient operation to IntegerRing."""
    assert ZX == GENERIC_ZX and GENERIC_ZX == ZX
    a, b = ZX.make(xs), ZX.make(ys)
    assert a == GENERIC_ZX.make(xs) and b == GENERIC_ZX.make(ys)
    for op in ("add", "sub", "mul"):
        assert getattr(ZX, op)(a, b) == getattr(GENERIC_ZX, op)(a, b), op
    assert ZX.neg(a) == GENERIC_ZX.neg(a)
    assert ZX.is_zero(a) == GENERIC_ZX.is_zero(a)
    assert ZX.canonical_associate(a) == GENERIC_ZX.canonical_associate(a)
    product = ZX.mul(a, b)
    for num, den in ((a, b), (product, b), (product, a), (ZX.add(product, ZX.one), b)):
        if not den.coeffs:
            for ring in (ZX, GENERIC_ZX):
                with pytest.raises(MathDomainError):
                    ring.exact_div(num, den)
            continue
        assert ZX.exact_div(num, den) == GENERIC_ZX.exact_div(num, den)


def test_immutability():
    p = ZX.make([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = ()
    l = LT.one
    with pytest.raises(AttributeError):
        l.low = 3


def test_pow_matches_repeated_multiplication():
    # oracle: n-fold product; pow itself squares and multiplies
    bases = {
        ZZ: -3,
        ZX: ZX.make([1, -2, 1]),
        LT: LT.make(-1, [2, 0, 1]),
        ZXY: ZXY.make([ZX.make([1, 1]), ZX.make([0, 2])]),
    }
    for ring, a in bases.items():
        product = ring.one
        for n in range(20):
            assert ring.eq(ring.pow(a, n), product)
            product = ring.mul(product, a)
    with pytest.raises(MathDomainError):
        ZZ.pow(2, -1)
