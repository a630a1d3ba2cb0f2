"""Localization layer: witnesses, fraction arithmetic and the transfer
algorithms, including the documented error taxonomy."""

import pytest

from locfactor.basefactor import factor_bivariate, factor_integer, factor_poly_zx
from locfactor.descent import BaseEngineOracle
from locfactor.errors import MathDomainError, OracleViolationError, PreconditionError
from locfactor.localization import (
    Fraction,
    LT,
    GeneratedSubmonoid,
    avoids,
    clear_denominator,
    embed,
    find_associate_generator,
    frac_add,
    frac_eq,
    frac_is_unit,
    frac_mul,
    lift_dvd,
    split_prime_factors,
    transfer_irreducible,
    transfer_prime_divides,
    witness_multiset,
)
from locfactor.rings import ZX, ZXY, ZZ
from locfactor.routes import ConstantPrimesOracle, LaurentOracle
from locfactor.selftest import brute_force_avoids


@pytest.fixture
def s2():
    return GeneratedSubmonoid(ZZ, [2])


@pytest.fixture
def s23():
    return GeneratedSubmonoid(ZZ, [2, 3])


@pytest.fixture
def sx():
    return LT.S


class TestSubmonoid:
    def test_generators_checked(self, s2):
        assert s2.generators == (2,)

    def test_non_prime_rejected(self):
        with pytest.raises(PreconditionError):
            GeneratedSubmonoid(ZZ, [4])
        with pytest.raises(PreconditionError):
            GeneratedSubmonoid(ZZ, [1])
        with pytest.raises(PreconditionError):
            GeneratedSubmonoid(ZZ, [0])

    def test_dedup_up_to_associates(self):
        S = GeneratedSubmonoid(ZZ, [2, -2, 3, 2])
        assert S.generators == (2, 3)

    def test_witness_multiset(self, s2, s23):
        assert witness_multiset(s2.member((3,))) == (2, 2, 2)
        assert witness_multiset(s2.member((0,))) == ()
        m = s23.member((2, 1))
        assert witness_multiset(m) == (2, 2, 3)
        assert m.value == 12

    def test_zero_exclusion(self, s23):
        for exps in [(0, 0), (3, 2), (8, 0)]:
            assert s23.member(exps).value != 0

    def test_member_checks_its_witness(self, s23):
        for exps in [(1,), (1, 0, 2), (1, -1)]:
            with pytest.raises(PreconditionError):
                s23.member(exps)

    def test_strip(self, s23):
        exps, rest = s23.strip(-24)
        assert exps == (3, 1) and rest == -1


class TestFractions:
    def test_embed_and_eq(self, s2):
        assert frac_eq(embed(3, s2), Fraction(6, s2.member((1,))))
        assert frac_eq(Fraction(1, s2.member((1,))), Fraction(2, s2.member((2,))))
        assert not frac_eq(Fraction(1, s2.member((1,))), Fraction(1, s2.member((2,))))

    def test_embed_is_homomorphism(self, sx):
        a, b = ZX.from_int(2), ZX.gen
        assert frac_eq(embed(ZX.mul(a, b), sx), frac_mul(embed(a, sx), embed(b, sx)))
        assert frac_eq(embed(ZX.add(a, b), sx), frac_add(embed(a, sx), embed(b, sx)))

    def test_embedded_generator_is_unit(self, s2, sx):
        assert frac_is_unit(embed(2, s2))
        assert frac_is_unit(embed(ZX.gen, sx))

    def test_frac_ops(self, s2, s23):
        x = frac_mul(Fraction(1, s2.member((1,))), Fraction(3, s2.member((2,))))
        assert (x.num, x.den.value) == (3, 8)
        # sums are over the least common denominator
        y = frac_add(Fraction(1, s2.member((1,))), Fraction(1, s2.member((1,))))
        assert (y.num, y.den.value) == (2, 2)
        assert frac_eq(y, embed(1, s2))
        w = frac_add(Fraction(1, s23.member((1, 0))), Fraction(5, s23.member((2, 1))))
        assert (w.num, w.den.exponents) == (11, (2, 1))
        z = embed(7, s2)
        assert frac_eq(frac_mul(z, embed(1, s2)), z)

    def test_frac_is_unit(self, s2):
        assert frac_is_unit(Fraction(4, s2.member((1,))))
        assert not frac_is_unit(Fraction(3, s2.member((1,))))
        assert not frac_is_unit(embed(0, s2))

    def test_mixed_submonoids_rejected(self, s2, s23):
        with pytest.raises(PreconditionError):
            frac_eq(embed(1, s2), embed(1, s23))


class TestAssociateScan:
    def test_find_examples(self, s2, sx):
        assert find_associate_generator(sx, ZX.gen) == (0, ZX.one)
        assert find_associate_generator(s2, -2) == (0, -1)
        assert find_associate_generator(s2, 3) is None

    def test_requires_irreducible(self, s2):
        for proper_multiple in (4, 6):
            with pytest.raises(PreconditionError):
                find_associate_generator(s2, proper_multiple)

    def test_avoids_examples(self, s2, sx):
        assert avoids(s2, 3)
        assert brute_force_avoids(s2, 3)
        assert not avoids(s2, 2)
        assert avoids(sx, ZX.make([1, 0, 1]))

    def test_avoids_matches_brute_force(self, s23):
        for p in (2, 3, 5, 7, -11, 13, 35, -77):  # 35 and -77: composites no generator divides
            assert avoids(s23, p) == brute_force_avoids(s23, p)


class TestClearDenominator:
    def test_examples(self):
        assert clear_denominator(ZZ, (2,), 3, 9, 6) == 3
        assert clear_denominator(ZZ, (), 3, 6, 2) == 2
        assert clear_denominator(ZZ, (2, 2), 5, 15, 12) == 3
        # verify by exact re-multiplication
        assert 9 == 3 * 3 and 15 == 5 * 3

    def test_invalid_instance(self):
        with pytest.raises(PreconditionError, match="not a valid instance"):
            clear_denominator(ZZ, (2,), 3, 9, 7)

    def test_avoidance_violated(self):
        # 3 divides p = 3: ({3}) * 1 == 3 * 1
        with pytest.raises(PreconditionError, match="avoidance violated"):
            clear_denominator(ZZ, (3,), 3, 1, 1)

    def test_non_prime_multiset_detected(self):
        # 4 * 1 == 2 * 2 holds, but peeling 4 out of c = 2 fails
        with pytest.raises(OracleViolationError, match="primality oracle violated"):
            clear_denominator(ZZ, (4,), 2, 1, 2)


class TestLiftDvd:
    def test_examples(self, s2, sx):
        assert lift_dvd(3, 9, s2.member((1,)), 6) == 3
        assert lift_dvd(3, 3, s2.member((0,)), 1) == 1
        d = lift_dvd(ZX.make([1, 1]), ZX.make([-1, 0, 1]), sx.member((1,)), ZX.make([0, -1, 1]))
        assert d == ZX.make([-1, 1])
        assert ZX.mul(ZX.make([1, 1]), d) == ZX.make([-1, 0, 1])

    def test_avoidance_precondition(self, s2):
        with pytest.raises(PreconditionError, match="avoidance violated"):
            lift_dvd(2, 4, s2.member((1,)), 4)


class TestSplitPrimeFactors:
    def test_examples(self, sx):
        assert split_prime_factors(ZZ, 7, (2, 3), 14, 3) == (7, 1, (2,), (3,))
        assert split_prime_factors(ZZ, 5, (), 5, 1) == (5, 1, (), ())
        a2, b2, fa, fb = split_prime_factors(
            ZX, ZX.make([1, 1]), (ZX.gen,), ZX.make([0, 1, 1]), ZX.one
        )
        assert (a2, b2) == (ZX.make([1, 1]), ZX.one)
        assert fa == (ZX.gen,) and fb == ()

    def test_conservation(self):
        a2, b2, fa, fb = split_prime_factors(ZZ, -7, (2, 3, 3), 126, -1)
        assert a2 * b2 == -7
        assert a2 * 2 * 3 * 3 == 126 * (1 if fb == () else 1)
        assert sorted(fa + fb) == [2, 3, 3]

    def test_invalid(self):
        with pytest.raises(PreconditionError, match="not a valid instance"):
            split_prime_factors(ZZ, 7, (2,), 7, 3)

    def test_composite_detected(self):
        # 6*6 == 4*9 with q=6 dividing neither side
        with pytest.raises(OracleViolationError, match="primality oracle violated"):
            split_prime_factors(ZZ, 6, (6,), 4, 9)


class TestTransferIrreducible:
    def test_certificate_and_refuter(self, sx):
        p = ZX.make([1, 0, 1])
        cert = transfer_irreducible(sx, p)
        assert cert.non_unit
        assert cert.refute(embed(p, sx), embed(ZX.one, sx)) == "right"
        assert cert.refute(embed(ZX.one, sx), embed(p, sx)) == "left"

    def test_nontrivial_denominators(self, sx):
        # X^2+1 == (X^3 + X) / X: split must consume the denominator
        p = ZX.make([1, 0, 1])
        cert = transfer_irreducible(sx, p)
        x = Fraction(ZX.make([0, 1, 0, 1]), sx.member((1,)))
        side = cert.refute(x, embed(ZX.one, sx))
        assert side == "right"

    def test_integer_case(self, s2):
        cert = transfer_irreducible(s2, 3)
        assert cert.non_unit

    def test_avoidance_violated(self, s2):
        with pytest.raises(PreconditionError, match="avoidance violated"):
            transfer_irreducible(s2, 2)

    def test_refuter_requires_matching_product(self, s2):
        cert = transfer_irreducible(s2, 3)
        with pytest.raises(PreconditionError):
            cert.refute(embed(5, s2), embed(1, s2))

    def test_ring_with_no_irreducibility_oracle(self):
        """Over Z[T,T^-1] irreducibility cannot be decided, so the transfer
        refuses instead of certifying (T^2 + 1)^2."""
        f = embed(ZX.make([1, 0, 1]), LT.S)
        with pytest.raises(MathDomainError, match="no irreducibility oracle"):
            transfer_irreducible(GeneratedSubmonoid(LT, []), LT.mul(f, f))


class TestTransferPrimeDivides:
    def test_integer_example(self, s2):
        oracle = BaseEngineOracle(s2, factor_integer)
        assert transfer_prime_divides(3, 6, 5, oracle) == ("left", 2)
        assert transfer_prime_divides(3, 5, 6, oracle) == ("right", 2)

    def test_poly_example(self, sx):
        oracle = LaurentOracle(sx, factor_poly_zx)
        side, d = transfer_prime_divides(ZX.make([1, 1]), ZX.make([-1, 0, 1]), ZX.gen, oracle)
        assert side == "left" and d == ZX.make([-1, 1])

    def test_constant_primes_oracle_over_z(self):
        S = GeneratedSubmonoid(ZX, [ZX.from_int(2)])
        oracle = ConstantPrimesOracle(S, "Q[X] factorization", factor_poly_zx)
        p = ZX.make([1, 1])  # X + 1
        a = ZX.mul(ZX.from_int(4), ZX.mul(p, ZX.make([-2, 1])))  # 4(X+1)(X-2)
        b = ZX.make([3, 0, 1])  # X^2 + 3
        assert transfer_prime_divides(p, a, b, oracle) == ("left", ZX.make([-8, 4]))
        assert transfer_prime_divides(p, b, a, oracle) == ("right", ZX.make([-8, 4]))
        # a Q[X] quotient whose denominator lies in S, and one whose does not
        s, c = oracle.divides(embed(ZX.make([2, 2]), S), embed(p, S))
        assert s.exponents == (1,) and c == ZX.one
        assert oracle.divides(embed(ZX.make([3, 3]), S), embed(p, S)) is None

    def test_constant_primes_oracle_over_zx(self):
        S = GeneratedSubmonoid(ZXY, [ZXY.constant(ZX.gen)])
        oracle = ConstantPrimesOracle(S, "Frac(Z[X])[Y] factorization", factor_bivariate)
        p = ZXY.make([ZX.make([1, 1]), ZX.one])  # Y + X + 1
        q = ZXY.make([ZX.make([0, -1]), ZX.gen])  # X(Y - 1)
        a = ZXY.mul(p, q)
        b = ZXY.make([ZX.one, ZX.zero, ZX.one])  # Y^2 + 1
        assert transfer_prime_divides(p, a, b, oracle) == ("left", q)
        assert transfer_prime_divides(p, b, a, oracle) == ("right", q)
        # Y + X + 1 over X(Y + X + 1): the denominator X lies in S
        s, c = oracle.divides(embed(ZXY.mul(ZXY.constant(ZX.gen), p), S), embed(p, S))
        assert s.exponents == (1,) and c == ZXY.one

    def test_precondition(self, s2):
        oracle = BaseEngineOracle(s2, factor_integer)
        with pytest.raises(PreconditionError):
            transfer_prime_divides(3, 1, 1, oracle)

