"""Descent layer: the case-split decision procedure, certificates, and the
descent factorizer, including broken-oracle diagnostics."""

import random

import pytest

from locfactor.basefactor import (
    check_factorization_unique,
    factor_bivariate,
    factor_integer,
    factor_poly_zx,
)
from locfactor.descent import (
    LocalizationOracle,
    certify_prime,
    descend_factor,
)
from locfactor.errors import (
    DescentInconsistencyError,
    MathDomainError,
    OracleViolationError,
    PreconditionError,
)
from locfactor.localization import LT, Fraction, GeneratedSubmonoid, embed, transfer_prime_divides
from locfactor.rings import ZX, ZXY, ZZ
from locfactor.routes import BaseEngineOracle, ConstantPrimesOracle, LaurentOracle
from locfactor.selftest import rand_bivariate, rand_zx


@pytest.fixture
def s2():
    return GeneratedSubmonoid(ZZ, [2])


@pytest.fixture
def sx():
    return LT.S


@pytest.fixture
def laurent_oracle(sx):
    return LaurentOracle(sx, factor_poly_zx)


class TestCertifyPrime:
    def test_generator_case(self, laurent_oracle):
        cert = certify_prime(ZX.gen, laurent_oracle)
        assert cert.case == "generator"
        assert cert.generator_index == 0 and cert.unit == ZX.one
        assert cert.replay()

    def test_localization_case(self, laurent_oracle):
        cert = certify_prime(ZX.make([1, 0, 1]), laurent_oracle)
        assert cert.case == "localization"
        assert cert.replay()

    def test_not_irreducible(self, laurent_oracle):
        with pytest.raises(PreconditionError, match="not irreducible"):
            certify_prime(ZX.make([0, 0, 1]), laurent_oracle)  # X^2
        with pytest.raises(PreconditionError, match="not irreducible"):
            certify_prime(ZX.one, laurent_oracle)
        with pytest.raises(PreconditionError, match="not irreducible"):
            certify_prime(ZX.zero, laurent_oracle)

    def test_oracle_denial(self, s2):
        class Denier(LocalizationOracle):
            name = "denier"
            S = s2

            def is_prime_embedded(self, r):
                return False

        with pytest.raises(OracleViolationError, match="localization not UFD"):
            certify_prime(3, Denier())

    def test_composite_subject_no_generator_divides(self, s2):
        """No engine tests the subject: a composite that no generator divides
        is refused by the oracle's denial, with the error naming both causes."""
        with pytest.raises(OracleViolationError, match="or p is not irreducible"):
            certify_prime(9, BaseEngineOracle(s2, factor_integer))
        sx = LT.S
        with pytest.raises(OracleViolationError, match="or p is not irreducible"):
            certify_prime(ZX.make([2, 0, 2]), LaurentOracle(sx, factor_poly_zx))  # 2*X^2 + 2

    def test_content_outside_the_submonoid_is_not_prime(self):
        """3*X + 3 is not prime in Z[1/2][X], nor X*Y in Z[X][1/2][Y]: the
        constant-primes oracle refuses both, and certifies X + 1 and Y.
        2*X + 2 is prime, and a constant, a unit over the fraction field, is
        not."""
        S = GeneratedSubmonoid(ZX, [ZX.from_int(2)])
        oracle = ConstantPrimesOracle(S, "Q[X] factorization", factor_poly_zx)
        assert not oracle.is_prime_embedded(ZX.make([3, 3]))
        assert oracle.is_prime_embedded(ZX.make([2, 2]))
        assert not oracle.is_prime_embedded(ZX.from_int(3))
        with pytest.raises(OracleViolationError):
            certify_prime(ZX.make([3, 3]), oracle)
        assert certify_prime(ZX.make([1, 1]), oracle).replay()
        SY = GeneratedSubmonoid(ZXY, [ZXY.constant(ZX.from_int(2))])
        oracle_y = ConstantPrimesOracle(SY, "Frac(Z[X])[Y] factorization", factor_bivariate)
        xy = ZXY.make([ZX.zero, ZX.gen])
        assert not oracle_y.is_prime_embedded(xy)
        assert not oracle_y.is_prime_embedded(ZXY.constant(ZX.gen))
        with pytest.raises(OracleViolationError):
            certify_prime(xy, oracle_y)
        assert certify_prime(ZXY.gen, oracle_y).replay()

    def test_replay_detects_tampering(self, s2, laurent_oracle):
        from locfactor.descent import PrimalityCertificate

        oracle = BaseEngineOracle(s2, factor_integer)
        bad = PrimalityCertificate(3, oracle, "generator", generator_index=0, unit=1)
        assert not bad.replay()  # 3 is not 1 * 2
        # the decision refuses a proper multiple of a generator, zero and a
        # unit, so their certificates do not replay, and raise nothing
        for subject in (ZX.make([0, 1, 1]), ZX.zero, ZX.one):  # X^2 + X, 0, 1
            assert not PrimalityCertificate(subject, laurent_oracle, "localization").replay()
        # the decision finds X an associate of the generator
        assert not PrimalityCertificate(ZX.gen, laurent_oracle, "localization").replay()


class TestDescendFactor:
    def test_fully_stripped(self, s2):
        res = descend_factor(8, BaseEngineOracle(s2, factor_integer))
        assert res.factorization.factors == (2, 2, 2)
        assert res.factorization.unit == 1
        assert all(c.case == "generator" for c in res.certificates)

    def test_constant_prime_route_fragment(self):
        S = GeneratedSubmonoid(ZX, [ZX.from_int(2)])
        res = descend_factor(ZX.make([2, 2]), ConstantPrimesOracle(S, "Q[X] factorization", factor_poly_zx))
        assert res.factorization.factors == (ZX.from_int(2), ZX.make([1, 1]))
        assert [c.case for c in res.certificates] == ["generator", "localization"]
        assert check_factorization_unique(
            ZX, res.factorization, factor_poly_zx(ZX.make([2, 2]))
        )

    def test_laurent_oracle(self, laurent_oracle):
        res = descend_factor(ZX.make([0, 0, 1, 1]), laurent_oracle)
        assert res.factorization.factors == (ZX.gen, ZX.gen, ZX.make([1, 1]))
        for q, c in zip(res.factorization.factors, res.certificates):
            assert c.subject == (q if c.case == "generator" else c.subject)
            assert c.replay()

    def test_unit_input(self, s2):
        res = descend_factor(-1, BaseEngineOracle(s2, factor_integer))
        assert res.factorization.unit == -1 and res.factorization.factors == ()

    def test_zero_rejected(self, s2):
        from locfactor.errors import MathDomainError

        with pytest.raises(MathDomainError):
            descend_factor(0, BaseEngineOracle(s2, factor_integer))


class TestBrokenOracles:
    def test_wrong_product_detected(self, s2):
        class Liar(BaseEngineOracle):
            def factor_fraction(self, x):
                unit, primes = super().factor_fraction(x)
                return unit, primes + (embed(7, self.S),)

        with pytest.raises(OracleViolationError, match="multiply back"):
            descend_factor(15, Liar(s2, factor_integer))

    def test_nonunit_residue_detected(self, s2):
        class SmuggledUnit(LocalizationOracle):
            name = "smuggler"
            S = s2

            def factor_fraction(self, x):
                # claims 15 == 3 * 5 with the 3 hidden in the "unit" slot
                return embed(3, s2), (embed(5, s2),)

            def is_prime_embedded(self, r):
                return True

        with pytest.raises(DescentInconsistencyError):
            descend_factor(15, SmuggledUnit())

    def test_unit_factor_detected(self, s2):
        class UnitFactor(LocalizationOracle):
            name = "unit-factor"
            S = s2

            def factor_fraction(self, x):
                return embed(1, s2), (embed(1, s2), embed(15, s2))

            def is_prime_embedded(self, r):
                return True

        with pytest.raises(OracleViolationError, match="unit factor"):
            descend_factor(15, UnitFactor())

    def test_zero_factor_detected(self, s2):
        """a0 is nonzero, so a zero prime fraction fails the multiply-back
        check before any prime fraction is read."""
        class ZeroFactor(LocalizationOracle):
            name = "zero-factor"
            S = s2

            def factor_fraction(self, x):
                return embed(1, s2), (embed(0, s2), embed(15, s2))

            def is_prime_embedded(self, r):
                return True

        with pytest.raises(OracleViolationError, match="multiply back"):
            descend_factor(15, ZeroFactor())

    def test_zero_is_refused_before_the_oracle_is_asked(self, s2):
        class Untouchable(LocalizationOracle):
            name = "untouchable"
            S = s2

            def factor_fraction(self, x):
                raise AssertionError("the oracle was asked")

        with pytest.raises(MathDomainError, match="^cannot factor zero$"):
            descend_factor(0, Untouchable())

    def test_miscounted_generator_detected(self):
        """A strip that drops one power of each generator it divides out
        leaves every other check satisfied: only the final multiply-back
        check sees that the factorization misses a generator."""
        class Miscounting(GeneratedSubmonoid):
            def strip(self, a):
                exps, rest = super().strip(a)
                return tuple(max(e - 1, 0) for e in exps), rest

        S = Miscounting(ZZ, [2])
        with pytest.raises(DescentInconsistencyError):
            descend_factor(12, BaseEngineOracle(S, factor_integer))


class TestBaseEngineOracle:
    def test_divides_witness(self, s2):
        oracle = BaseEngineOracle(s2, factor_integer)
        w = oracle.divides(embed(3, s2), embed(12, s2))
        assert w is not None
        s, c = w
        assert s.value * 12 == 3 * c
        assert oracle.divides(embed(3, s2), embed(5, s2)) is None

    def test_name_is_rendered_when_read(self, s2, sx, monkeypatch):
        """Building an oracle renders nothing: the submonoid is rendered
        into the name only when the name is read."""
        rendered = []
        describe = GeneratedSubmonoid.describe

        def counting(S):
            rendered.append(S)
            return describe(S)

        monkeypatch.setattr(GeneratedSubmonoid, "describe", counting)
        oracle = BaseEngineOracle(s2, factor_integer)
        LaurentOracle(sx, factor_poly_zx)
        assert rendered == []
        assert oracle.name == "Z localized at <2>"
        assert rendered == [s2]

    def test_is_prime_embedded(self, s2):
        oracle = BaseEngineOracle(s2, factor_integer)
        assert oracle.is_prime_embedded(3)
        assert oracle.is_prime_embedded(6)  # 6 ~ 3 once 2 is a unit
        assert not oracle.is_prime_embedded(4)  # strips to a unit
        assert not oracle.is_prime_embedded(15)
        assert not oracle.is_prime_embedded(0)


class FactorFractionOnly(LocalizationOracle):
    """Z localized at S, by a subclass that implements ``factor_fraction``
    alone: the generator primes go into the unit fraction."""

    name = "Z localized, factor_fraction only"

    def __init__(self, S):
        self.S = S

    def factor_fraction(self, x):
        pf = factor_integer(x.num)
        unit, primes = pf.unit, []
        for q in pf.factors:
            if q in self.S.generators:
                unit *= q
            else:
                primes.append(embed(q, self.S))
        return Fraction(unit, x.den), tuple(primes)


class TestDerivedOracleMethods:
    """Primality and divisibility in S^-1 R follow from ``factor_fraction``."""

    def test_factor_fraction_alone_drives_the_descent(self, s2):
        oracle = FactorFractionOnly(s2)
        assert certify_prime(2, oracle).case == "generator"
        cert = certify_prime(3, oracle)
        assert cert.case == "localization" and cert.replay()
        res = descend_factor(-24, oracle)
        assert res.factorization.unit == -1 and res.factorization.factors == (2, 2, 2, 3)
        assert [c.case for c in res.certificates] == ["generator"] * 3 + ["localization"]
        assert all(c.replay() for c in res.certificates)
        assert transfer_prime_divides(3, 6, 5, oracle) == ("left", 2)
        assert transfer_prime_divides(3, 5, 12, oracle) == ("right", 4)
        with pytest.raises(OracleViolationError, match="or p is not irreducible"):
            certify_prime(9, oracle)

    @pytest.mark.parametrize(
        "S, name, engine, rand",
        [
            (GeneratedSubmonoid(ZX, [ZX.from_int(2), ZX.from_int(3)]),
             "Q[X] factorization", factor_poly_zx, rand_zx),
            (GeneratedSubmonoid(ZXY, [ZXY.constant(ZX.from_int(2)), ZXY.constant(ZX.gen)]),
             "Frac(Z[X])[Y] factorization", factor_bivariate, rand_bivariate),
        ],
        ids=["ZX", "ZXY"],
    )
    def test_divides_witness_on_random_pairs(self, S, name, engine, rand):
        """s.value * y == x * c whenever a witness is found; when none is,
        x does not divide its own generator part times y in R."""
        rng = random.Random(f"derived-divides-{S.ring.name}")
        ring = S.ring
        oracle = ConstantPrimesOracle(S, name, engine)
        found = 0
        for _ in range(40):
            x0 = rand(rng, nonzero=True)
            sx = S.member([rng.randint(0, 2) for _ in S.generators])
            x = ring.mul(sx.value, x0)
            if rng.random() < 0.5:
                sy = S.member([rng.randint(0, 2) for _ in S.generators])
                y = ring.mul(ring.mul(sy.value, x0), rand(rng, nonzero=True))
            else:
                y = rand(rng)
            w = oracle.divides(embed(x, S), embed(y, S))
            if w is None:
                assert ring.exact_div(ring.mul(sx.value, y), x) is None
                continue
            found += 1
            s, c = w
            assert ring.eq(ring.mul(s.value, y), ring.mul(x, c))
            # the least witness: the generators x has beyond those of y
            (px, _), (py, _) = S.strip(x), S.strip(y)
            assert s.exponents == tuple(max(a - b, 0) for a, b in zip(px, py))
        assert found >= 20
