"""Descent layer: the case-split decision procedure, certificates, numerator
normalization, and the descent factorizer, including broken-oracle
diagnostics."""

import pytest

from locfactor.basefactor import check_factorization_unique, factor_integer, factor_poly_zx, kronecker_factor
from locfactor.descent import (
    BaseEngineOracle,
    LocalizationOracle,
    certify_prime,
    descend_factor,
    normalize_numerator,
)
from locfactor.errors import (
    DescentInconsistencyError,
    OracleViolationError,
    PreconditionError,
)
from locfactor.localization import Fraction, GeneratedSubmonoid, embed
from locfactor.rings import ZX, ZZ
from locfactor.routes import OVER_Z, ConstantPrimesOracle, LaurentOracle, powers_of_x_submonoid


@pytest.fixture
def s2():
    return GeneratedSubmonoid(ZZ, [2])


@pytest.fixture
def sx():
    return powers_of_x_submonoid()


@pytest.fixture
def laurent_oracle(sx):
    return LaurentOracle(sx)


class TestCertifyPrime:
    def test_generator_case(self, sx, laurent_oracle):
        cert = certify_prime(ZX.gen, sx, laurent_oracle)
        assert cert.case == "generator"
        assert cert.generator_index == 0 and cert.unit == ZX.one
        assert cert.replay()

    def test_localization_case(self, sx, laurent_oracle):
        cert = certify_prime(ZX.make([1, 0, 1]), sx, laurent_oracle)
        assert cert.case == "localization"
        assert cert.replay()

    def test_not_irreducible(self, sx, laurent_oracle):
        with pytest.raises(PreconditionError, match="not irreducible"):
            certify_prime(ZX.make([0, 0, 1]), sx, laurent_oracle)  # X^2
        with pytest.raises(PreconditionError, match="not irreducible"):
            certify_prime(ZX.one, sx, laurent_oracle)
        with pytest.raises(PreconditionError, match="not irreducible"):
            certify_prime(ZX.zero, sx, laurent_oracle)

    def test_oracle_denial(self, s2):
        class Denier(LocalizationOracle):
            name = "denier"

            def is_prime_embedded(self, r):
                return False

        with pytest.raises(OracleViolationError, match="localization not UFD"):
            certify_prime(3, s2, Denier())

    def test_replay_detects_tampering(self, s2):
        from locfactor.descent import PrimalityCertificate

        bad = PrimalityCertificate(3, s2, "generator", generator_index=0, unit=1)
        assert not bad.replay()  # 3 is not 1 * 2


class TestNormalizeNumerator:
    def test_examples(self):
        S = GeneratedSubmonoid(ZX, [ZX.from_int(2)])
        r, stripped = normalize_numerator(embed(ZX.make([2, 2]), S), S)
        assert r == ZX.make([1, 1]) and stripped == (ZX.from_int(2),)
        r, stripped = normalize_numerator(Fraction(ZX.from_int(3), S.member((1,))), S)
        assert r == ZX.from_int(3) and stripped == ()
        r, stripped = normalize_numerator(embed(ZX.from_int(8), S), S)
        assert r == ZX.one and stripped == (ZX.from_int(2),) * 3

    def test_zero_rejected(self, s2):
        with pytest.raises(PreconditionError):
            normalize_numerator(embed(0, s2), s2)


class TestDescendFactor:
    def test_fully_stripped(self, s2):
        res = descend_factor(8, s2, BaseEngineOracle(s2, factor_integer))
        assert res.factorization.factors == (2, 2, 2)
        assert res.factorization.unit == 1
        assert all(c.case == "generator" for c in res.certificates)

    def test_constant_prime_route_fragment(self):
        S = GeneratedSubmonoid(ZX, [ZX.from_int(2)])
        res = descend_factor(ZX.make([2, 2]), S, ConstantPrimesOracle(S, OVER_Z, kronecker_factor))
        assert res.factorization.factors == (ZX.from_int(2), ZX.make([1, 1]))
        assert [c.case for c in res.certificates] == ["generator", "localization"]
        assert check_factorization_unique(
            ZX, res.factorization, factor_poly_zx(ZX.make([2, 2]))
        )

    def test_laurent_oracle(self, sx, laurent_oracle):
        res = descend_factor(ZX.make([0, 0, 1, 1]), sx, laurent_oracle)
        assert res.factorization.factors == (ZX.gen, ZX.gen, ZX.make([1, 1]))
        for q, c in zip(res.factorization.factors, res.certificates):
            assert c.subject == (q if c.case == "generator" else c.subject)
            assert c.replay()

    def test_unit_input(self, s2):
        res = descend_factor(-1, s2, BaseEngineOracle(s2, factor_integer))
        assert res.factorization.unit == -1 and res.factorization.factors == ()

    def test_zero_rejected(self, s2):
        from locfactor.errors import MathDomainError

        with pytest.raises(MathDomainError):
            descend_factor(0, s2, BaseEngineOracle(s2, factor_integer))


class TestBrokenOracles:
    def test_wrong_product_detected(self, s2):
        class Liar(BaseEngineOracle):
            def factor_fraction(self, x):
                unit, primes = super().factor_fraction(x)
                return unit, primes + (embed(7, self.S),)

        with pytest.raises(OracleViolationError, match="multiply back"):
            descend_factor(15, s2, Liar(s2, factor_integer))

    def test_nonunit_residue_detected(self, s2):
        class SmuggledUnit(LocalizationOracle):
            name = "smuggler"

            def factor_fraction(self, x):
                # claims 15 == 3 * 5 with the 3 hidden in the "unit" slot
                return embed(3, s2), (embed(5, s2),)

            def is_prime_embedded(self, r):
                return True

        with pytest.raises(DescentInconsistencyError):
            descend_factor(15, s2, SmuggledUnit())

    def test_unit_factor_detected(self, s2):
        class UnitFactor(LocalizationOracle):
            name = "unit-factor"

            def factor_fraction(self, x):
                return embed(1, s2), (embed(1, s2), embed(15, s2))

            def is_prime_embedded(self, r):
                return True

        with pytest.raises(OracleViolationError, match="unit factor"):
            descend_factor(15, s2, UnitFactor())


class TestBaseEngineOracle:
    def test_divides_witness(self, s2):
        oracle = BaseEngineOracle(s2, factor_integer)
        w = oracle.divides(embed(3, s2), embed(12, s2))
        assert w is not None
        s, c = w
        assert s.value * 12 == 3 * c
        assert oracle.divides(embed(3, s2), embed(5, s2)) is None

    def test_is_prime_embedded(self, s2):
        oracle = BaseEngineOracle(s2, factor_integer)
        assert oracle.is_prime_embedded(3)
        assert oracle.is_prime_embedded(6)  # 6 ~ 3 once 2 is a unit
        assert not oracle.is_prime_embedded(4)  # strips to a unit
        assert not oracle.is_prime_embedded(15)
        assert not oracle.is_prime_embedded(0)
