"""Descent layer: the case-split decision procedure, certificates, and the
descent factorizer, including broken-oracle diagnostics."""

import pytest

from locfactor.basefactor import (
    check_factorization_unique,
    factor_bivariate,
    factor_integer,
    factor_poly_zx,
    kronecker_factor,
)
from locfactor.descent import (
    BaseEngineOracle,
    LocalizationOracle,
    certify_prime,
    descend_factor,
)
from locfactor.errors import (
    DescentInconsistencyError,
    OracleViolationError,
    PreconditionError,
)
from locfactor.localization import GeneratedSubmonoid, embed
from locfactor.rings import ZX, ZXY, ZZ
from locfactor.routes import OVER_Z, OVER_ZX, ConstantPrimesOracle, LaurentOracle, powers_of_x_submonoid


@pytest.fixture
def s2():
    return GeneratedSubmonoid(ZZ, [2])


@pytest.fixture
def sx():
    return powers_of_x_submonoid()


@pytest.fixture
def laurent_oracle(sx):
    return LaurentOracle(sx, factor_poly_zx)


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

    def test_composite_subject_no_generator_divides(self, s2):
        """No engine tests the subject: a composite that no generator divides
        is refused by the oracle's denial, with the error naming both causes."""
        with pytest.raises(OracleViolationError, match="or p is not irreducible"):
            certify_prime(9, s2, BaseEngineOracle(s2, factor_integer))
        sx = powers_of_x_submonoid()
        with pytest.raises(OracleViolationError, match="or p is not irreducible"):
            certify_prime(ZX.make([2, 0, 2]), sx, LaurentOracle(sx, factor_poly_zx))  # 2*X^2 + 2

    def test_content_outside_the_submonoid_is_not_prime(self):
        """3*X + 3 is not prime in Z[1/2][X], nor X*Y in Z[X][1/2][Y]: the
        constant-primes oracle refuses both, and certifies X + 1 and Y."""
        S = GeneratedSubmonoid(ZX, [ZX.from_int(2)])
        oracle = ConstantPrimesOracle(S, OVER_Z, kronecker_factor)
        assert not oracle.is_prime_embedded(ZX.make([3, 3]))
        with pytest.raises(OracleViolationError):
            certify_prime(ZX.make([3, 3]), S, oracle)
        assert certify_prime(ZX.make([1, 1]), S, oracle).replay()
        SY = GeneratedSubmonoid(ZXY, [ZXY.constant(ZX.from_int(2))])
        oracle_y = ConstantPrimesOracle(SY, OVER_ZX, factor_bivariate)
        xy = ZXY.make([ZX.zero, ZX.gen])
        assert not oracle_y.is_prime_embedded(xy)
        with pytest.raises(OracleViolationError):
            certify_prime(xy, SY, oracle_y)
        assert certify_prime(ZXY.gen, SY, oracle_y).replay()

    def test_replay_detects_tampering(self, s2):
        from locfactor.descent import PrimalityCertificate

        bad = PrimalityCertificate(3, s2, "generator", generator_index=0, unit=1)
        assert not bad.replay()  # 3 is not 1 * 2


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
