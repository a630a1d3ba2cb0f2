"""Factorization routes and their localization oracles.

Three structurally different ways to factor over Z[X], cross-checked against
each other:

* direct        -- ``factor_poly_zx`` (content + Zassenhaus), no localization
* laurent       -- localize at the powers of X; the Laurent ring factorizer is
                   the oracle and the descent layer pulls factors back
* fraction field-- localize at the constant primes that actually occur
                   and compare with Q[X]

plus the bivariate route for Z[X][Y], which descends the same way from
Frac(Z[X])[Y] and is cross-checked against the Y -> X^D (Kronecker)
substitution engine.

The fraction-field and bivariate routes are one construction, as in the
paper: R[Y] localized at the constant primes of R and compared with
Frac(R)[Y], for R = Z and R = Z[X].  ``ConstantPrimesOracle`` realizes it
once, by Gauss's lemma on R[Y]: it computes in R[Y] alone, and needs of R
only the split into content and primitive part that the ``CoefficientRing``
records ``OVER_Z`` and ``OVER_ZX`` supply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import expr
from .basefactor import (
    PrimeFactorization,
    check_factorization_unique,
    factor_bivariate,
    factor_integer,
    factor_poly_zx,
    kronecker_factor,
    request_memo,
)
from .descent import DescentResult, LocalizationOracle, certify_prime, descend_factor
from .errors import MathDomainError, OracleViolationError
from .localization import Fraction, GeneratedSubmonoid, SMember
from .rings import (
    LT,
    ZX,
    ZXY,
    Element,
    Laurent,
    Poly,
    laurent_to_poly,
    poly_primitive,
    strip_var_power,
    zxy_primitive,
)


# ---------------------------------------------------------------------------
# Laurent ring

def factor_laurent(f: Laurent) -> PrimeFactorization:
    """Factor a Laurent polynomial; the unit absorbs the sign and all T powers.

    Every emitted factor is a polynomial with nonzero constant coefficient
    that stays prime in the Laurent ring because it is prime over Z[X] and
    does not divide any power of T; the divisibility check is executed, not
    assumed.
    """
    if LT.is_zero(f):
        raise MathDomainError("cannot factor zero")
    n, p = laurent_to_poly(f)
    m, q = strip_var_power(p)
    pf = factor_poly_zx(q)
    for r in pf.factors:
        if ZX.exact_div(ZX.gen, r) is not None:
            raise OracleViolationError("laurent factor divides T")
    sign = pf.unit.coeffs[0]
    unit = Laurent(m - n, Poly((sign,)))
    out = PrimeFactorization.of(LT, unit, [LT.from_poly(r) for r in pf.factors])
    if not LT.eq(out.value(LT), f):
        raise OracleViolationError("factor_laurent reconstruction failed")
    return out


def powers_of_x_submonoid() -> GeneratedSubmonoid:
    return GeneratedSubmonoid(ZX, [ZX.gen])


class LaurentOracle(LocalizationOracle):
    """Localization of Z[X] at the powers of X, realized by the Laurent engine."""

    name = "Z[T,T^-1] factorization"

    def __init__(self, S: GeneratedSubmonoid):
        self.S = S

    def factor_fraction(self, x: Fraction) -> tuple[Fraction, tuple]:
        S = self.S
        k = x.den.exponents[0]
        value = LT.mul(LT.from_poly(x.num), LT.t_power(-k))
        lf = factor_laurent(value)
        j = lf.unit.low
        sign = lf.unit.body.coeffs[0]
        if j >= 0:
            unit_frac = Fraction(ZX.monomial(j, sign), S.one_member())
        else:
            unit_frac = Fraction(ZX.constant(sign), S.member((-j,)))
        primes = tuple(Fraction(l.body, S.one_member()) for l in lf.factors)
        return (unit_frac, primes)

    def divides(self, x: Fraction, y: Fraction) -> Optional[tuple[SMember, Element]]:
        S = self.S
        if ZX.is_zero(x.num):
            return None
        q = LT.exact_div(LT.from_poly(y.num), LT.from_poly(x.num))
        if q is None:
            return None
        if q.low >= 0:
            return (S.one_member(), ZX.make([0] * q.low + list(q.body.coeffs)))
        return (S.member((-q.low,)), q.body)

    def is_prime_embedded(self, r: Element) -> bool:
        if ZX.is_zero(r):
            return False
        value = LT.from_poly(r)
        if LT.is_unit(value):
            return False
        return len(factor_laurent(value).factors) == 1


def factor_zx_via_laurent(f: Poly) -> DescentResult:
    """Descend a Z[X] factorization from the Laurent ring.

    The powers of X are a prime-generated submonoid with one generator, so
    this is the same ``descend_factor`` that the other routes run.
    """
    with request_memo():
        S = powers_of_x_submonoid()
        return descend_factor(f, S, LaurentOracle(S))


# ---------------------------------------------------------------------------
# constant primes: R[Y] localized at the constant primes of R, for R = Z, Z[X]

@dataclass(frozen=True)
class CoefficientRing:
    """What the constant-primes oracle needs of the coefficient ring R."""

    name: str  # the oracle's name in certificates
    primitive: Callable  # R[Y] -> (content c in R, primitive part p), c * p == input


OVER_Z = CoefficientRing("Q[X] factorization", poly_primitive)
OVER_ZX = CoefficientRing("Frac(Z[X])[Y] factorization", zxy_primitive)


class ConstantPrimesOracle(LocalizationOracle):
    """Localization of R[Y] at constant primes of R, compared with Frac(R)[Y]
    by Gauss's lemma on R[Y].

    A primitive polynomial factors the same way over R and over Frac(R), and
    divides an element of R[Y] over Frac(R) exactly when it does over R; the
    content is a unit of Frac(R)[Y].  So ``engine``, the R[Y] factorizer of
    primitive polynomials, answers for Frac(R)[Y], the prime fractions need
    no denominators, and divisibility needs only exact division in R[Y].  The
    engine is passed in rather than captured, so a caller that rebinds it by
    name is seen here too.
    """

    def __init__(self, S: GeneratedSubmonoid, R: CoefficientRing, engine):
        self.S = S
        self.R = R
        self.engine = engine
        self.name = R.name

    def factor_fraction(self, x: Fraction) -> tuple[Fraction, tuple]:
        ring = self.S.ring
        c, prim = self.R.primitive(x.num)
        pf = self.engine(prim)
        unit_frac = Fraction(ring.mul(ring.constant(c), pf.unit), x.den)
        return (unit_frac, tuple(Fraction(q, self.S.one_member()) for q in pf.factors))

    def divides(self, x: Fraction, y: Fraction) -> Optional[tuple[SMember, Element]]:
        S = self.S
        ring = S.ring
        if ring.is_zero(x.num):
            return None
        c, px = self.R.primitive(x.num)
        q = ring.exact_div(y.num, px)  # px | y over Frac(R) iff over R
        if q is None:
            return None
        exps, rest = S.strip(ring.constant(c))  # c == s.value * rest
        cleared = ring.exact_div(q, rest)
        if cleared is None:
            return None  # no witness with denominator inside this submonoid
        return (S.member(exps), cleared)  # s.value * y == x * cleared

    def is_prime_embedded(self, r: Element) -> bool:
        if self.S.ring.is_zero(r):
            return False
        _, prim = self.R.primitive(r)
        if len(prim.coeffs) <= 1:
            return False  # constants are units over the fraction field
        return len(self.engine(prim).factors) == 1


def fracfield_submonoid(f: Poly) -> GeneratedSubmonoid:
    """Constant primes participating in f's fraction-field factorization.

    The full submonoid of the construction is generated by all constant
    primes; only finitely many can occur for a fixed input, so the generators
    are the primes of the content and of the leading coefficient.  These also
    cover the denominators of the monic Q[X] factors: each is the leading
    coefficient of a primitive integer factor, which divides the leading
    coefficient of the primitive part.
    """
    if ZX.is_zero(f):
        raise MathDomainError("cannot factor zero")
    c, prim = poly_primitive(f)
    primes = factor_integer(c).factors + factor_integer(prim.coeffs[-1]).factors
    return GeneratedSubmonoid(ZX, [ZX.constant(p) for p in primes])


def factor_zx_via_fraction_field(f: Poly) -> DescentResult:
    """Descend a Z[X] factorization from Q[X] through the constant primes."""
    with request_memo():
        S = fracfield_submonoid(f)
        return descend_factor(f, S, ConstantPrimesOracle(S, OVER_Z, kronecker_factor))


def iterated_submonoid(f: Poly) -> GeneratedSubmonoid:
    """Constant primes of Z[X] dividing the coefficient content of f."""
    if ZXY.is_zero(f):
        raise MathDomainError("cannot factor zero")
    cont, _ = zxy_primitive(f)
    cf = factor_poly_zx(cont)
    return GeneratedSubmonoid(ZXY, [ZXY.constant(q) for q in cf.factors])


def factor_iterated(f: Poly) -> DescentResult:
    """Factor over Z[X][Y]; descent from rational-function coefficients,
    cross-checked against the Kronecker substitution engine."""
    with request_memo():
        direct = factor_bivariate(f)  # first: it rejects zero and the degree caps
        S = iterated_submonoid(f)
        res = descend_factor(f, S, ConstantPrimesOracle(S, OVER_ZX, factor_bivariate))
        if check_factorization_unique(ZXY, direct, res.factorization) is None:
            raise OracleViolationError(
                "substitution engine and descent disagree: "
                f"{_render_pf(ZXY, direct)} vs {_render_pf(ZXY, res.factorization)}"
            )
    return res


# ---------------------------------------------------------------------------
# route comparison

def _render_pf(ring, pf: PrimeFactorization) -> str:
    factors = ", ".join(expr.render(ring, q) for q in pf.factors)
    return f"unit {expr.render(ring, pf.unit)}; factors [{factors}]"


@dataclass(frozen=True)
class RouteRun:
    route: str
    factorization: PrimeFactorization
    certificates: Optional[tuple]
    elapsed: float


@dataclass(frozen=True)
class CompareReport:
    element: Poly
    runs: tuple
    agreements: tuple


def laurent_certificates(pf: PrimeFactorization) -> tuple:
    """Primality certificates for Laurent factors: each factor body avoids the
    powers of X and stays prime in the Laurent ring."""
    S = powers_of_x_submonoid()
    oracle = LaurentOracle(S)
    return tuple(certify_prime(l.body, S, oracle) for l in pf.factors)


def compare_routes(f: Poly) -> CompareReport:
    """Run the direct engine and both descent routes; insist on pairwise
    agreement up to associates.  The routes share ``kronecker_factor``
    answers through one request memo, and nothing else."""
    if ZX.is_zero(f):
        raise MathDomainError("cannot factor zero")
    with request_memo():
        runs = []
        t0 = time.perf_counter()
        direct = factor_poly_zx(f)
        runs.append(RouteRun("direct", direct, None, time.perf_counter() - t0))
        t0 = time.perf_counter()
        lau = factor_zx_via_laurent(f)
        runs.append(RouteRun("laurent", lau.factorization, lau.certificates, time.perf_counter() - t0))
        t0 = time.perf_counter()
        ff = factor_zx_via_fraction_field(f)
        runs.append(RouteRun("fracfield", ff.factorization, ff.certificates, time.perf_counter() - t0))
        agreements = []
        for i in range(len(runs)):
            for j in range(i + 1, len(runs)):
                bij = check_factorization_unique(ZX, runs[i].factorization, runs[j].factorization)
                if bij is None:
                    raise OracleViolationError(
                        f"route disagreement between {runs[i].route} and {runs[j].route}: "
                        f"{_render_pf(ZX, runs[i].factorization)} vs "
                        f"{_render_pf(ZX, runs[j].factorization)}"
                    )
                agreements.append((runs[i].route, runs[j].route))
        return CompareReport(f, tuple(runs), tuple(agreements))
