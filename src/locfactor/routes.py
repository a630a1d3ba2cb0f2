"""Factorization routes and their localization oracles.

Three structurally different ways to factor over Z[X], cross-checked against
each other:

* direct        -- ``factor_poly_zx`` (content + Kronecker), no localization
* laurent       -- localize at the powers of X; the Laurent ring factorizer is
                   the oracle and the descent layer pulls factors back
* fraction field-- localize at the constant primes that actually occur; the
                   Q[X] factorizer is the oracle

plus the bivariate route for Z[X][Y], which descends from polynomials with
rational-function coefficients and is cross-checked against the Kronecker
substitution engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from . import expr
from .basefactor import (
    PrimeFactorization,
    check_factorization_unique,
    factor_bivariate,
    factor_integer,
    factor_poly_qx,
    factor_poly_zx,
    request_memo,
)
from .descent import DescentResult, LocalizationOracle, certify_prime, descend_factor, descend_factor_pou
from .errors import MathDomainError, OracleViolationError
from .localization import Fraction, GeneratedSubmonoid, SMember
from .rings import (
    FRAC_ZX,
    FXY,
    LT,
    QX,
    ZX,
    ZXY,
    Element,
    Laurent,
    Poly,
    laurent_to_poly,
    poly_primitive,
    qx_from_zx,
    strip_var_power,
    zx_clear_denominators,
    zxy_clear_denominators,
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

    Runs both transfer chains (the submonoid has a single generator) and
    insists they agree.
    """
    with request_memo():
        S = powers_of_x_submonoid()
        oracle = LaurentOracle(S)
        res = descend_factor(f, S, oracle)
        res_pou = descend_factor_pou(f, S, oracle)
        if check_factorization_unique(ZX, res.factorization, res_pou.factorization) is None:
            raise OracleViolationError("prime-generated and prime-or-unit chains disagree")
    return res


# ---------------------------------------------------------------------------
# fraction-field route for Z[X]

def fracfield_submonoid(f: Poly) -> GeneratedSubmonoid:
    """Constant primes participating in f's fraction-field factorization.

    The full submonoid of the construction is generated by all constant
    primes; only finitely many can occur for a fixed input, so the generator
    list is grown from the content, the leading coefficient, and the monic
    factor denominators seen in a prepass.
    """
    if ZX.is_zero(f):
        raise MathDomainError("cannot factor zero")
    c, prim = poly_primitive(f)
    primes: list[int] = []
    primes += factor_integer(c).factors
    primes += factor_integer(prim.coeffs[-1]).factors
    for m in factor_poly_qx(qx_from_zx(f)).factors:
        primes += factor_integer(zx_clear_denominators(m)[0]).factors
    return GeneratedSubmonoid(ZX, [ZX.constant(p) for p in primes])


class FieldPolyOracle(LocalizationOracle):
    """Localization of Z[X] at constant primes, realized by the Q[X] engine."""

    name = "Q[X] factorization"

    def __init__(self, S: GeneratedSubmonoid):
        self.S = S

    def _constant_member(self, d: int) -> SMember:
        exps, rest = self.S.strip(ZX.constant(d))
        if not ZX.is_unit(rest) or rest != ZX.one:
            raise OracleViolationError(f"denominator {d} lies outside the submonoid")
        return self.S.member(exps)

    def factor_fraction(self, x: Fraction) -> tuple[Fraction, tuple]:
        S = self.S
        qf = factor_poly_qx(qx_from_zx(x.num))
        lead = qf.unit.coeffs[0]
        unit_den = self._constant_member(lead.denominator).mul(x.den)
        unit_frac = Fraction(ZX.constant(lead.numerator), unit_den)
        primes = []
        for m in qf.factors:
            d, cleared = zx_clear_denominators(m)
            primes.append(Fraction(cleared, self._constant_member(d)))
        return (unit_frac, tuple(primes))

    def divides(self, x: Fraction, y: Fraction) -> Optional[tuple[SMember, Element]]:
        if ZX.is_zero(x.num):
            return None
        quot, rem = QX.divmod(qx_from_zx(y.num), qx_from_zx(x.num))
        if rem.coeffs:
            return None
        d, cleared = zx_clear_denominators(quot)
        exps, rest = self.S.strip(ZX.constant(d))
        if rest != ZX.one:
            return None  # no witness with denominator inside this submonoid
        return (self.S.member(exps), cleared)

    def is_prime_embedded(self, r: Element) -> bool:
        if ZX.is_zero(r):
            return False
        rq = qx_from_zx(r)
        if QX.is_unit(rq):
            return False
        return len(factor_poly_qx(rq).factors) == 1


def factor_zx_via_fraction_field(f: Poly) -> DescentResult:
    """Descend a Z[X] factorization from Q[X] through the constant primes."""
    with request_memo():
        S = fracfield_submonoid(f)
        oracle = FieldPolyOracle(S)
        return descend_factor(f, S, oracle)


# ---------------------------------------------------------------------------
# iterated (bivariate) route

def iterated_submonoid(f: Poly) -> GeneratedSubmonoid:
    """Constant primes of Z[X] dividing the coefficient content of f."""
    if ZXY.is_zero(f):
        raise MathDomainError("cannot factor zero")
    cont, _ = zxy_primitive(f)
    cf = factor_poly_zx(cont)
    return GeneratedSubmonoid(ZXY, [ZXY.constant(q) for q in cf.factors])


class RationalCoeffOracle(LocalizationOracle):
    """Localization of Z[X][Y] at constant primes of Z[X], realized by
    factoring over rational-function coefficients (clear denominators, reduce
    to the bivariate base engine)."""

    name = "Frac(Z[X])[Y] factorization"

    def __init__(self, S: GeneratedSubmonoid):
        self.S = S

    def _constant_member(self, d: Poly) -> SMember:
        exps, rest = self.S.strip(ZXY.constant(d))
        if rest != ZXY.one:
            raise OracleViolationError("denominator lies outside the submonoid")
        return self.S.member(exps)

    def _to_fxy(self, num: Poly, den_value: Poly) -> Poly:
        inner_den = den_value.coeffs[0]
        return FXY.make([FRAC_ZX.make(c, inner_den) for c in num.coeffs])

    def factor_fraction(self, x: Fraction) -> tuple[Fraction, tuple]:
        den, cleared = zxy_clear_denominators(self._to_fxy(x.num, x.den.value))
        cont, pp = zxy_primitive(cleared)
        bf = factor_bivariate(pp)
        unit_num = ZXY.mul(ZXY.constant(cont), bf.unit)
        unit_frac = Fraction(unit_num, self._constant_member(den))
        primes = tuple(Fraction(h, self.S.one_member()) for h in bf.factors)
        return (unit_frac, primes)

    def divides(self, x: Fraction, y: Fraction) -> Optional[tuple[SMember, Element]]:
        if ZXY.is_zero(x.num):
            return None
        fx = self._to_fxy(x.num, x.den.value)
        fy = self._to_fxy(y.num, y.den.value)
        quot, rem = FXY.divmod(fy, fx)
        if rem.coeffs:
            return None
        den, cleared = zxy_clear_denominators(quot)
        exps, rest = self.S.strip(ZXY.constant(den))
        if rest != ZXY.one:
            return None
        return (self.S.member(exps), cleared)

    def is_prime_embedded(self, r: Element) -> bool:
        if ZXY.is_zero(r):
            return False
        _, pp = zxy_primitive(r)
        if len(pp.coeffs) <= 1:
            return False  # constants are units (or zero) over the fraction field
        return len(factor_bivariate(pp).factors) == 1


def factor_iterated(f: Poly) -> DescentResult:
    """Factor over Z[X][Y]; descent from rational-function coefficients,
    cross-checked against the Kronecker substitution engine."""
    with request_memo():
        direct = factor_bivariate(f)  # first: it rejects zero and the degree caps
        S = iterated_submonoid(f)
        oracle = RationalCoeffOracle(S)
        res = descend_factor(f, S, oracle)
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
