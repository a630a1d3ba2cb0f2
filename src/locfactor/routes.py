"""Factorization routes and their localization oracles.

Three structurally different ways to factor over Z[X], cross-checked against
each other:

* direct        -- ``factor_poly_zx`` (content + Zassenhaus), no localization
* laurent       -- localize at the powers of X, the Laurent ring, computed in
                   Z[X]; the descent layer pulls factors back
* fraction field-- localize at the constant primes that actually occur
                   and compare with Q[X]

Laurent input takes the laurent route too (``factor_laurent``), and there is
the bivariate route for Z[X][Y], which descends the same way from
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
from typing import Callable, NamedTuple, Optional

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
from .descent import BaseEngineOracle, DescentResult, LocalizationOracle, descend_factor
from .descent import certify_prime  # unused; a benchmark test reads it (ROADMAP item 1)
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

def powers_of_x_submonoid() -> GeneratedSubmonoid:
    return GeneratedSubmonoid(ZX, [ZX.gen])


class LaurentOracle(BaseEngineOracle):
    """Localization of Z[X] at the powers of X, the Laurent ring, computed in
    Z[X] by the base-engine oracle: X is a unit there, so X^m * q factors and
    divides as q does, and q with q(0) != 0 is prime there exactly when it is
    prime in Z[X].  ``engine`` is the Z[X] factorizer, passed in as for
    ``ConstantPrimesOracle``."""

    name = "Z[T,T^-1] factorization"

    def __init__(self, S: GeneratedSubmonoid, engine):
        self.S, self.engine = S, engine  # the base class would render S for its own name

    # bound here too, so that per-class method tracing sees the Laurent calls
    factor_fraction = BaseEngineOracle.factor_fraction
    divides = BaseEngineOracle.divides
    is_prime_embedded = BaseEngineOracle.is_prime_embedded


def _descend_checked(f: Poly, S: GeneratedSubmonoid, oracle: LocalizationOracle) -> DescentResult:
    """``descend_factor``, then one check of the localization-case factors
    against the direct factorization of their value, the stripped residue a0
    (not of f: the oracle has factored a0, so the check meets no new cap)."""
    res = descend_factor(f, S, oracle)
    pf = res.factorization
    local = PrimeFactorization(
        pf.unit, tuple(q for q, c in zip(pf.factors, res.certificates) if c.case == "localization")
    )
    direct = factor_poly_zx(local.value(ZX))
    if check_factorization_unique(ZX, direct, local) is None:
        raise OracleViolationError(
            f"direct engine and the descent through {oracle.name} disagree: "
            f"{_render_pf(ZX, direct)} vs {_render_pf(ZX, local)}"
        )
    return res


def factor_zx_via_laurent(f: Poly) -> DescentResult:
    """Descend a Z[X] factorization from the Laurent ring.

    The powers of X are a prime-generated submonoid with one generator, so
    this is the same ``descend_factor`` that the other routes run.
    """
    with request_memo():
        S = powers_of_x_submonoid()
        return _descend_checked(f, S, LaurentOracle(S, factor_poly_zx))


def factor_laurent(f: Laurent) -> DescentResult:
    """Factor a Laurent polynomial by the Laurent route; the unit absorbs
    the sign and all T powers.

    T^n * f == T^m * q with q(0) != 0, and the factors of q in Z[X] by
    ``factor_zx_via_laurent`` are the Laurent factors of f, each with its
    certificate: it avoids the powers of T and is prime in the Laurent ring.
    """
    if LT.is_zero(f):
        raise MathDomainError("cannot factor zero")
    n, p = laurent_to_poly(f)
    m, q = strip_var_power(p)
    res = factor_zx_via_laurent(q)
    pf = res.factorization
    unit = Laurent(m - n, Poly((pf.unit.coeffs[0],)))
    # Z[X] order is Laurent order at T^0, so the certificates stay aligned
    out = PrimeFactorization(unit, tuple(LT.from_poly(r) for r in pf.factors))
    if not LT.eq(out.value(LT), f):
        raise OracleViolationError("factor_laurent reconstruction failed")
    return DescentResult(out, res.certificates)


# ---------------------------------------------------------------------------
# constant primes: R[Y] localized at the constant primes of R, for R = Z, Z[X]

class CoefficientRing(NamedTuple):
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
    content is a unit of Frac(R)[Y], and of S^-1 R[Y] only if it strips to
    one.  So ``engine``, the R[Y] factorizer of primitive polynomials,
    answers for Frac(R)[Y], the prime fractions need no denominators, and
    divisibility needs only exact division in R[Y].  The engine is passed in
    rather than captured, so a caller that rebinds it by name is seen here
    too.
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
        ring = self.S.ring
        if ring.is_zero(r):
            return False
        c, prim = self.R.primitive(r)
        if len(prim.coeffs) <= 1:
            return False  # constants are units over the fraction field
        _, rest = self.S.strip(ring.constant(c))
        if not ring.is_unit(rest):
            return False  # a content prime outside S stays a factor in S^-1 R[Y]
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
        return _descend_checked(f, S, ConstantPrimesOracle(S, OVER_Z, kronecker_factor))


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


class RouteRun(NamedTuple):
    route: str
    factorization: PrimeFactorization
    certificates: Optional[tuple]
    elapsed: float


class CompareReport(NamedTuple):
    element: Poly
    runs: tuple
    agreements: tuple


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
