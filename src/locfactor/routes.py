"""Factorization routes and their localization oracles.

Three structurally different ways to factor over Z[X], cross-checked against
each other:

* direct        -- ``factor_poly_zx`` (content + Zassenhaus), no localization
* laurent       -- localize at the powers of X, the Laurent ring
                   ``localization.LT``, computed in Z[X]
* fraction field-- localize at the constant primes that actually occur
                   and compare with Q[X]

Laurent input takes the laurent route too (``factor_laurent``), and Z[X][Y]
the bivariate route, which descends the same way from Frac(Z[X])[Y].
``basefactor.ROUTE_TABLE`` names each of these functions under its ring, for
``factor --route`` and ``compare_routes``.  Each descent route is an oracle
over a submonoid and one ``_descend_checked`` call, which pulls the factors
back and checks them against the direct engine that the table names for the
oracle's ring, ``factor_poly_zx`` or the Y -> X^D substitution engine
``factor_bivariate``.  Zero and input over a cap are refused below this
module, by the engines and ``descend_factor``.

The fraction-field and bivariate routes are one construction and one
function, ``_fraction_field_route``, as in the paper: R[Y] localized at the
constant primes of R and compared with Frac(R)[Y], for R = Z and R = Z[X].
Its submonoid ``fracfield_submonoid`` holds the primes of the content and of
the leading coefficient of the primitive part.  ``ConstantPrimesOracle``
realizes its factorization once, by Gauss's lemma on R[Y]: it reads the
answer of the direct engine of R[Y], whose constant factors are units of
Frac(R)[Y] and whose other factors are its primes.  So the route asks only
the direct engines of R[Y] and of R.

Every oracle here implements ``factor_fraction`` alone; primality and
divisibility in the localization are derived from it by
``LocalizationOracle``, the same for every route.  The oracles are defined
here, above the engine-free descent layer: ``BaseEngineOracle`` counts its
engine's associates of generators into the unit, ``LaurentOracle`` is that
oracle at the powers of X, and ``ConstantPrimesOracle`` is described above.
"""

from __future__ import annotations

import itertools
import time
from typing import NamedTuple, Optional

from . import expr
from .basefactor import (
    ROUTE_TABLE,
    PrimeFactorization,
    check_factorization_unique,
    direct_engine,
    factor_poly_zx,
    request_memo,
)
from .descent import DescentResult, LocalizationOracle, descend_factor
from .descent import certify_prime  # unused; a benchmark test reads it (ROADMAP item 1)
from .errors import OracleViolationError
from .localization import LT, Fraction, GeneratedSubmonoid, embed, find_associate_generator
from .rings import ZX, ZXY, Poly, Ring


# ---------------------------------------------------------------------------
# base-engine oracles: the Laurent ring

class BaseEngineOracle(LocalizationOracle):
    """Localization oracle backed by a base-ring factorization engine.

    Factors the numerator in the base ring and reinterprets generator
    associates as localization units.  Useful as the trivially-correct oracle
    for integer submonoids and in cross-checking tests.
    """

    def __init__(self, S: GeneratedSubmonoid, engine):
        self.S = S
        self.engine = engine

    @property
    def name(self) -> str:
        """Rendered when read, so that building an oracle renders nothing."""
        return f"{self.S.ring.name} localized at {self.S.describe()}"

    def factor_fraction(self, x: Fraction) -> tuple[Fraction, tuple]:
        S = self.S
        pf = self.engine(x.num)
        unit_num = pf.unit
        primes = []
        for q in pf.factors:
            if find_associate_generator(S, q) is None:
                primes.append(embed(q, S))
            else:  # an associate of a generator is a unit of S^-1 R
                unit_num = S.ring.mul(unit_num, q)
        return (Fraction(unit_num, x.den), tuple(primes))


class LaurentOracle(BaseEngineOracle):
    """Localization of Z[X] at the powers of X, the Laurent ring, computed in
    Z[X] by the base-engine oracle: X is a unit there, so X^m * q factors as
    q does, with the factors X counted into the unit.  ``engine`` is the Z[X]
    factorizer, passed in as for ``ConstantPrimesOracle``."""

    name = "Z[T,T^-1] factorization"


def _require_agreement(ring, a: PrimeFactorization, b: PrimeFactorization, what: str) -> None:
    """Raise ``OracleViolationError`` naming ``what`` and both sides unless
    the factorizations agree up to associates."""
    if check_factorization_unique(ring, a, b):
        return
    shown = []
    for pf in (a, b):
        factors = ", ".join(expr.render(ring, q) for q in pf.factors)
        shown.append(f"unit {expr.render(ring, pf.unit)}; factors [{factors}]")
    raise OracleViolationError(f"{what}: {shown[0]} vs {shown[1]}")


def _descend_checked(f: Poly, oracle: LocalizationOracle) -> DescentResult:
    """``descend_factor``, then one check in ``oracle.S.ring`` of the
    localization-case factors against its direct engine on their value, the
    stripped residue a0 (not on f: the oracle has factored a0, so the check
    meets no new cap); the descent's reconstruction covers the generators."""
    res = descend_factor(f, oracle)
    ring, pf = oracle.S.ring, res.factorization
    local = PrimeFactorization(
        pf.unit, tuple(q for q, c in zip(pf.factors, res.certificates) if c.case == "localization")
    )
    what = f"direct engine and the descent through {oracle.name} disagree"
    _require_agreement(ring, direct_engine(ring)(local.value(ring)), local, what)
    return res


def factor_zx_via_laurent(f: Poly) -> DescentResult:
    """Descend a Z[X] factorization from the Laurent ring.

    The powers of X are a prime-generated submonoid with one generator, so
    this is the same ``descend_factor`` that the other routes run.
    """
    with request_memo():
        return _descend_checked(f, LaurentOracle(LT.S, factor_poly_zx))


def factor_laurent(f: Fraction) -> DescentResult:
    """Factor a Laurent polynomial by the Laurent route; the unit absorbs
    the sign and all T powers.

    f == T^e * r with r(0) != 0 (``LT.normal_form``), and the factors of r
    in Z[X] by ``factor_zx_via_laurent`` are the Laurent factors of f, each
    with its certificate: it avoids the powers of T and is prime in the
    Laurent ring.
    """
    (e,), r = LT.normal_form(f)
    res = factor_zx_via_laurent(r)
    pf = res.factorization
    # no factor is X, so the unit is +-1; Z[X] order is Laurent order at T^0,
    # so the certificates stay aligned
    out = PrimeFactorization(LT.fraction((e,), pf.unit), tuple(embed(q, LT.S) for q in pf.factors))
    return DescentResult(out, res.certificates)


# ---------------------------------------------------------------------------
# constant primes: R[Y] localized at the constant primes of R, for R = Z, Z[X]

class ConstantPrimesOracle(LocalizationOracle):
    """Localization of R[Y] at constant primes of R, compared with Frac(R)[Y]
    by Gauss's lemma on R[Y].

    ``engine`` is the direct engine of R[Y], which the route reads from
    ``direct_engine``.  By Gauss's lemma its non-constant factors are the
    primes of Frac(R)[Y], so the prime fractions need no denominators, and
    its constant factors are units there: they go into the unit fraction, a
    unit of S^-1 R[Y] only if it strips to one.  A constant is thus never
    prime here, and 3*X + 3 is not prime over <2>: its unit fraction 3 does
    not strip to a unit.
    """

    def __init__(self, S: GeneratedSubmonoid, name: str, engine):
        self.S = S
        self.name = name
        self.engine = engine

    def factor_fraction(self, x: Fraction) -> tuple[Fraction, tuple]:
        pf = self.engine(x.num)
        constants = [q for q in pf.factors if len(q.coeffs) == 1]
        primes = tuple(embed(q, self.S) for q in pf.factors if len(q.coeffs) > 1)
        return (Fraction(self.S.ring.prod([pf.unit, *constants]), x.den), primes)


def fracfield_submonoid(ring: Ring, f: Poly) -> GeneratedSubmonoid:
    """Constant primes participating in f's factorization over Frac(R)[Y],
    for ``ring`` = R[Y].

    The full submonoid of the construction is generated by all constant
    primes; only finitely many can occur for a fixed input, so the generators
    are the primes of the content and of the leading coefficient.  These also
    cover the denominators of the monic Frac(R)[Y] factors: each is the
    leading coefficient of a primitive factor, which divides the leading
    coefficient of the primitive part.  Both are read off the answer of
    R[Y]'s direct engine, whose caps refuse before any constant is factored:
    the content primes are its constant factors, and the primitive part's
    leading coefficient is the product of the others', factored by R's
    direct engine.
    """
    pf = direct_engine(ring)(f)
    content = [q for q in pf.factors if len(q.coeffs) == 1]
    lead = ring.coeff.prod(q.coeffs[-1] for q in pf.factors if len(q.coeffs) > 1)
    return GeneratedSubmonoid(ring, content + [ring.constant(p) for p in direct_engine(ring.coeff)(lead).factors])


def _fraction_field_route(ring: Ring, name: str, f: Poly) -> DescentResult:
    """Descend a factorization over ``ring`` = R[Y] from Frac(R)[Y], named
    ``name``, through the constant primes of R."""
    with request_memo():
        return _descend_checked(f, ConstantPrimesOracle(fracfield_submonoid(ring, f), name, direct_engine(ring)))


def factor_zx_via_fraction_field(f: Poly) -> DescentResult:
    """Descend a Z[X] factorization from Q[X] through the constant primes."""
    return _fraction_field_route(ZX, "Q[X] factorization", f)


def factor_iterated(f: Poly) -> DescentResult:
    """Factor over Z[X][Y] by descent from Frac(Z[X])[Y] through the
    constant primes of Z[X], the fraction-field route at R = Z[X]."""
    return _fraction_field_route(ZXY, "Frac(Z[X])[Y] factorization", f)


# ---------------------------------------------------------------------------
# route comparison

class RouteRun(NamedTuple):
    route: str
    factorization: PrimeFactorization
    certificates: Optional[tuple]
    elapsed: float


class CompareReport(NamedTuple):
    runs: tuple
    agreements: tuple


def compare_routes(f: Poly) -> CompareReport:
    """Run the direct engine, then each descent route of Z[X] in table order;
    insist on pairwise agreement up to associates.  The routes share
    ``kronecker_factor`` answers through one request memo, and nothing else.

    Agreement is an equivalence (same value, same sorted canonical
    associates), so each descent route is checked against the direct engine
    and the pairs between descent routes follow."""
    with request_memo():
        t0 = time.perf_counter()
        direct = direct_engine(ZX)(f)
        runs = [RouteRun("direct", direct, None, time.perf_counter() - t0)]
        for route in ROUTE_TABLE[ZX.name].descents:
            t0 = time.perf_counter()
            res = globals()[route.function](f)
            runs.append(RouteRun(route.printed, res.factorization, res.certificates, time.perf_counter() - t0))
        for run in runs[1:]:
            _require_agreement(ZX, direct, run.factorization, f"route disagreement between direct and {run.route}")
        agreements = tuple(itertools.combinations((run.route for run in runs), 2))
        return CompareReport(tuple(runs), agreements)
