"""Descent factorization: recover base-ring factorizations from a
localization factorization oracle plus a prime-generated submonoid.

The decision procedure ``certify_prime`` implements the case split at the
heart of the construction, by Nagata's argument alone: a non-unit is either
associate to a submonoid generator (and prime for that reason), or no
generator divides it, so it divides no element of the submonoid, and its
primality pulls back from the localization oracle.  Neither case asks a
base-ring engine.  Every emitted factor carries a replayable
``PrimalityCertificate`` for whichever case applied.

``descend_factor`` then assembles full factorizations: strip generator
primes, hand the stripped residue to the oracle, normalize the returned
fraction numerators back into the base ring, certify each residual, and
check that the factors multiply back to the input.

Both work for a submonoid with any number of prime generators.  As in the
paper, this prime-generated hypothesis is the only one: a single-generator
submonoid such as the powers of X takes the same descent, not a restricted
variant of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .basefactor import PrimeFactorization, memo_bypassed
from .errors import (
    DescentInconsistencyError,
    MathDomainError,
    OracleViolationError,
)
from .localization import (
    Fraction,
    GeneratedSubmonoid,
    SMember,
    embed,
    find_associate_generator,
    frac_eq,
    frac_is_unit,
    frac_mul,
)
from .rings import Element


class LocalizationOracle:
    """Interface a localization factorization oracle must provide.

    ``factor_fraction`` returns (unit fraction, prime fractions); the product
    of all returned fractions must equal the input under cross-multiplication
    and every prime fraction's numerator must live in the base ring.
    ``divides`` answers embedded divisibility with an (s, c) witness such that
    s.value * target == subject * c, or None; it reads the numerators only,
    since every caller passes ``embed(...)`` fractions.  ``is_prime_embedded``
    decides primality of an embedded base-ring element in the localization.
    """

    name = "localization oracle"

    def factor_fraction(self, x: Fraction) -> tuple[Fraction, tuple]:
        raise NotImplementedError

    def divides(self, x: Fraction, y: Fraction) -> Optional[tuple[SMember, Element]]:
        raise NotImplementedError

    def is_prime_embedded(self, r: Element) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class PrimalityCertificate:
    """Replayable evidence that ``subject`` is prime in the base ring.

    case "generator": subject == unit * generators[generator_index].
    case "localization": no generator divides the subject, a non-unit, and
    the oracle attests its image is prime.
    """

    subject: Element
    submonoid: GeneratedSubmonoid
    case: str
    generator_index: Optional[int] = None
    unit: Optional[Element] = None
    oracle: Optional[LocalizationOracle] = None

    def replay(self) -> bool:
        """Re-derive the certificate from scratch, bypassing any request memo."""
        with memo_bypassed():
            S = self.submonoid
            ring = S.ring
            if self.case == "generator":
                return ring.is_unit(self.unit) and ring.eq(
                    self.subject, ring.mul(self.unit, S.generators[self.generator_index])
                )
            if find_associate_generator(S, self.subject) is not None:
                return False
            return self.oracle.is_prime_embedded(self.subject)

    def detail(self) -> str:
        from . import expr

        S = self.submonoid
        if self.case == "generator":
            g = expr.render(S.ring, S.generators[self.generator_index])
            u = expr.render(S.ring, self.unit)
            return f"associate of generator {g} (unit {u})"
        return f"avoids {S.describe()}; prime in {self.oracle.name}"


def certify_prime(
    p: Element, S: GeneratedSubmonoid, oracle: LocalizationOracle
) -> PrimalityCertificate:
    """Decide primality of an irreducible p by the generator/avoidance case
    split: zero, a unit or a proper multiple of a generator is "not
    irreducible"; an associate of a generator is prime; otherwise ask the
    oracle.  Irreducibility is the caller's precondition, not tested (no
    base-ring engine): a denial means a broken oracle or a composite p."""
    hit = find_associate_generator(S, p)
    if hit is not None:
        i, u = hit
        return PrimalityCertificate(p, S, "generator", generator_index=i, unit=u)
    if not oracle.is_prime_embedded(p):
        raise OracleViolationError("localization not UFD on this input, or p is not irreducible")
    return PrimalityCertificate(p, S, "localization", oracle=oracle)


@dataclass(frozen=True)
class DescentResult:
    """Factorization plus one certificate per factor (aligned by index)."""

    factorization: PrimeFactorization
    certificates: tuple


def descend_factor(
    a: Element, S: GeneratedSubmonoid, oracle: LocalizationOracle
) -> DescentResult:
    """Factor a base-ring element from the localization oracle.

    Steps: strip generator primes; if the residue is a unit we are done;
    otherwise factor the embedded residue in the localization, normalize each
    prime fraction's numerator, certify every residual prime, and verify
    a0 == unit * prod(residuals); the generators being pairwise non-associate
    primes, no exponent bookkeeping is needed beyond that.
    """
    ring = S.ring
    if ring.is_zero(a):
        raise MathDomainError("cannot factor zero")
    exps, a0 = S.strip(a)
    pairs = []
    for g, e in zip(S.generators, exps):
        if e:
            cert = certify_prime(g, S, oracle)
            pairs.extend([(g, cert)] * e)
    if ring.is_unit(a0):
        unit = a0
    else:
        unit_frac, prime_fracs = oracle.factor_fraction(embed(a0, S))
        check = unit_frac
        for f in prime_fracs:
            check = frac_mul(check, f)
        if not frac_eq(check, embed(a0, S)):
            raise OracleViolationError("oracle factorization does not multiply back")
        if not frac_is_unit(unit_frac):
            raise DescentInconsistencyError(
                "descent inconsistency: unit fraction does not strip to a unit"
            )
        residuals = []
        for f in prime_fracs:
            if ring.is_zero(f.num):
                raise OracleViolationError("oracle returned a zero factor")
            _, r = S.strip(f.num)
            _, rc = ring.canonical_associate(r)
            if ring.is_unit(rc):
                raise OracleViolationError("oracle returned a unit factor")
            cert = certify_prime(rc, S, oracle)
            residuals.append(rc)
            pairs.append((rc, cert))
        w = ring.exact_div(a0, ring.prod(residuals))
        if w is None or not ring.is_unit(w):
            raise DescentInconsistencyError("descent inconsistency")
        unit = w
    pairs.sort(key=lambda fc: ring.sort_key(fc[0]))
    factorization = PrimeFactorization(unit, tuple(f for f, _ in pairs))
    if not ring.eq(factorization.value(ring), a):
        raise DescentInconsistencyError("descent inconsistency")
    return DescentResult(factorization, tuple(c for _, c in pairs))


class BaseEngineOracle(LocalizationOracle):
    """Localization oracle backed by a base-ring factorization engine.

    Factors the numerator in the base ring and reinterprets generator
    associates as localization units.  Useful as the trivially-correct oracle
    for integer submonoids and in cross-checking tests.
    """

    def __init__(self, S: GeneratedSubmonoid, engine):
        self.S = S
        self.engine = engine
        self.name = f"{S.ring.name} localized at {S.describe()}"

    def factor_fraction(self, x: Fraction) -> tuple[Fraction, tuple]:
        S = self.S
        ring = S.ring
        pf = self.engine(x.num)
        exps = [0] * len(S.generators)
        unit_num = pf.unit
        primes = []
        for q in pf.factors:
            hit = find_associate_generator(S, q)
            if hit is not None:
                exps[hit[0]] += 1
                unit_num = ring.mul(unit_num, hit[1])
            else:
                primes.append(Fraction(q, S.one_member()))
        unit_frac = Fraction(ring.mul(unit_num, S.member(exps).value), x.den)
        return (unit_frac, tuple(primes))

    def divides(self, x: Fraction, y: Fraction) -> Optional[tuple[SMember, Element]]:
        S = self.S
        ring = S.ring
        if ring.is_zero(x.num):
            return None
        px, xr = S.strip(x.num)
        py, yr = S.strip(y.num)
        q = ring.exact_div(yr, xr)
        if q is None:
            return None
        s_exps = tuple(max(a - b, 0) for a, b in zip(px, py))
        extra = tuple(b + s - a for a, b, s in zip(px, py, s_exps))
        c = ring.mul(q, S.member(extra).value)
        return (S.member(s_exps), c)

    def is_prime_embedded(self, r: Element) -> bool:
        S = self.S
        if S.ring.is_zero(r):
            return False
        _, rr = S.strip(r)
        if S.ring.is_unit(rr):
            return False
        return len(self.engine(rr).factors) == 1
