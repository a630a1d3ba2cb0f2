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

from typing import NamedTuple, Optional

from .basefactor import PrimeFactorization, memo_bypassed
from .errors import (
    DescentInconsistencyError,
    MathDomainError,
    OracleViolationError,
    PreconditionError,
)
from .localization import (
    Fraction,
    GeneratedSubmonoid,
    LocalizationRing,
    SMember,
    embed,
    find_associate_generator,
    frac_eq,
    frac_is_unit,
    frac_mul,
)
from .rings import Element


class LocalizationOracle:
    """A localization factorization oracle: the paper's hypothesis that
    S^-1 R is a UFD, for a prime-generated submonoid ``self.S`` of a UFD R.

    A subclass sets ``S`` and ``name`` and implements ``factor_fraction``
    alone: it returns (unit fraction, prime fractions), whose product equals
    the input under cross-multiplication, and every prime fraction's
    numerator lives in the base ring.  Primality in S^-1 R is derived here
    from that factorization, and divisibility from exact division in S^-1 R.
    The descent and the transfer lemmas read the submonoid from ``S``.
    """

    name = "localization oracle"

    def factor_fraction(self, x: Fraction) -> tuple[Fraction, tuple]:
        raise NotImplementedError

    def is_prime_embedded(self, r: Element) -> bool:
        """Primality of the image of r in S^-1 R: in a UFD a nonzero element
        is prime exactly when its factorization has one prime fraction and
        a unit fraction that strips to a unit of R."""
        if self.S.ring.is_zero(r):
            return False
        unit, primes = self.factor_fraction(embed(r, self.S))
        return len(primes) == 1 and frac_is_unit(unit)

    def divides(self, x: Fraction, y: Fraction) -> Optional[tuple[SMember, Element]]:
        """Divisibility of embedded elements with an (s, c) witness such that
        s.value * y.num == x.num * c, or None.

        The witness is the quotient y / x in S^-1 R, written as the fraction
        c / s by ``LocalizationRing.exact_div``: the generators are units
        there, so x divides y exactly when the residues of their normal forms
        divide in R, and the denominator s it builds is the least member of S
        with x | s * y in R.
        """
        if self.S.ring.is_zero(x.num):
            return None
        q = LocalizationRing(self.S, "S^-1 R", "").exact_div(y, x)
        return None if q is None else (q.den, q.num)


class PrimalityCertificate(NamedTuple):
    """Replayable evidence that ``subject`` is prime in the base ring.

    case "generator": subject == unit * generators[generator_index].
    case "localization": no generator divides the subject, a non-unit, and
    the oracle attests its image is prime.
    """

    subject: Element
    oracle: LocalizationOracle  # and through it the submonoid ``oracle.S``
    case: str
    generator_index: Optional[int] = None
    unit: Optional[Element] = None

    def replay(self) -> bool:
        """Re-run the decision ``certify_prime`` on the subject, bypassing
        any request memo: the certificate replays when the decision gives it
        back unchanged, and not when the decision refuses the subject."""
        with memo_bypassed():
            try:
                return certify_prime(self.subject, self.oracle) == self
            except (PreconditionError, OracleViolationError):
                return False

    def detail(self) -> str:
        from . import expr

        S = self.oracle.S
        if self.case == "generator":
            g = expr.render(S.ring, S.generators[self.generator_index])
            u = expr.render(S.ring, self.unit)
            return f"associate of generator {g} (unit {u})"
        return f"avoids {S.describe()}; prime in {self.oracle.name}"


def certify_prime(p: Element, oracle: LocalizationOracle) -> PrimalityCertificate:
    """Decide primality of an irreducible p by the generator/avoidance case
    split over the oracle's submonoid: zero, a unit or a proper multiple of
    a generator is "not irreducible"; an associate of a generator is prime;
    otherwise ask the oracle.  Irreducibility is the caller's precondition,
    not tested (no base-ring engine): a denial means a broken oracle or a
    composite p."""
    hit = find_associate_generator(oracle.S, p)
    if hit is not None:
        i, u = hit
        return PrimalityCertificate(p, oracle, "generator", generator_index=i, unit=u)
    if not oracle.is_prime_embedded(p):
        raise OracleViolationError("localization not UFD on this input, or p is not irreducible")
    return PrimalityCertificate(p, oracle, "localization")


class DescentResult(NamedTuple):
    """Factorization plus one certificate per factor (aligned by index)."""

    factorization: PrimeFactorization
    certificates: tuple


def descend_factor(a: Element, oracle: LocalizationOracle) -> DescentResult:
    """Factor a base-ring element from the localization oracle.

    Steps: strip the generators of the oracle's submonoid ``oracle.S``; if
    the residue is a unit we are done; otherwise factor the embedded residue
    in the localization, normalize each prime fraction's numerator, certify
    every residual prime, and verify a0 == unit * prod(residuals); the
    generators being pairwise non-associate primes, no exponent bookkeeping
    is needed beyond that.
    """
    S = oracle.S
    ring = S.ring
    if ring.is_zero(a):
        raise MathDomainError("cannot factor zero")
    exps, a0 = S.strip(a)
    pairs = []
    for g, e in zip(S.generators, exps):
        if e:
            cert = certify_prime(g, oracle)
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
            cert = certify_prime(rc, oracle)
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
