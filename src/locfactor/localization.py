"""Prime-generated submonoids and the localization transfer algorithms.

A ``GeneratedSubmonoid`` is presented by a finite list of prime generators;
membership is witness-carried: an ``SMember`` stores the exponent vector that
exhibits its value as a product of generators, so producing the prime multiset
of a denominator is total and trivially correct.  Fractions over a submonoid
are unreduced; equality is cross-multiplication, which is exactly the fraction
relation of a domain localization.

The transfer algorithms peel prime multisets: ``clear_denominator`` /
``lift_dvd`` / ``split_prime_factors`` / ``transfer_prime_divides``.  They
need only that the submonoid is prime-generated, so one chain serves every
submonoid, with one generator or many.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import basefactor
from .errors import MathDomainError, OracleViolationError, PreconditionError
from .rings import Element, Ring


def _require_irreducible(ring: Ring, p: Element) -> None:
    if ring.is_zero(p) or ring.is_unit(p):
        raise PreconditionError("not irreducible")
    try:
        ok = basefactor.is_irreducible(ring, p)
    except MathDomainError:
        return  # no base oracle for this ring; irreducibility is caller-asserted
    if not ok:
        raise PreconditionError("not irreducible")


class GeneratedSubmonoid:
    """Submonoid generated by prime elements, deduplicated up to associates.

    Generators are stored in canonical associate form, in first-occurrence
    order, so ``find_associate_generator`` indices are deterministic.
    """

    def __init__(self, ring: Ring, generators):
        self.ring = ring
        canon = []
        for g in generators:
            if ring.is_zero(g) or ring.is_unit(g):
                raise PreconditionError("submonoid generators must be nonzero non-units")
            _, gn = ring.canonical_associate(g)
            if any(ring.eq(gn, h) for h in canon):
                continue
            # the base rings are UFDs, where prime and irreducible coincide
            if not basefactor.is_irreducible(ring, gn):
                raise PreconditionError(f"submonoid generator {gn!r} is not prime")
            canon.append(gn)
        self.generators = tuple(canon)

    def member(self, exponents) -> "SMember":
        return SMember(self, tuple(exponents))

    def one_member(self) -> "SMember":
        return SMember(self, (0,) * len(self.generators))

    def strip(self, a: Element) -> tuple[tuple, Element]:
        """Divide out every generator as often as possible.

        Returns the exponent vector and the residual, so that
        a == prod(g_i^e_i) * residual exactly.
        """
        ring = self.ring
        if ring.is_zero(a):
            return ((0,) * len(self.generators), a)
        exps = []
        for g in self.generators:
            e = 0
            while True:
                q = ring.exact_div(a, g)
                if q is None:
                    break
                a = q
                e += 1
            exps.append(e)
        return (tuple(exps), a)

    def describe(self) -> str:
        from . import expr

        gens = ", ".join(expr.render(self.ring, g) for g in self.generators)
        return f"<{gens}>" if gens else "<1>"

    def __repr__(self):
        return f"GeneratedSubmonoid({self.ring.name}, {list(self.generators)!r})"


class SMember:
    """A submonoid element together with its exponent-vector witness."""

    __slots__ = ("submonoid", "exponents", "value")

    def __init__(self, submonoid: GeneratedSubmonoid, exponents: tuple):
        if len(exponents) != len(submonoid.generators):
            raise PreconditionError("exponent vector length does not match the generators")
        if any(e < 0 for e in exponents):
            raise PreconditionError("exponents must be nonnegative")
        ring = submonoid.ring
        value = ring.one
        for g, e in zip(submonoid.generators, exponents):
            value = ring.mul(value, ring.pow(g, e))
        object.__setattr__(self, "submonoid", submonoid)
        object.__setattr__(self, "exponents", tuple(exponents))
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, v):
        raise AttributeError("SMember is immutable")

    def mul(self, other: "SMember") -> "SMember":
        if other.submonoid is not self.submonoid:
            raise PreconditionError("members of different submonoids")
        return SMember(
            self.submonoid,
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
        )

    def __repr__(self):
        return f"SMember({self.exponents!r} -> {self.value!r})"


def witness_multiset(s: SMember) -> tuple:
    """Prime multiset with product s.value: each generator repeated by its exponent."""
    out = []
    for g, e in zip(s.submonoid.generators, s.exponents):
        out.extend([g] * e)
    return tuple(out)


@dataclass(frozen=True)
class Fraction:
    """num / den over a submonoid; never reduced, compared by cross-multiplication."""

    num: Element
    den: SMember


def embed(a: Element, S: GeneratedSubmonoid) -> Fraction:
    return Fraction(a, S.one_member())


def _same_submonoid(x: Fraction, y: Fraction) -> GeneratedSubmonoid:
    if x.den.submonoid is not y.den.submonoid:
        raise PreconditionError("fractions over different submonoids")
    return x.den.submonoid


def frac_eq(x: Fraction, y: Fraction) -> bool:
    S = _same_submonoid(x, y)
    ring = S.ring
    return ring.eq(ring.mul(x.num, y.den.value), ring.mul(y.num, x.den.value))


def frac_mul(x: Fraction, y: Fraction) -> Fraction:
    S = _same_submonoid(x, y)
    return Fraction(S.ring.mul(x.num, y.num), x.den.mul(y.den))


def frac_add(x: Fraction, y: Fraction) -> Fraction:
    S = _same_submonoid(x, y)
    ring = S.ring
    num = ring.add(ring.mul(x.num, y.den.value), ring.mul(y.num, x.den.value))
    return Fraction(num, x.den.mul(y.den))


def frac_is_unit(x: Fraction) -> bool:
    """A fraction is a localization unit iff its numerator strips to a ring unit."""
    S = x.den.submonoid
    if S.ring.is_zero(x.num):
        return False
    _, residual = S.strip(x.num)
    return S.ring.is_unit(residual)


def find_associate_generator(
    S: GeneratedSubmonoid, p: Element
) -> Optional[tuple[int, Element]]:
    """Index and unit with p == unit * generator, or None."""
    ring = S.ring
    _require_irreducible(ring, p)
    _, pn = ring.canonical_associate(p)
    for i, g in enumerate(S.generators):
        if ring.eq(pn, g):
            u = ring.exact_div(p, g)
            return (i, u)
    return None


def avoids(S: GeneratedSubmonoid, p: Element) -> bool:
    """True iff p divides no element of S.

    For irreducible p this reduces to an associate scan over the generators:
    an irreducible dividing a product of primes must be associate to one of
    them.  The randomized suites check this reduction against brute-force
    enumeration of submonoid members.
    """
    return find_associate_generator(S, p) is None


# ---------------------------------------------------------------------------
# transfer algorithms

def clear_denominator(ring: Ring, f, p: Element, a: Element, c: Element) -> Element:
    """Given (prod f) * a == p * c with every q in f prime and not dividing p,
    peel the factors of f off c and return d with a == p * d."""
    f = tuple(f)
    if not ring.eq(ring.mul(ring.prod(f), a), ring.mul(p, c)):
        raise PreconditionError("not a valid instance")
    for q in f:
        if ring.exact_div(p, q) is not None:
            raise PreconditionError("avoidance violated")
        cq = ring.exact_div(c, q)
        if cq is None:
            raise OracleViolationError("primality oracle violated")
        c = cq
    if not ring.eq(a, ring.mul(p, c)):
        raise OracleViolationError("primality oracle violated")
    return c


def lift_dvd(
    S: GeneratedSubmonoid, p: Element, a: Element, s: SMember, c: Element
) -> Element:
    """Lift s*a == p*c (divisibility of images in the localization) to a == p*d."""
    ring = S.ring
    _require_irreducible(ring, p)
    if not avoids(S, p):
        raise PreconditionError("avoidance violated")
    return clear_denominator(ring, witness_multiset(s), p, a, c)


def split_prime_factors(
    ring: Ring, p: Element, f, a: Element, b: Element
) -> tuple[Element, Element, tuple, tuple]:
    """Partition the prime multiset f across the two sides of p * prod(f) == a * b.

    Returns (a', b', fa, fb) with a == a' * prod(fa), b == b' * prod(fb) and
    p == a' * b'.
    """
    f = tuple(f)
    if not ring.eq(ring.mul(p, ring.prod(f)), ring.mul(a, b)):
        raise PreconditionError("not a valid instance")
    fa, fb = [], []
    for q in f:
        qa = ring.exact_div(a, q)
        if qa is not None:
            a = qa
            fa.append(q)
            continue
        qb = ring.exact_div(b, q)
        if qb is None:
            raise OracleViolationError("primality oracle violated")
        b = qb
        fb.append(q)
    if not ring.eq(ring.mul(a, b), p):
        raise OracleViolationError("primality oracle violated")
    return (a, b, tuple(fa), tuple(fb))


@dataclass(frozen=True)
class IrreducibilityCertificate:
    """Certifies that the subject's image in the localization is irreducible.

    ``non_unit`` records the first half (the embedded subject is not a unit);
    ``refute`` is the second half made executable: handed any concrete
    fraction pair multiplying to the embedded subject, it names the side that
    reduces to a localization unit.
    """

    submonoid: GeneratedSubmonoid
    subject: Element
    non_unit: bool

    def refute(self, x: Fraction, y: Fraction) -> str:
        S = self.submonoid
        ring = S.ring
        if not frac_eq(embed(self.subject, S), frac_mul(x, y)):
            raise PreconditionError("refuter needs a factorization of the subject")
        st = x.den.mul(y.den)
        a2, b2, _, _ = split_prime_factors(
            ring, self.subject, witness_multiset(st), x.num, y.num
        )
        if ring.is_unit(a2):
            return "left"
        if ring.is_unit(b2):
            return "right"
        raise OracleViolationError("irreducibility refuted in the base ring")


def transfer_irreducible(S: GeneratedSubmonoid, p: Element) -> IrreducibilityCertificate:
    """Certificate that the image of an S-avoiding irreducible stays irreducible."""
    ring = S.ring
    _require_irreducible(ring, p)
    if not avoids(S, p):
        raise PreconditionError("avoidance violated")
    if frac_is_unit(embed(p, S)):
        raise OracleViolationError("avoiding irreducible embedded to a unit")
    return IrreducibilityCertificate(S, p, non_unit=True)


def transfer_prime_divides(
    S: GeneratedSubmonoid, p: Element, a: Element, b: Element, oracle
) -> tuple[str, Element]:
    """Decide p | a or p | b from localization-side primality of the image.

    ``oracle.divides`` must answer embedded divisibility with an (s, c)
    witness satisfying s.value * target == p * c; the witness is then lifted
    back with ``lift_dvd`` to produce the exact base-ring quotient.
    """
    ring = S.ring
    _require_irreducible(ring, p)
    if not avoids(S, p):
        raise PreconditionError("avoidance violated")
    if ring.exact_div(ring.mul(a, b), p) is None:
        raise PreconditionError("p does not divide a*b")
    w = oracle.divides(embed(p, S), embed(a, S))
    if w is not None:
        s, c = w
        return ("left", lift_dvd(S, p, a, s, c))
    w = oracle.divides(embed(p, S), embed(b, S))
    if w is not None:
        s, c = w
        return ("right", lift_dvd(S, p, b, s, c))
    raise OracleViolationError("localization primality violated")

