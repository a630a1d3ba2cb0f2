"""Prime-generated submonoids and the localization transfer algorithms.

A ``GeneratedSubmonoid`` is presented by a finite list of prime generators;
membership is witness-carried: an ``SMember`` stores the exponent vector that
exhibits its value as a product of generators, so producing the prime multiset
of a denominator is total and trivially correct.  Fractions over a submonoid
are unreduced; equality is cross-multiplication, which is exactly the fraction
relation of a domain localization.  ``LocalizationRing`` makes them a ring,
S^-1 R, and ``LT`` is the Laurent ring Z[T,T^-1]: Z[X] localized at the
powers of X.

The transfer algorithms peel prime multisets: ``clear_denominator`` /
``lift_dvd`` / ``split_prime_factors`` / ``transfer_prime_divides``.  They
need only that the submonoid is prime-generated, so one chain serves every
submonoid, with one generator or many.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import basefactor
from .errors import MathDomainError, OracleViolationError, PreconditionError
from .rings import ZX, Element, Ring


def _require_irreducible(ring: Ring, p: Element) -> None:
    if not basefactor.is_irreducible(ring, p):
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
        self._one = self.member((0,) * len(canon))

    def member(self, exponents) -> "SMember":
        """The member with these generator exponents, which must be one
        nonnegative integer per generator."""
        exponents = tuple(exponents)
        if len(exponents) != len(self.generators):
            raise PreconditionError("exponent vector length does not match the generators")
        if any(e < 0 for e in exponents):
            raise PreconditionError("exponents must be nonnegative")
        return SMember(self, exponents)

    def one_member(self) -> "SMember":
        return self._one

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


class SMember(NamedTuple):
    """A submonoid element together with its exponent-vector witness; built
    by ``GeneratedSubmonoid.member``, which checks the witness.  Its value,
    the product of the generator powers, is computed each time it is read."""

    submonoid: GeneratedSubmonoid
    exponents: tuple

    @property
    def value(self) -> Element:
        ring = self.submonoid.ring
        return ring.prod(ring.pow(g, e) for g, e in zip(self.submonoid.generators, self.exponents) if e)

    def mul(self, other: "SMember") -> "SMember":
        if other.submonoid is not self.submonoid:
            raise PreconditionError("members of different submonoids")
        if not any(other.exponents):
            return self
        if not any(self.exponents):
            return other
        return self.submonoid.member(a + b for a, b in zip(self.exponents, other.exponents))


def witness_multiset(s: SMember) -> tuple:
    """Prime multiset with product s.value: each generator repeated by its exponent."""
    out = []
    for g, e in zip(s.submonoid.generators, s.exponents):
        out.extend([g] * e)
    return tuple(out)


class Fraction(NamedTuple):
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
    if x.den == y.den:
        return ring.eq(x.num, y.num)
    return ring.eq(ring.mul(x.num, y.den.value), ring.mul(y.num, x.den.value))


def frac_mul(x: Fraction, y: Fraction) -> Fraction:
    S = _same_submonoid(x, y)
    return Fraction(S.ring.mul(x.num, y.num), x.den.mul(y.den))


def frac_add(x: Fraction, y: Fraction) -> Fraction:
    """Sum over the least common denominator, whose exponents are the
    componentwise larger ones: over the product of the denominators, a sum
    of n copies of T^-k would build the denominator T^(n*k)."""
    S = _same_submonoid(x, y)
    ring = S.ring
    if x.den == y.den:
        return Fraction(ring.add(x.num, y.num), x.den)
    lcd = tuple(max(a, b) for a, b in zip(x.den.exponents, y.den.exponents))

    def lifted(z: Fraction) -> Element:
        return ring.mul(z.num, S.member(tuple(m - e for m, e in zip(lcd, z.den.exponents))).value)

    return Fraction(ring.add(lifted(x), lifted(y)), S.member(lcd))


def frac_is_unit(x: Fraction) -> bool:
    """A fraction is a localization unit iff its numerator strips to a ring unit."""
    S = x.den.submonoid
    if S.ring.is_zero(x.num):
        return False
    _, residual = S.strip(x.num)
    return S.ring.is_unit(residual)


class LocalizationRing(Ring):
    """S^-1 R for a prime-generated submonoid S of R, on the ``Fraction``
    values over S, with the fraction arithmetic above as its ring operations.

    ``normal_form`` writes an element as prod(g_i^e_i) * r with every e_i in
    Z and no generator dividing r.  The generators are primes of a domain, so
    two fractions are equal exactly when their normal forms are; the rest of
    the ring contract is read off that form.  ``var`` is the name the
    element prints its generator under.
    """

    eq = staticmethod(frac_eq)
    add = staticmethod(frac_add)
    mul = staticmethod(frac_mul)
    is_unit = staticmethod(frac_is_unit)

    def __init__(self, S: GeneratedSubmonoid, name: str, var: str):
        self.S = S
        self.name = name
        self.var = var
        self.zero = embed(S.ring.zero, S)
        self.one = embed(S.ring.one, S)

    def normal_form(self, a: Fraction) -> tuple[tuple, Element]:
        """(e, r) with a == prod(g_i^e_i) * r, e_i in Z, no generator dividing
        r; zero has every e_i == 0."""
        exps, r = self.S.strip(a.num)
        if self.S.ring.is_zero(r):
            return exps, r
        return tuple(e - d for e, d in zip(exps, a.den.exponents)), r

    def fraction(self, exps, r: Element) -> Fraction:
        """The element prod(g_i^e_i) * r: the inverse of ``normal_form``."""
        S = self.S
        if any(e > 0 for e in exps):
            r = S.ring.mul(S.member(tuple(max(e, 0) for e in exps)).value, r)
        return Fraction(r, S.member(tuple(max(-e, 0) for e in exps)))

    def is_zero(self, a):
        return self.S.ring.is_zero(a.num)

    def neg(self, a):
        return Fraction(self.S.ring.neg(a.num), a.den)

    def pow(self, a, n):
        if n < 0:
            raise MathDomainError("negative exponent")
        return Fraction(self.S.ring.pow(a.num, n), self.S.member(tuple(e * n for e in a.den.exponents)))

    def exact_div(self, a, b):
        """The generators are units, so a divides b exactly when the
        residues of their normal forms do in R."""
        (ea, ra), (eb, rb) = self.normal_form(a), self.normal_form(b)
        q = self.S.ring.exact_div(ra, rb)
        return None if q is None else self.fraction(tuple(x - y for x, y in zip(ea, eb)), q)

    def canonical_associate(self, a):
        exps, r = self.normal_form(a)
        u, n = self.S.ring.canonical_associate(r)
        return self.fraction(exps, u), embed(n, self.S)

    def from_int(self, n):
        return embed(self.S.ring.from_int(n), self.S)

    def sort_key(self, a):
        exps, r = self.normal_form(a)
        return (exps, self.S.ring.sort_key(r))

    def signature(self):
        return ("localization", self.S.ring.signature(), self.S.generators)


# the Laurent ring: Z[X] localized at the powers of X, printed in T
LT = LocalizationRing(GeneratedSubmonoid(ZX, [ZX.gen]), "Z[T,T^-1]", "T")


def find_associate_generator(
    S: GeneratedSubmonoid, p: Element
) -> Optional[tuple[int, Element]]:
    """Index and unit with p == unit * generator, or None when no generator
    divides p; zero, units and proper multiples of a generator are refused."""
    ring = S.ring
    if ring.is_zero(p) or ring.is_unit(p):
        raise PreconditionError("not irreducible")
    exps, residual = S.strip(p)
    if not any(exps):
        return None
    if sum(exps) != 1 or not ring.is_unit(residual):
        raise PreconditionError("not irreducible")
    return (exps.index(1), residual)


def avoids(S: GeneratedSubmonoid, p: Element) -> bool:
    """True iff p divides no element of S.

    If no generator divides a non-unit p, p divides no element of S: peel the
    generators off, as ``clear_denominator`` does.  The converse holds only
    for irreducible p (6 divides no power of 2), so proper multiples of a
    generator are refused.  The randomized suites check this against
    brute-force enumeration of submonoid members.
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


def lift_dvd(p: Element, a: Element, s: SMember, c: Element) -> Element:
    """Lift s*a == p*c (divisibility of images in the localization) to a == p*d,
    where p avoids the submonoid of the witness s."""
    ring = s.submonoid.ring
    _require_irreducible(ring, p)
    if not avoids(s.submonoid, p):
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


class IrreducibilityCertificate(NamedTuple):
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
    return IrreducibilityCertificate(S, p, non_unit=True)


def transfer_prime_divides(p: Element, a: Element, b: Element, oracle) -> tuple[str, Element]:
    """Decide p | a or p | b from localization-side primality of the image,
    in the localization at the oracle's submonoid ``oracle.S``.

    ``oracle.divides``, which every ``LocalizationOracle`` derives from exact
    division in S^-1 R, answers embedded divisibility with an (s, c)
    witness satisfying s.value * target == p * c; the witness is then lifted
    back with ``lift_dvd`` to produce the exact base-ring quotient.
    """
    S = oracle.S
    ring = S.ring
    _require_irreducible(ring, p)
    if not avoids(S, p):
        raise PreconditionError("avoidance violated")
    if ring.exact_div(ring.mul(a, b), p) is None:
        raise PreconditionError("p does not divide a*b")
    w = oracle.divides(embed(p, S), embed(a, S))
    if w is not None:
        s, c = w
        return ("left", lift_dvd(p, a, s, c))
    w = oracle.divides(embed(p, S), embed(b, S))
    if w is not None:
        s, c = w
        return ("right", lift_dvd(p, b, s, c))
    raise OracleViolationError("localization primality violated")

