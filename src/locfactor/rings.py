"""Exact arithmetic kernel.

Every value is immutable and exact: Python integers, ``fractions.Fraction``,
dense polynomials (lowest degree first, no trailing zeros), Laurent
polynomials over the integers, and reduced rational functions.  A ring is an
object implementing the uniform contract below; all higher layers program
against that contract instead of concrete value types, which is what lets the
same transfer and descent algorithms run over Z, Z[X], Q[X], Z[X][Y] and the
Laurent ring unchanged.

Canonical associate conventions (one normal form per associate class):

* Z       -- nonnegative
* Q       -- 1 for nonzero elements (field)
* C[X]    -- leading coefficient in canonical form of C (so Z[X] gets a
             positive leading coefficient and Q[X] gets monic)
* Laurent -- unit is +-T^k, normal has exponent offset 0 and positive
             leading coefficient
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Optional

from .errors import MathDomainError

Element = Any


class Ring:
    """Commutative-domain contract all concrete rings satisfy."""

    name: str = "?"
    zero: Element
    one: Element

    def eq(self, a: Element, b: Element) -> bool:
        return a == b

    def is_zero(self, a: Element) -> bool:
        return self.eq(a, self.zero)

    def add(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def neg(self, a: Element) -> Element:
        raise NotImplementedError

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def exact_div(self, a: Element, b: Element) -> Optional[Element]:
        """Quotient q with b*q == a, or None when b does not divide a exactly."""
        raise NotImplementedError

    def is_unit(self, a: Element) -> bool:
        raise NotImplementedError

    def canonical_associate(self, a: Element) -> tuple[Element, Element]:
        """Split a as (unit, normal) with unit*normal == a and normal canonical."""
        raise NotImplementedError

    def unit_inverse(self, u: Element) -> Element:
        inv = self.exact_div(self.one, u)
        if inv is None:
            raise MathDomainError(f"{u!r} is not a unit of {self.name}")
        return inv

    def from_int(self, n: int) -> Element:
        raise NotImplementedError

    def prod(self, elems) -> Element:
        acc = self.one
        for e in elems:
            acc = self.mul(acc, e)
        return acc

    def pow(self, a: Element, n: int) -> Element:
        if n < 0:
            raise MathDomainError("negative exponent")
        acc = self.one
        while n:  # square and multiply
            if n & 1:
                acc = self.mul(acc, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return acc

    def sort_key(self, a: Element):
        """Total order used for deterministic factor ordering."""
        raise NotImplementedError

    def signature(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    """Z with Python's arbitrary-precision integers."""

    name = "Z"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def exact_div(self, a, b):
        if b == 0:
            raise MathDomainError("division by zero")
        q, r = divmod(a, b)
        return q if r == 0 else None

    def is_unit(self, a):
        return a == 1 or a == -1

    def canonical_associate(self, a):
        if a < 0:
            return (-1, -a)
        return (1, a)

    def from_int(self, n):
        return n

    def sort_key(self, a):
        return a

    def signature(self):
        return ("Z",)


class RationalField(Ring):
    """Q via fractions.Fraction (always reduced, positive denominator)."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def exact_div(self, a, b):
        if b == 0:
            raise MathDomainError("division by zero")
        return a / b

    def is_unit(self, a):
        return a != 0

    def canonical_associate(self, a):
        if a == 0:
            return (Fraction(1), Fraction(0))
        return (a, Fraction(1))

    def from_int(self, n):
        return Fraction(n)

    def sort_key(self, a):
        return a

    def signature(self):
        return ("Q",)


class Poly:
    """Dense polynomial value: coefficient tuple, lowest degree first.

    The zero polynomial is the empty tuple; the last coefficient of a nonzero
    polynomial is nonzero in its coefficient ring.  Normalization is the
    owning PolynomialRing's job (see ``PolynomialRing.make``).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is undefined; -1 is a sentinel only
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self):
        return f"Poly{self.coeffs!r}"


class PolynomialRing(Ring):
    """C[var] for a coefficient ring C, dense representation."""

    def __init__(self, coeff: Ring, var: str):
        self.coeff = coeff
        self.var = var
        self.name = f"{coeff.name}[{var}]"
        self.zero = Poly(())
        self.one = Poly((coeff.one,))
        self.gen = Poly((coeff.zero, coeff.one))

    def make(self, coeffs) -> Poly:
        cs = list(coeffs)
        while cs and self.coeff.is_zero(cs[-1]):
            cs.pop()
        return Poly(cs)

    def constant(self, c: Element) -> Poly:
        return self.make((c,))

    def monomial(self, k: int, c: Element | None = None) -> Poly:
        if c is None:
            c = self.coeff.one
        return self.make([self.coeff.zero] * k + [c])

    def degree(self, a: Poly) -> int:
        if not a.coeffs:
            raise MathDomainError("degree of zero polynomial is undefined")
        return len(a.coeffs) - 1

    def add(self, a, b):
        C = self.coeff
        n = max(len(a.coeffs), len(b.coeffs))
        out = []
        for i in range(n):
            x = a.coeffs[i] if i < len(a.coeffs) else C.zero
            y = b.coeffs[i] if i < len(b.coeffs) else C.zero
            out.append(C.add(x, y))
        return self.make(out)

    def neg(self, a):
        return Poly(tuple(self.coeff.neg(c) for c in a.coeffs))

    def mul(self, a, b):
        if not a.coeffs or not b.coeffs:
            return self.zero
        C = self.coeff
        out = [C.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if C.is_zero(x):
                continue
            for j, y in enumerate(b.coeffs):
                out[i + j] = C.add(out[i + j], C.mul(x, y))
        return self.make(out)

    def exact_div(self, a, b):
        if not b.coeffs:
            raise MathDomainError("division by zero")
        if not a.coeffs:
            return self.zero
        C = self.coeff
        db = len(b.coeffs) - 1
        if len(a.coeffs) - 1 < db:
            return None
        rem = list(a.coeffs)
        lead = b.coeffs[-1]
        q = [C.zero] * (len(rem) - db)
        for k in range(len(q) - 1, -1, -1):
            top = rem[k + db]
            if C.is_zero(top):
                continue
            t = C.exact_div(top, lead)
            if t is None:
                return None
            q[k] = t
            for i, c in enumerate(b.coeffs):
                rem[k + i] = C.sub(rem[k + i], C.mul(t, c))
        if any(not C.is_zero(c) for c in rem[:db]):
            return None
        return self.make(q)

    def divmod(self, a, b):
        """Quotient and remainder; requires the coefficient ring to be a field."""
        if not b.coeffs:
            raise MathDomainError("division by zero")
        C = self.coeff
        db = len(b.coeffs) - 1
        rem = list(a.coeffs)
        if len(rem) - 1 < db:
            return (self.zero, a)
        inv_lead = C.unit_inverse(b.coeffs[-1])
        q = [C.zero] * (len(rem) - db)
        for k in range(len(q) - 1, -1, -1):
            t = C.mul(rem[k + db], inv_lead)
            if C.is_zero(t):
                continue
            q[k] = t
            for i, c in enumerate(b.coeffs):
                rem[k + i] = C.sub(rem[k + i], C.mul(t, c))
        return (self.make(q), self.make(rem[:db]))

    def is_unit(self, a):
        return len(a.coeffs) == 1 and self.coeff.is_unit(a.coeffs[0])

    def canonical_associate(self, a):
        if not a.coeffs:
            return (self.one, a)
        C = self.coeff
        cu, _ = C.canonical_associate(a.coeffs[-1])
        if C.eq(cu, C.one):
            return (self.one, a)
        inv = C.unit_inverse(cu)
        normal = Poly(tuple(C.mul(inv, c) for c in a.coeffs))
        return (self.constant(cu), normal)

    def evaluate(self, a: Poly, x: Element) -> Element:
        C = self.coeff
        acc = C.zero
        for c in reversed(a.coeffs):
            acc = C.add(C.mul(acc, x), c)
        return acc

    def from_int(self, n):
        return self.constant(self.coeff.from_int(n))

    def sort_key(self, a):
        return (len(a.coeffs) - 1, tuple(self.coeff.sort_key(c) for c in a.coeffs))

    def signature(self):
        return ("poly", self.coeff.signature(), self.var)


class Laurent:
    """Laurent polynomial value: body * T^low.

    Nonzero values keep a body with nonzero constant coefficient; zero is
    (low=0, empty body).
    """

    __slots__ = ("low", "body")

    def __init__(self, low: int, body: Poly):
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "body", body)

    def __setattr__(self, name, value):
        raise AttributeError("Laurent is immutable")

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.low == other.low and self.body == other.body

    def __hash__(self):
        return hash(("Laurent", self.low, self.body))

    def __repr__(self):
        return f"Laurent(low={self.low}, body={self.body!r})"


class LaurentRing(Ring):
    """Z[T, T^-1]; units are +-T^k."""

    name = "Z[T,T^-1]"

    def __init__(self, var: str = "T"):
        self.var = var
        self.poly = PolynomialRing(IntegerRing(), var)
        self.zero = Laurent(0, Poly(()))
        self.one = Laurent(0, Poly((1,)))

    def make(self, low: int, coeffs) -> Laurent:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            return self.zero
        while cs[0] == 0:
            cs.pop(0)
            low += 1
        return Laurent(low, Poly(cs))

    def from_poly(self, p: Poly) -> Laurent:
        return self.make(0, p.coeffs)

    def t_power(self, k: int, sign: int = 1) -> Laurent:
        return Laurent(k, Poly((sign,)))

    def add(self, a, b):
        if not a.body.coeffs:
            return b
        if not b.body.coeffs:
            return a
        low = min(a.low, b.low)
        n = max(a.low + len(a.body.coeffs), b.low + len(b.body.coeffs)) - low
        out = [0] * n
        for i, c in enumerate(a.body.coeffs):
            out[a.low - low + i] += c
        for i, c in enumerate(b.body.coeffs):
            out[b.low - low + i] += c
        return self.make(low, out)

    def neg(self, a):
        return Laurent(a.low, self.poly.neg(a.body))

    def mul(self, a, b):
        if not a.body.coeffs or not b.body.coeffs:
            return self.zero
        return Laurent(a.low + b.low, self.poly.mul(a.body, b.body))

    def exact_div(self, a, b):
        if not b.body.coeffs:
            raise MathDomainError("division by zero")
        if not a.body.coeffs:
            return self.zero
        q = self.poly.exact_div(a.body, b.body)
        if q is None:
            return None
        return self.make(a.low - b.low, q.coeffs)

    def is_unit(self, a):
        return a.body.coeffs == (1,) or a.body.coeffs == (-1,)

    def canonical_associate(self, a):
        if not a.body.coeffs:
            return (self.one, a)
        sign = 1 if a.body.coeffs[-1] > 0 else -1
        unit = Laurent(a.low, Poly((sign,)))
        normal = Laurent(0, self.poly.mul(Poly((sign,)), a.body))
        return (unit, normal)

    def from_int(self, n):
        return self.make(0, (n,))

    def sort_key(self, a):
        return (a.low, len(a.body.coeffs) - 1, a.body.coeffs)

    def signature(self):
        return ("laurent", self.var)


class RatFunc:
    """Reduced fraction of integer polynomials; den is canonical and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


class RationalFunctionField(Ring):
    """Frac(Z[X]): rational functions stored reduced, denominator canonical."""

    name = "Frac(Z[X])"

    def __init__(self, poly_ring: PolynomialRing):
        self.poly = poly_ring
        self.zero = RatFunc(poly_ring.zero, poly_ring.one)
        self.one = RatFunc(poly_ring.one, poly_ring.one)

    def make(self, num: Poly, den: Poly) -> RatFunc:
        P = self.poly
        if not den.coeffs:
            raise MathDomainError("zero denominator")
        if not num.coeffs:
            return self.zero
        g = poly_gcd_z(num, den)
        num = P.exact_div(num, g)
        den = P.exact_div(den, g)
        du, dn = P.canonical_associate(den)
        if dn != den:
            num = P.mul(num, du)  # du is +-1, folding the sign into the numerator
        return RatFunc(num, dn)

    def from_poly(self, p: Poly) -> RatFunc:
        return RatFunc(p, self.poly.one)

    def add(self, a, b):
        P = self.poly
        return self.make(
            P.add(P.mul(a.num, b.den), P.mul(b.num, a.den)), P.mul(a.den, b.den)
        )

    def neg(self, a):
        return RatFunc(self.poly.neg(a.num), a.den)

    def mul(self, a, b):
        P = self.poly
        return self.make(P.mul(a.num, b.num), P.mul(a.den, b.den))

    def exact_div(self, a, b):
        if not b.num.coeffs:
            raise MathDomainError("division by zero")
        P = self.poly
        return self.make(P.mul(a.num, b.den), P.mul(a.den, b.num))

    def is_unit(self, a):
        return bool(a.num.coeffs)

    def canonical_associate(self, a):
        if not a.num.coeffs:
            return (self.one, a)
        return (a, self.one)

    def from_int(self, n):
        return self.make(self.poly.from_int(n), self.poly.one)

    def sort_key(self, a):
        return (self.poly.sort_key(a.num), self.poly.sort_key(a.den))

    def signature(self):
        return ("ratfunc", self.poly.signature())


ZZ = IntegerRing()
QQ = RationalField()
ZX = PolynomialRing(ZZ, "X")
QX = PolynomialRing(QQ, "X")
ZXY = PolynomialRing(ZX, "Y")
LT = LaurentRing("T")
FRAC_ZX = RationalFunctionField(ZX)
FXY = PolynomialRing(FRAC_ZX, "Y")


def poly_content(p: Poly) -> int:
    """Positive gcd of the integer coefficients (0 for the zero polynomial)."""
    g = 0
    for c in p.coeffs:
        g = math.gcd(g, c)
    return g


def poly_primitive(p: Poly) -> tuple[int, Poly]:
    """Split p != 0 into (signed content, canonical primitive part).

    The content carries the sign so that content * primitive == p exactly.
    """
    if not p.coeffs:
        raise MathDomainError("zero polynomial")
    c = poly_content(p)
    if p.coeffs[-1] < 0:
        c = -c
    return c, Poly(tuple(x // c for x in p.coeffs))


def zxy_x_degree(f: Poly) -> int:
    """Degree in X of a Z[X][Y] element (0 for zero)."""
    return max((len(c.coeffs) - 1 for c in f.coeffs if c.coeffs), default=0)


def zxy_primitive(f: Poly) -> tuple[Poly, Poly]:
    """Split f != 0 in Z[X][Y] into (content, primitive part).

    The content is the Z[X] gcd of the Y-coefficients, with positive leading
    coefficient, so that content * primitive == f exactly.
    """
    if not f.coeffs:
        raise MathDomainError("zero polynomial")
    cont = ZX.zero
    for c in f.coeffs:
        cont = poly_gcd_z(cont, c)
    return cont, Poly(tuple(ZX.exact_div(c, cont) for c in f.coeffs))


def qx_from_zx(p: Poly) -> Poly:
    """The image of an integer polynomial in Q[X]."""
    return Poly(tuple(Fraction(c) for c in p.coeffs))


def fxy_from_zxy(p: Poly) -> Poly:
    """The image of a Z[X][Y] polynomial in Frac(Z[X])[Y]."""
    return Poly(tuple(FRAC_ZX.from_poly(c) for c in p.coeffs))


def zx_clear_denominators(p: Poly) -> tuple[int, Poly]:
    """Smallest d > 0 with d*p integral; returns (d, d*p as an integer Poly)."""
    d = 1
    for c in p.coeffs:
        d = d * c.denominator // math.gcd(d, c.denominator)
    return d, Poly(tuple(int(c * d) for c in p.coeffs))


def zxy_clear_denominators(p: Poly) -> tuple[Poly, Poly]:
    """Canonical lcm d of the denominators of p in Frac(Z[X])[Y]; returns
    (d, d*p as a Z[X][Y] Poly)."""
    d = ZX.one
    for c in p.coeffs:
        d = poly_lcm_z(d, c.den)
    return d, ZXY.make([ZX.exact_div(ZX.mul(c.num, d), c.den) for c in p.coeffs])


def poly_gcd_z(a: Poly, b: Poly) -> Poly:
    """Gcd in Z[X], returned with positive leading coefficient: the gcd of the
    contents times the last primitive remainder of the primitive parts, which
    by Gauss's lemma is their primitive gcd."""
    if not a.coeffs or not b.coeffs:
        return ZX.canonical_associate(ZX.add(a, b))[1]
    ca, a = poly_primitive(a)
    cb, b = poly_primitive(b)
    a, b = list(a.coeffs), list(b.coeffs)
    while b:
        r, db, lead = a, len(b) - 1, b[-1]
        while len(r) - 1 >= db:  # pseudo-division: scale by lead, cancel the top
            t, shift = r[-1], len(r) - 1 - db
            r = [x * lead for x in r]
            for i, c in enumerate(b):
                r[shift + i] -= t * c
            while r and r[-1] == 0:
                r.pop()
        if r:
            c = math.gcd(*r) if r[-1] > 0 else -math.gcd(*r)
            r = [x // c for x in r]
        a, b = b, r
    return Poly(tuple(math.gcd(ca, cb) * x for x in a))


def poly_lcm_z(a: Poly, b: Poly) -> Poly:
    if not a.coeffs or not b.coeffs:
        return ZX.zero
    g = poly_gcd_z(a, b)
    m = ZX.mul(a, ZX.exact_div(b, g))
    return ZX.canonical_associate(m)[1]


def strip_var_power(p: Poly) -> tuple[int, Poly]:
    """Write p = X^m * q with q(0) != 0."""
    if not p.coeffs:
        raise MathDomainError("zero polynomial")
    m = 0
    while p.coeffs[m] == 0:
        m += 1
    return m, Poly(p.coeffs[m:])


def laurent_to_poly(f: Laurent) -> tuple[int, Poly]:
    """Smallest n >= 0 with f * T^n polynomial; returns (n, that polynomial)."""
    if not f.body.coeffs:
        return 0, ZX.zero
    n = max(0, -f.low)
    shift = f.low + n
    return n, ZX.make([0] * shift + list(f.body.coeffs))
