"""Exact arithmetic kernel.

Every value is immutable and exact: Python integers and dense polynomials
(lowest degree first, no trailing zeros).  A ring is an object implementing
the uniform contract below; all higher layers program against that contract
instead of concrete value types, which is what lets the same transfer and
descent algorithms run over Z, Z[X] and Z[X][Y] unchanged, and over the
Laurent ring, which ``localization`` builds as Z[X] localized at the powers
of X.

Canonical associate conventions (one normal form per associate class):

* Z       -- nonnegative
* C[X]    -- leading coefficient in canonical form of C (so Z[X] gets a
             positive leading coefficient, and so does the leading
             coefficient of a Z[X][Y] element)
"""

from __future__ import annotations

import math
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
        acc = None  # no product with one
        for e in elems:
            acc = e if acc is None else self.mul(acc, e)
        return self.one if acc is None else acc

    def pow(self, a: Element, n: int) -> Element:
        if n < 0:
            raise MathDomainError("negative exponent")
        acc = None
        while n:  # square and multiply, with no product with one
            if n & 1:
                acc = a if acc is None else self.mul(acc, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return self.one if acc is None else acc

    def sort_key(self, a: Element):
        """Total order used for deterministic factor ordering."""
        raise NotImplementedError

    def signature(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
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


class IntegerPolynomialRing(PolynomialRing):
    """Z[var]: the dense ring above with its coefficient loops on plain ints.

    Equal to ``PolynomialRing(ZZ, var)`` and interchangeable with it; the
    kernels skip the per-coefficient dispatch to ``IntegerRing``.  A product
    or quotient of nonzero integer polynomials has a nonzero leading
    coefficient, so neither needs trimming.
    """

    def __init__(self, var: str):
        super().__init__(ZZ, var)

    def make(self, coeffs) -> Poly:
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        return Poly(cs)

    def is_zero(self, a):
        return not a.coeffs

    def add(self, a, b):
        x, y = a.coeffs, b.coeffs
        if len(x) < len(y):
            x, y = y, x
        out = list(x)
        for i, c in enumerate(y):
            out[i] += c
        return self.make(out)

    def neg(self, a):
        return Poly([-c for c in a.coeffs])

    def mul(self, a, b):
        x, y = a.coeffs, b.coeffs
        if not x or not y:
            return self.zero
        out = [0] * (len(x) + len(y) - 1)
        for i, c in enumerate(x):
            if c:
                for j, d in enumerate(y, i):
                    out[j] += c * d
        return Poly(out)

    def exact_div(self, a, b):
        if not b.coeffs:
            raise MathDomainError("division by zero")
        if not a.coeffs:
            return self.zero
        q = zx_exact_div_coeffs(a.coeffs, b.coeffs)
        return None if q is None else Poly(q)


def zx_exact_div_coeffs(a, b) -> Optional[list[int]]:
    """a / b over Z for nonzero integer coefficient sequences without trailing
    zeros, lowest degree first; None when b does not divide a."""
    db = len(b) - 1
    if len(a) - 1 < db:
        return None
    rem = list(a)
    lead = b[-1]
    q = [0] * (len(rem) - db)
    for k in range(len(q) - 1, -1, -1):
        t, r = divmod(rem[k + db], lead)
        if r:
            return None
        if t:
            q[k] = t
            for i in range(db):
                rem[k + i] -= t * b[i]
    return None if any(rem[:db]) else q


ZZ = IntegerRing()
ZX = IntegerPolynomialRing("X")
ZXY = PolynomialRing(ZX, "Y")


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
