"""Ground-truth factorization engines.

These are the base oracles everything else is cross-checked against:

* ``factor_integer``     -- Z by a small-prime sieve, Miller-Rabin and Pollard
                            rho; a probable prime above the Miller-Rabin exact
                            bound (~3.3 * 10**24) is refused as desk-scale
* ``kronecker_factor``   -- primitive integer polynomials, by evaluation /
                            divisor interpolation (desk scale: degree <= 16,
                            coefficients <= 10**6); inside ``request_memo``
                            each distinct input is searched once
* ``factor_poly_zx``     -- content split + Kronecker on the primitive part
* ``factor_poly_qx``     -- Q[X] via denominator clearing
* ``factor_bivariate``   -- Z[X][Y] by packing Y -> X^D and regrouping the
                            univariate factors

``PrimeFactorization`` is the universal output format: a unit together with a
multiset (stored as a sorted tuple) of canonical irreducible factors, so that
``unit * prod(factors)`` reconstructs the input exactly.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import DeskScaleError, MathDomainError, OracleViolationError, PreconditionError
from .rings import (
    LT,
    QX,
    ZX,
    ZXY,
    ZZ,
    Element,
    Poly,
    Ring,
    poly_content,
    poly_primitive,
    zx_clear_denominators,
    zxy_primitive,
    zxy_x_degree,
)

KRONECKER_DEGREE_CAP = 16
KRONECKER_COEFF_CAP = 10**6
BIVARIATE_DEGREE_CAP = 4

# the first 13 primes; the strong-pseudoprime test to all of them is exact
# below the smallest composite that passes it (OEIS A014233)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BOUND = 3317044064679887385961981

# Kronecker answers of the open request, keyed on the input Poly; None when
# no request is open
_REQUEST_MEMO: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "locfactor_request_memo", default=None
)


@dataclass(frozen=True)
class PrimeFactorization:
    """unit * prod(factors) == the factored element; factor order is canonical."""

    unit: Element
    factors: tuple

    @classmethod
    def of(cls, ring: Ring, unit: Element, factors) -> "PrimeFactorization":
        ordered = tuple(sorted(factors, key=ring.sort_key))
        return cls(unit, ordered)

    def value(self, ring: Ring) -> Element:
        return ring.mul(self.unit, ring.prod(self.factors))


@dataclass(frozen=True)
class AssociateBijection:
    """Index pairs (i, j) matching associate factors of two factorizations."""

    pairing: tuple


# ---------------------------------------------------------------------------
# integers

def factor_integer(n: int) -> PrimeFactorization:
    """Factors ascending, unit is the sign.

    Primes below the sieve limit are divided out first; every remaining
    cofactor is either proven prime by Miller-Rabin or split by Pollard rho.
    A probable prime at or above ``MILLER_RABIN_EXACT_BOUND`` cannot be proven
    prime here and raises ``DeskScaleError``.
    """
    if n == 0:
        raise MathDomainError("cannot factor zero")
    m = abs(n)
    out: list[int] = []
    for p in _small_primes():
        if p * p > m:
            break
        while m % p == 0:
            out.append(p)
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if _is_probable_prime(m):
            if m >= MILLER_RABIN_EXACT_BOUND:
                raise DeskScaleError(
                    f"desk-scale limit: cannot prove {m} prime "
                    f"(Miller-Rabin is exact below {MILLER_RABIN_EXACT_BOUND})"
                )
            out.append(m)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    out.sort()
    return PrimeFactorization(1 if n > 0 else -1, tuple(out))


_SMALL_PRIMES: list[int] = []


def _small_primes() -> list[int]:
    if not _SMALL_PRIMES:
        limit = 10000
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _SMALL_PRIMES.extend(i for i in range(limit + 1) if sieve[i])
    return _SMALL_PRIMES


def _is_probable_prime(n: int) -> bool:
    """Strong probable-prime test to the bases ``_MR_BASES``; a proof of
    primality for n < MILLER_RABIN_EXACT_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant with a deterministic parameter sweep
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x, y, d = 2, 2, 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise OracleViolationError(f"failed to split {n}")


def _divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    divs = [1]
    last_p, last_count = None, 0
    for p in factor_integer(n).factors:
        if p == last_p:
            last_count += 1
        else:
            last_p, last_count = p, 1
        if last_count == 1:
            base = list(divs)
        divs += [d * p ** last_count for d in base]
    return sorted(set(divs))


# ---------------------------------------------------------------------------
# Kronecker factorization of primitive integer polynomials

def _eval_points(count: int) -> list[int]:
    # 0, 1, -1, 2, -2, ... in that order
    pts = [0]
    k = 1
    while len(pts) < count:
        pts.append(k)
        if len(pts) < count:
            pts.append(-k)
        k += 1
    return pts


def _list_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return out


def _list_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _find_proper_factor(g: Poly) -> Optional[Poly]:
    """First proper divisor of a primitive g found by the interpolation search,
    canonicalized; None certifies irreducibility."""
    n = len(g.coeffs) - 1
    half = n // 2
    if half == 0:
        return None
    pts = _eval_points(half + 1)
    vals = [ZX.evaluate(g, x) for x in pts]
    for x, v in zip(pts, vals):
        if v == 0:
            return ZX.make([-x, 1])

    m = len(pts)
    # NT[j][t] = prod_{i<j} (pts[t] - pts[i]); column j is the Newton basis
    # polynomial N_j evaluated at every point
    nt = [[1] * m for _ in range(m)]
    for j in range(1, m):
        for t in range(m):
            nt[j][t] = nt[j - 1][t] * (pts[t] - pts[j - 1])

    level0 = _divisors(abs(vals[0]))
    buckets = [None]
    for k in range(1, m):
        mod = abs(nt[k][k])
        table: dict[int, list[int]] = {}
        for dv in _divisors(abs(vals[k])):
            for s in (-dv, dv):
                table.setdefault(s % mod, []).append(s)
        for lst in table.values():
            lst.sort()
        buckets.append((mod, table))

    cs = [0] * m

    def search(k: int, d: int) -> Optional[Poly]:
        if k > d:
            if cs[d] == 0:
                return None  # degree < d; already covered by a smaller d
            poly: list[int] = [0]
            basis = [1]
            for j in range(d + 1):
                if cs[j]:
                    poly = _list_add(poly, [cs[j] * b for b in basis])
                if j < d:
                    basis = _list_mul(basis, [-pts[j], 1])
            cand = ZX.make(poly)
            if poly_content(cand) != 1:
                return None  # a primitive polynomial has primitive divisors
            _, candc = ZX.canonical_associate(cand)
            if ZX.exact_div(g, candc) is not None:
                return candc
            return None
        if k == 0:
            choices = level0  # sign symmetry: g and -g divide together
            for v in choices:
                cs[0] = v
                hit = search(1, d)
                if hit is not None:
                    return hit
            return None
        mod, table = buckets[k]
        partial = sum(cs[j] * nt[j][k] for j in range(k))
        for v in table.get(partial % mod, ()):
            delta = v - partial
            if delta % nt[k][k]:
                continue
            cs[k] = delta // nt[k][k]
            hit = search(k + 1, d)
            if hit is not None:
                return hit
        return None

    for d in range(1, half + 1):
        hit = search(0, d)
        if hit is not None:
            return hit
    return None


@contextmanager
def request_memo():
    """Share ``kronecker_factor`` answers for the duration of one request.

    Opens a fresh memo, or joins the one already open.  The scope that opened
    the memo discards it on exit, also when the request raises.
    """
    if _REQUEST_MEMO.get() is not None:
        yield
        return
    token = _REQUEST_MEMO.set({})
    try:
        yield
    finally:
        _REQUEST_MEMO.reset(token)


@contextmanager
def memo_bypassed():
    """Hide the open memo, so every Kronecker answer is recomputed."""
    token = _REQUEST_MEMO.set(None)
    try:
        yield
    finally:
        _REQUEST_MEMO.reset(token)


def kronecker_factor(p: Poly) -> PrimeFactorization:
    """Factor a primitive integer polynomial into canonical irreducibles.

    Irreducibility of every emitted factor is certified by exhausting all
    candidate divisors of degree up to half the factor's degree.  Inside
    ``request_memo`` each distinct input is searched once; only successful
    answers are kept.
    """
    memo = _REQUEST_MEMO.get()
    if memo is None:
        return _kronecker_factor_uncached(p)
    pf = memo.get(p)
    if pf is None:
        pf = memo[p] = _kronecker_factor_uncached(p)
    return pf


def _kronecker_factor_uncached(p: Poly) -> PrimeFactorization:
    if not p.coeffs:
        raise MathDomainError("cannot factor zero")
    if poly_content(p) != 1:
        raise MathDomainError("kronecker_factor requires a primitive polynomial")
    if len(p.coeffs) - 1 > KRONECKER_DEGREE_CAP:
        raise DeskScaleError(
            f"degree {len(p.coeffs) - 1} exceeds the desk-scale cap {KRONECKER_DEGREE_CAP}"
        )
    if any(abs(c) > KRONECKER_COEFF_CAP for c in p.coeffs):
        raise DeskScaleError(
            f"coefficient magnitude exceeds the desk-scale cap {KRONECKER_COEFF_CAP}"
        )
    unit, work0 = ZX.canonical_associate(p)
    todo = [work0]
    out = []
    while todo:
        g = todo.pop()
        if len(g.coeffs) == 1:
            continue  # canonical primitive constant is 1
        f = _find_proper_factor(g)
        if f is None:
            out.append(g)
            continue
        h = ZX.exact_div(g, f)
        todo.append(f)
        todo.append(h)
    pf = PrimeFactorization.of(ZX, unit, out)
    if pf.value(ZX) != p:
        raise OracleViolationError("kronecker reconstruction failed")
    return pf


# ---------------------------------------------------------------------------
# full engines for Z[X], Q[X], Z[X][Y]

def factor_poly_zx(p: Poly) -> PrimeFactorization:
    """Factor over Z[X]: integer primes of the content as constant factors,
    Kronecker irreducibles for the primitive part."""
    if not p.coeffs:
        raise MathDomainError("cannot factor zero")
    c, prim = poly_primitive(p)
    cf = factor_integer(c)
    kf = kronecker_factor(prim)
    factors = [ZX.constant(q) for q in cf.factors] + list(kf.factors)
    unit = ZX.mul(ZX.constant(cf.unit), kf.unit)
    pf = PrimeFactorization.of(ZX, unit, factors)
    if pf.value(ZX) != p:
        raise OracleViolationError("factor_poly_zx reconstruction failed")
    return pf


def factor_poly_qx(p: Poly) -> PrimeFactorization:
    """Factor over Q[X]: monic irreducible factors, leading coefficient as unit."""
    if not p.coeffs:
        raise MathDomainError("cannot factor zero")
    lead = p.coeffs[-1]
    monic = Poly(tuple(c / lead for c in p.coeffs))
    _, cleared = zx_clear_denominators(monic)
    _, prim = poly_primitive(cleared)
    kf = kronecker_factor(prim)
    factors = []
    for f in kf.factors:
        lf = f.coeffs[-1]
        factors.append(Poly(tuple(Fraction(c, lf) for c in f.coeffs)))
    pf = PrimeFactorization.of(QX, QX.constant(lead), factors)
    if pf.value(QX) != p:
        raise OracleViolationError("factor_poly_qx reconstruction failed")
    return pf


def _pack(f: Poly, chunk: int) -> Poly:
    out: list[int] = []
    for j, cj in enumerate(f.coeffs):
        need = j * chunk + len(cj.coeffs)
        if len(out) < need:
            out.extend([0] * (need - len(out)))
        for i, a in enumerate(cj.coeffs):
            out[j * chunk + i] += a
    return ZX.make(out)


def _unpack(u: Poly, chunk: int) -> Poly:
    inner = []
    for j in range(0, max(len(u.coeffs), 1), chunk):
        inner.append(ZX.make(u.coeffs[j : j + chunk]))
    return ZXY.make(inner)


def factor_bivariate(f: Poly) -> PrimeFactorization:
    """Factor over Z[X][Y] by content splitting plus Kronecker substitution.

    The primitive part is packed with Y -> X^D for D = 2*deg_X + 1 (factor
    X-degrees cannot exceed the input's, so the packing is injective on all
    candidate factors), the image is factored over Z[X], and bivariate
    irreducibles are recovered as minimal subsets of image factors whose
    unpacked product divides exactly.
    """
    if ZXY.is_zero(f):
        raise MathDomainError("cannot factor zero")
    deg_y = len(f.coeffs) - 1
    deg_x = zxy_x_degree(f)
    if deg_y > BIVARIATE_DEGREE_CAP or deg_x > BIVARIATE_DEGREE_CAP:
        raise DeskScaleError(
            f"desk-scale limit: degrees ({deg_x}, {deg_y}) exceed cap {BIVARIATE_DEGREE_CAP}"
        )
    cont, pp = zxy_primitive(f)
    cf = factor_poly_zx(cont)
    unit = ZXY.constant(cf.unit)
    factors = [ZXY.constant(q) for q in cf.factors]
    u2, ppc = ZXY.canonical_associate(pp)
    unit = ZXY.mul(unit, u2)
    if len(ppc.coeffs) == 1:
        if ppc != ZXY.one:
            raise OracleViolationError("primitive constant part is not one")
    else:
        chunk = 2 * zxy_x_degree(ppc) + 1
        image = _pack(ppc, chunk)
        if len(image.coeffs) - 1 > KRONECKER_DEGREE_CAP:
            raise DeskScaleError(
                "desk-scale limit: substitution image degree "
                f"{len(image.coeffs) - 1} exceeds the univariate cap {KRONECKER_DEGREE_CAP}"
            )
        base = factor_poly_zx(image)
        if base.unit != ZX.one:
            raise OracleViolationError("primitive image has a nontrivial unit")
        remaining = list(base.factors)
        target = ppc
        while not ZXY.is_unit(target):
            hit = None
            for size in range(1, len(remaining) + 1):
                for combo in itertools.combinations(range(len(remaining)), size):
                    prodp = ZX.prod(remaining[i] for i in combo)
                    cand = _unpack(prodp, chunk)
                    if len(cand.coeffs) - 1 < 1:
                        continue  # a pure Z[X] element cannot divide the primitive part
                    _, candc = ZXY.canonical_associate(cand)
                    q = ZXY.exact_div(target, candc)
                    if q is not None:
                        hit = (combo, candc, q)
                        break
                if hit:
                    break
            if hit is None:
                raise OracleViolationError("bivariate regrouping failed")
            combo, candc, q = hit
            for i in sorted(combo, reverse=True):
                remaining.pop(i)
            factors.append(candc)
            target = q
        if remaining:
            raise OracleViolationError("bivariate regrouping left unused image factors")
        unit = ZXY.mul(unit, target)
    pf = PrimeFactorization.of(ZXY, unit, factors)
    if pf.value(ZXY) != f:
        raise OracleViolationError("factor_bivariate reconstruction failed")
    return pf


# ---------------------------------------------------------------------------
# irreducibility / primality oracles

def _engine_for(ring: Ring) -> Optional[Callable]:
    if ring == ZZ:
        return factor_integer
    if ring == ZX:
        return factor_poly_zx
    if ring == QX:
        return factor_poly_qx
    if ring == ZXY:
        return factor_bivariate
    return None


def is_irreducible(ring: Ring, a: Element) -> bool:
    """Decided by full factorization: nonzero, non-unit, exactly one factor."""
    if ring.is_zero(a) or ring.is_unit(a):
        return False
    if ring == LT:
        # T powers are units, so irreducibility reduces to the body over Z[X]
        return is_irreducible(ZX, a.body)
    engine = _engine_for(ring)
    if engine is None:
        raise MathDomainError(f"no irreducibility oracle for {ring.name}")
    return len(engine(a).factors) == 1


def check_factorization_unique(
    ring: Ring, f1: PrimeFactorization, f2: PrimeFactorization
) -> Optional[AssociateBijection]:
    """Bijection pairing associate factors, or None when the factorizations
    disagree (different elements or mismatched multisets)."""
    for fz in (f1, f2):
        if not ring.is_unit(fz.unit):
            raise PreconditionError("factorization unit slot is not a unit")
        for q in fz.factors:
            if ring.is_zero(q) or ring.is_unit(q) or not is_irreducible(ring, q):
                raise PreconditionError("not a factorization into irreducibles")
    if not ring.eq(f1.value(ring), f2.value(ring)):
        return None
    if len(f1.factors) != len(f2.factors):
        return None
    norm1 = [ring.canonical_associate(q)[1] for q in f1.factors]
    norm2 = [ring.canonical_associate(q)[1] for q in f2.factors]
    used = [False] * len(norm2)
    pairs = []
    for i, a in enumerate(norm1):
        for j, b in enumerate(norm2):
            if not used[j] and ring.eq(a, b):
                used[j] = True
                pairs.append((i, j))
                break
        else:
            return None
    return AssociateBijection(tuple(pairs))
