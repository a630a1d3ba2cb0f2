"""Ground-truth factorization engines.

These are the base oracles everything else is cross-checked against:

* ``factor_integer``     -- Z by a small-prime sieve, Miller-Rabin and Pollard
                            rho; a probable prime above the Miller-Rabin exact
                            bound (~3.3 * 10**24) is refused as desk-scale
* ``kronecker_factor``   -- primitive integer polynomials, by Zassenhaus's
                            algorithm: Berlekamp modulo a small prime, Hensel
                            lifting, recombination (desk scale: degree <= 16,
                            coefficients <= 10**6); inside ``request_memo``
                            each distinct input is factored once
* ``factor_poly_zx``     -- content split + ``kronecker_factor`` on the
                            primitive part
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
from typing import Callable, Optional

from .errors import DeskScaleError, MathDomainError, OracleViolationError, PreconditionError
from .rings import (
    LT,
    ZX,
    ZXY,
    ZZ,
    Element,
    Poly,
    Ring,
    poly_content,
    poly_gcd_z,
    poly_primitive,
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
# Iterations of one Pollard rho split, which takes on the order of the square
# root of the smaller prime factor: 188,312 for 399165290221 * 798330580441,
# at most 1,208 on the desk-mixed benchmark integers (below 10^12), and about
# 10^7 (13 s) for two primes near 10^14, which the budget refuses after ~3 s
# (CPython 3.11, one core of a 2-vCPU guest).
POLLARD_RHO_BUDGET = 1_000_000

# kronecker_factor answers of the open request, keyed on the input Poly;
# None when no request is open
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
    prime here and raises ``DeskScaleError``, as does a cofactor that Pollard
    rho does not split within ``POLLARD_RHO_BUDGET`` iterations.
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
    # Floyd's cycle detection with a deterministic parameter sweep, stopped
    # after POLLARD_RHO_BUDGET iterations over all parameters
    if n % 2 == 0:
        return 2
    left = POLLARD_RHO_BUDGET
    for c in range(1, 100):
        x, y, d = 2, 2, 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            if not left:
                raise DeskScaleError(
                    f"desk-scale limit: Pollard rho found no factor of {n} "
                    f"in {POLLARD_RHO_BUDGET} iterations"
                )
            left -= 1
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise OracleViolationError(f"failed to split {n}")


# ---------------------------------------------------------------------------
# Zassenhaus factorization of primitive integer polynomials
#
# Polynomials in this section are plain int lists, lowest degree first, with
# no trailing zeros.  The steps follow von zur Gathen & Gerhard, "Modern
# Computer Algebra", ch. 14-15: squarefree part over Z, Berlekamp over a small
# prime, Hensel lifting past a Mignotte bound, and recombination of the lifted
# factors by trial division.

# Berlekamp runs over the good primes in increasing order: those that do not
# divide the leading coefficient and keep the input squarefree.  It stops at
# the first prime where the input stays irreducible, at the first with at most
# _FEW_MODULAR_FACTORS factors (recombining those tries at most 2^7 subsets,
# which costs less than another Berlekamp pass at degree 16), or after
# _BERLEKAMP_PRIMES good primes; the prime with the fewest factors is lifted.
_BERLEKAMP_PRIMES = 5
_FEW_MODULAR_FACTORS = 8


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zx_primitive(a: list[int]) -> list[int]:
    c = 0
    for x in a:
        c = math.gcd(c, x)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _zx_exact_div(a: list[int], b: list[int]) -> Optional[list[int]]:
    """a / b over Z, or None when b does not divide a."""
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


def _add_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _trim([c % m for c in out])


def _sub_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _add_mod(a, [-x for x in b], m)


def _mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _divmod_mod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b modulo m; lc(b) is a unit mod m."""
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _trim([c % m for c in a])
    inv = pow(b[-1], -1, m)
    rem = list(a)
    q = [0] * (len(rem) - db)
    for k in range(len(q) - 1, -1, -1):
        t = rem[k + db] * inv % m
        if t:
            q[k] = t
            for i in range(db):
                rem[k + i] -= t * b[i]
    return _trim(q), _trim([c % m for c in rem[:db]])


def _monic_mod(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) of a != 0 and b."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _gf_bezout(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*a + t*b == 1 over GF(p), for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _berlekamp_basis(f: list[int], p: int) -> list[list[int]]:
    """Basis of {v : v^p == v mod f} for a monic squarefree f over GF(p);
    its size is the number of irreducible factors of f modulo p."""
    n = len(f) - 1
    low = f[:n]

    def times_x(x: list[int]) -> list[int]:
        top = x[-1]
        return [(prev - top * c) % p for prev, c in zip([0] + x[:-1], low)]

    x = [1] + [0] * (n - 1)
    for _ in range(p):
        x = times_x(x)
    window = [x]  # X^k mod f for k = p .. p+n-1
    for _ in range(n - 1):
        x = times_x(x)
        window.append(x)
    # rows[i] = X^(i*p) mod f, each the combination of the window by the
    # previous row; the window is packed into integers of n slots of w bits,
    # wide enough for the unreduced sums
    w = (n * p * p).bit_length()
    mask = (1 << w) - 1
    packed = [sum(c << (w * j) for j, c in enumerate(t)) for t in window]
    rows = [[1] + [0] * (n - 1), window[0]]
    while len(rows) < n:
        v = sum(c * t for c, t in zip(rows[-1], packed))
        rows.append([(v >> (w * j) & mask) % p for j in range(n)])
    # v (Q - I) == 0, solved as (Q - I)^T v == 0 by Gauss-Jordan elimination
    mat = [[rows[i][j] - (i == j) for i in range(n)] for j in range(n)]
    pivots: list[int] = []
    for col in range(n):
        top = len(pivots)
        hit = next((r for r in range(top, n) if mat[r][col] % p), None)
        if hit is None:
            continue
        mat[top], mat[hit] = mat[hit], mat[top]
        inv = pow(mat[top][col], -1, p)
        pivot_row = mat[top] = [v * inv % p for v in mat[top]]
        for r in range(n):
            t = mat[r][col] % p
            if t and r != top:
                mat[r] = [(v - t * w) % p for v, w in zip(mat[r], pivot_row)]
        pivots.append(col)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [0] * n
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -mat[r][free] % p
        basis.append(_trim(v))
    return basis


def _berlekamp_split(f: list[int], basis: list[list[int]], p: int) -> list[list[int]]:
    """The monic irreducible factors over GF(p) of a monic squarefree f, split
    by gcds with v - s for the basis vectors v and every s in GF(p)."""
    factors = [f]
    for v in basis:
        if len(factors) == len(basis):
            break
        if len(v) < 2:
            continue  # a constant separates no factors
        split = []
        for u in factors:
            vu = _divmod_mod(v, u, p)[1]
            for s in range(p):
                if len(u) < 2:
                    break
                g = _gf_gcd(u, _sub_mod(vu, [s], p), p)
                if len(g) > 1:
                    split.append(g)
                    u = _divmod_mod(u, g, p)[0]
        factors = split
    return factors


def _hensel_step(m, f, g, h, s, t, last):
    """Lift f == g*h and s*g + t*h == 1 (h monic) from modulus m to m^2;
    the last step leaves s and t unlifted."""
    mm = m * m
    e = _sub_mod(f, _mul_mod(g, h, mm), mm)
    q, r = _divmod_mod(_mul_mod(s, e, mm), h, mm)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, mm), _mul_mod(q, g, mm), mm), mm)
    h = _add_mod(h, r, mm)
    if last:
        return g, h, s, t
    b = _sub_mod(_add_mod(_mul_mod(s, g, mm), _mul_mod(t, h, mm), mm), [1], mm)
    c, d = _divmod_mod(_mul_mod(s, b, mm), h, mm)
    s = _sub_mod(s, d, mm)
    t = _sub_mod(t, _add_mod(_mul_mod(t, b, mm), _mul_mod(c, g, mm), mm), mm)
    return g, h, s, t


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, steps: int) -> list[list[int]]:
    """Monic lifts modulo p^(2^steps) of the monic factors of f modulo p,
    split in halves down a factor tree."""
    if len(factors) == 1:
        return [_monic_mod(f, p ** (2**steps))]
    k = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:k]:
        g = _mul_mod(g, u, p)
    h = [1]
    for u in factors[k:]:
        h = _mul_mod(h, u, p)
    s, t = _gf_bezout(g, h, p)
    m = p
    for i in range(steps):
        g, h, s, t = _hensel_step(m, f, g, h, s, t, i == steps - 1)
        m *= m
    return _hensel_lift(g, factors[:k], p, steps) + _hensel_lift(h, factors[k:], p, steps)


def _split_by_subsets(count: int, split: Callable[[tuple], bool]) -> None:
    """Group the factors of a product, indexed by range(count), into the
    minimal sub-products that divide it.

    ``split(subset)`` returns True when the product of the factors in subset
    divides what is left of the product, after dividing it out.  Subsets are
    tried by increasing size up to half the indices left, at exactly half only
    those holding the first index left, since the complement of a divisor
    gives its cofactor.  Each accepted subset is minimal because every smaller
    one was tried before; the indices left over form the last factor."""
    todo = list(range(count))
    size = 1
    while 2 * size <= len(todo):
        subsets = itertools.combinations(todo, size)
        if 2 * size == len(todo):  # skip the complements of subsets tried
            subsets = ((todo[0],) + s for s in itertools.combinations(todo[1:], size - 1))
        for subset in subsets:
            if split(subset):
                todo = [i for i in todo if i not in subset]
                break
        else:
            size += 1


def _recombine(f: list[int], lifted: list[list[int]], mod: int) -> list[list[int]]:
    """Irreducible factors over Z of a squarefree primitive f with f(0) != 0,
    from the monic lifts of its modular factors.  mod exceeds twice the
    coefficients of lc(f)/lc(g) * g for every divisor g of f, so each subset
    of lifts gives its candidate exactly (the leading-coefficient trick)."""
    half = mod // 2
    found = []

    def split(subset: tuple) -> bool:
        nonlocal f
        lead = c0 = f[-1]
        for i in subset:
            c0 = c0 * lifted[i][0] % mod
        c0 = c0 - mod if c0 > half else c0
        if c0 == 0 or lead * f[0] % c0:
            return False  # the constant term rules the candidate out
        g = [lead]
        for i in subset:
            g = _mul_mod(g, lifted[i], mod)
        g = _zx_primitive([c - mod if c > half else c for c in g])
        q = _zx_exact_div(f, g)
        if q is None:
            return False
        found.append(g)
        f = q
        return True

    _split_by_subsets(len(lifted), split)
    return found + [f]


def _factor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a squarefree primitive f with positive leading
    coefficient and f(0) != 0."""
    n = len(f) - 1
    if n == 1:
        return [f]
    if n == 2:  # reducible exactly when the discriminant is a square
        c, b, a = f
        disc = b * b - 4 * a * c
        root = math.isqrt(disc) if disc > 0 else 0
        if root * root != disc:
            return [f]
        g = _zx_primitive([b - root, 2 * a])
        return [g, _zx_exact_div(f, g)]
    best = None
    good = 0
    for p in _small_primes():
        if f[-1] % p == 0:
            continue
        fp = _monic_mod([c % p for c in f], p)
        if len(_gf_gcd(fp, _trim([i * c % p for i, c in enumerate(fp)][1:]), p)) > 1:
            continue
        basis = _berlekamp_basis(fp, p)
        if len(basis) == 1:
            return [f]
        if best is None or len(basis) < len(best[2]):
            best = (p, fp, basis)
        good += 1
        if good == _BERLEKAMP_PRIMES or len(basis) <= _FEW_MODULAR_FACTORS:
            break
    p, fp, basis = best
    # vzGG 15.19: 2 * |lc| * sqrt(n+1) * 2^n * max |coefficient|
    big = max(abs(c) for c in f)
    bound = 2 * f[-1] * 2**n * (math.isqrt((n + 1) * big * big) + 1)
    mod, steps = p, 0
    while mod <= bound:
        mod, steps = mod * mod, steps + 1
    lifted = _hensel_lift(f, _berlekamp_split(fp, basis, p), p, steps)
    return _recombine(f, lifted, mod)


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors, with multiplicity, of a primitive f with positive
    leading coefficient; multiplicities come from exact division by the
    factors of the squarefree part f / gcd(f, f')."""
    m = 0
    while f[m] == 0:
        m += 1
    out = [[0, 1]] * m
    f = f[m:]
    if len(f) == 1:
        return out
    if len(f) == 2:
        return out + [f]
    g = poly_gcd_z(Poly(f), Poly([i * c for i, c in enumerate(f)][1:])).coeffs
    if len(g) == 1:
        return out + _factor_squarefree(f)
    for q in _factor_squarefree(_zx_exact_div(f, g)):
        rest = _zx_exact_div(f, q)
        while rest is not None:
            out.append(q)
            f = rest
            rest = _zx_exact_div(f, q)
    return out


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
    """Hide the open memo, so every ``kronecker_factor`` answer is recomputed."""
    token = _REQUEST_MEMO.set(None)
    try:
        yield
    finally:
        _REQUEST_MEMO.reset(token)


def kronecker_factor(p: Poly) -> PrimeFactorization:
    """Factor a primitive integer polynomial into canonical irreducibles.

    The engine is Zassenhaus's: squarefree part, Berlekamp modulo a small
    prime, Hensel lifting past a Mignotte bound, and exhaustive recombination
    of the lifted factors, so a factor is emitted only when no subset of its
    modular factors yields a proper divisor.  The divisor search this entry
    point is named after is ``selftest.kronecker_reference``, the independent
    engine it is checked against.  Inside ``request_memo`` each distinct input
    is factored once; only successful answers are kept.
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
    unit, work = ZX.canonical_associate(p)
    out = [] if len(work.coeffs) == 1 else _zassenhaus(list(work.coeffs))
    pf = PrimeFactorization.of(ZX, unit, [Poly(q) for q in out])
    if pf.value(ZX) != p:
        raise OracleViolationError("kronecker reconstruction failed")
    return pf


# ---------------------------------------------------------------------------
# full engines for Z[X] and Z[X][Y]

def factor_poly_zx(p: Poly) -> PrimeFactorization:
    """Factor over Z[X]: integer primes of the content as constant factors,
    ``kronecker_factor`` irreducibles for the primitive part."""
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
    unpacked product divides exactly.  Y -> X^D is a ring homomorphism that
    unpacking inverts on divisors of the input, so the image factors left over
    unpack to the cofactor, as ``_split_by_subsets`` needs.
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
        target = ppc

        def split(subset: tuple) -> bool:
            nonlocal target
            prodp = ZX.prod(base.factors[i] for i in subset)
            _, cand = ZXY.canonical_associate(_unpack(prodp, chunk))
            q = ZXY.exact_div(target, cand)
            if q is None:
                return False
            factors.append(cand)
            target = q
            return True

        _split_by_subsets(len(base.factors), split)
        factors.append(target)
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
