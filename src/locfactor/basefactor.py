"""Ground-truth factorization engines.

These are the base oracles everything else is cross-checked against:

* ``factor_integer``     -- Z by a small-prime sieve, Miller-Rabin and Pollard
                            rho; a probable prime above the Miller-Rabin exact
                            bound (~3.3 * 10**24) is refused as desk-scale
* ``kronecker_factor``   -- primitive integer polynomials, by Zassenhaus's
                            algorithm: roots and Berlekamp modulo a small
                            prime, Newton and Hensel lifting only as far as a
                            per-degree Mignotte bound needs, recombination
                            (desk scale: degree <= 16, coefficients <= 10**6)
* ``factor_poly_zx``     -- content split + ``kronecker_factor`` on the
                            primitive part
* ``factor_bivariate``   -- Z[X][Y] by packing Y -> X^D and regrouping the
                            univariate factors

Inside ``request_memo`` each engine factors each input once up to units
(``_memoized``), and ``is_irreducible`` answers from the same memo.
``ROUTE_TABLE`` names each ring's direct engine and descent routes, for
``cli``, ``routes`` and ``is_irreducible``, without loading any of them.

``PrimeFactorization`` is the universal output format: a unit together with a
multiset (stored as a sorted tuple) of canonical irreducible factors, so that
``unit * prod(factors)`` reconstructs the input exactly.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional

from .errors import DeskScaleError, MathDomainError, OracleViolationError, PreconditionError
from .rings import (
    ZX,
    ZXY,
    ZZ,
    Element,
    Poly,
    Ring,
    poly_content,
    poly_gcd_z,
    poly_primitive,
    zx_exact_div_coeffs,
    zx_mul_acc,
    zx_trim,
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
# Pollard rho iterations of one factor_integer call, over all its splits.  A
# split takes on the order of the square root of the smaller prime factor:
# 188,312 for 399165290221 * 798330580441, at most 1,208 on the desk-mixed
# benchmark integers (below 10^12), and about 10^7 (13 s) for two primes near
# 10^14, which the budget refuses after ~3 s (CPython 3.11, one core of a
# 2-vCPU guest).
POLLARD_RHO_BUDGET = 1_000_000
# Bit length of the largest cofactor left by the sieve that factor_integer
# takes on.  An iteration of rho costs 2.3 us at 128 bits, 3.5 us at 192 and
# 24 us at 1,024, where the budget ran 24 s instead of ~3 s; at the cap, a
# product of three 64-bit primes is refused after 4.0 s.  Miller-Rabin on a
# prime of 4,423 bits took 3.3 s (same machine).  A cofactor the factorizer
# can finish is a product of primes that rho finds within its budget, up to
# ~10^13 each, and one last prime below the Miller-Rabin bound (82 bits).
INTEGER_BITS_CAP = 192

# engine answers of the open request, keyed on (engine name, canonical
# associate of the input); None when no request is open
_REQUEST_MEMO: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "locfactor_request_memo", default=None
)


class PrimeFactorization(NamedTuple):
    """unit * prod(factors) == the factored element; factor order is canonical."""

    unit: Element
    factors: tuple

    @classmethod
    def of(cls, ring: Ring, unit: Element, factors) -> "PrimeFactorization":
        ordered = tuple(sorted(factors, key=ring.sort_key))
        return cls(unit, ordered)

    def value(self, ring: Ring) -> Element:
        return ring.mul(self.unit, ring.prod(self.factors))


# ---------------------------------------------------------------------------
# integers

def factor_integer(n: int) -> PrimeFactorization:
    """Factors ascending, unit is the sign.

    Primes below the sieve limit are divided out first; every remaining
    cofactor is either proven prime by Miller-Rabin or split by Pollard rho.
    A probable prime at or above ``MILLER_RABIN_EXACT_BOUND`` cannot be proven
    prime here and raises ``DeskScaleError``, as do a sieved cofactor of more
    than ``INTEGER_BITS_CAP`` bits and a number whose splits take Pollard rho
    more than ``POLLARD_RHO_BUDGET`` iterations in all.  Inside
    ``request_memo`` n and -n are factored once.
    """
    return _memoized("factor_integer", ZZ, _factor_integer_uncached, n)


def _factor_integer_uncached(m: int) -> list:
    out: list[int] = []
    for p in _small_primes():
        if p * p > m:
            break
        while m % p == 0:
            out.append(p)
            m //= p
    if m.bit_length() > INTEGER_BITS_CAP:
        raise DeskScaleError(
            f"desk-scale limit: cofactor of {m.bit_length()} bits left after the "
            f"sieve exceeds {INTEGER_BITS_CAP} bits"
        )
    stack = [m] if m > 1 else []
    left = POLLARD_RHO_BUDGET
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
        d, left = _pollard_rho(m, left)
        stack.append(d)
        stack.append(m // d)
    return out


_SMALL_PRIMES: list[int] = []


def _small_primes() -> list[int]:
    if not _SMALL_PRIMES:
        limit = 10000
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _SMALL_PRIMES.extend(itertools.compress(range(limit + 1), sieve))
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


def _pollard_rho(n: int, left: int) -> tuple[int, int]:
    """A proper divisor of the composite n and the iterations left of
    ``left``, by Floyd's cycle detection with a deterministic parameter
    sweep."""
    if n % 2 == 0:
        return 2, left
    for c in range(1, 100):
        x, y, d = 2, 2, 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            if not left:
                raise DeskScaleError(
                    f"desk-scale limit: Pollard rho found no factor of {n} "
                    f"within its budget of {POLLARD_RHO_BUDGET} iterations"
                )
            left -= 1
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d, left
    raise OracleViolationError(f"failed to split {n}")


# ---------------------------------------------------------------------------
# Zassenhaus factorization of primitive integer polynomials
#
# Polynomials in this section are plain int lists, lowest degree first, with
# no trailing zeros.  The steps follow von zur Gathen & Gerhard, "Modern
# Computer Algebra", ch. 14-15: squarefree part over Z; modulo a small prime,
# the roots by evaluation and Berlekamp on what is left; lifting, the roots
# by Newton's iteration and the other factors down a Hensel tree; and
# recombination of the lifted factors by trial division.  The roots are
# taken off the tree because a root costs O(n) to find and to lift per
# step, where a tree node costs O(n^2): on near-cap-direct products about
# 3.3 of 7.2 modular factors are linear.
#
# The lift goes only as far as recombination needs (vzGG section 6.6).  Let h
# of degree d divide the cofactor f_t that recombination has left of f.
#  1. The roots of h are roots of f_t, so M(h) <= |lc h / lc f_t| * M(f_t)
#     for the Mahler measure M.
#  2. A polynomial g of degree d has |g_i| <= C(d, i) * M(g), so the candidate
#     lc(f_t)/lc(h) * h of the leading-coefficient trick has coefficients of
#     at most C(d, d//2) * M(f_t).
#  3. M(f_t) <= M(f), and M(g) <= |g|_2 (Landau), so those coefficients are
#     at most B(d) = C(d, d//2) * min(|f_t|_2, |f|_2).
# Modulo mod > 2 B(d) the candidate is exact, so a failed test of total
# degree d proves that its subset gives no factor; below, it proves nothing.
# The first lift stops where every single modular factor is decided: lifting
# to 2 B(n-1) at once took 1,279 Hensel steps instead of 888 on the 200
# near-cap products of the tests.  A round that meets an undecided test (4 of
# 2,489 rounds on the seed-1 benchmark corpora) lifts once more, from p, to
# 2 B(n-1), where every test is decided.

# The factors are counted over the good primes in increasing order: those
# that do not divide the leading coefficient and keep the input squarefree.
# The count stops at the first prime where the input stays irreducible, at
# the first with at most _FEW_MODULAR_FACTORS factors, or after
# _BERLEKAMP_PRIMES good primes; the prime with the fewest factors is lifted.
# A product of many small factors has about as many modular factors at every
# prime, so a further pass rarely finds fewer.  With the roots off the Hensel
# tree, stopping at 8 or 10 factors instead of 12 made the engine 27% and 3%
# slower on near-cap-direct products; stopping at 16, that is at the first
# good prime, saved nothing there, and none of the four moved dense degree-16
# inputs or products of 1-4 factors of degree 1-3 by more than 2%
# (interleaved in-process timings, CPython 3.11, 2-vCPU guest).  Recombining
# 12 factors tries at most 2^11 subsets.
_BERLEKAMP_PRIMES = 5
_FEW_MODULAR_FACTORS = 12


def _reduce(a: list[int], m: int) -> list[int]:
    return zx_trim([c % m for c in a])


def _mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _reduce(zx_mul_acc([], a, b), m)


def _divmod_monic(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder modulo m of a by a monic b."""
    db = len(b) - 1
    low = b[:db]
    rem = list(a)
    q = [0] * max(len(rem) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        t = rem[k + db] % m
        if t:
            q[k] = t
            for i, c in enumerate(low, k):
                rem[i] -= t * c
    return zx_trim(q), _reduce(rem[:db], m)


def _monic_mod(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) of a monic a and any b.  Euclid on remainders
    alone: each divisor is made monic once, and no quotient is built."""
    while b:
        b = _monic_mod(b, p)
        db = len(b) - 1
        low = b[:db]
        rem = list(a)
        for k in range(len(rem) - 1, db - 1, -1):
            t = rem[k] % p
            if t:
                for i, c in enumerate(low, k - db):
                    rem[i] -= t * c
        a, b = b, _reduce(rem[:db], p)
    return a


def _gf_bezout(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*a + t*b == 1 over GF(p), for coprime a and monic b: the
    monic extended Euclidean algorithm (vzGG Algorithm 3.14), which keeps
    s_i*a + t_i*b == r_i with every remainder r_i monic."""
    inv = pow(a[-1], -1, p)
    r0, s0, t0 = [c * inv % p for c in a], [inv], []
    r1, s1, t1 = b, [], [1]
    while len(r1) > 1:
        q, r = _divmod_monic(r0, r1, p)
        inv = pow(r[-1], -1, p)
        neg_q = [-c for c in q]
        s = _reduce([c * inv for c in zx_mul_acc(list(s0), neg_q, s1)], p)  # (s0 - q*s1) / lc(r)
        t = _reduce([c * inv for c in zx_mul_acc(list(t0), neg_q, t1)], p)
        r0, s0, t0, r1, s1, t1 = r1, s1, t1, _monic_mod(r, p), s, t
    return s1, t1


def _eval_mod(f: list[int], x: int, m: int) -> int:
    v = 0
    for c in reversed(f):
        v = (v * x + c) % m
    return v


def _derivative_mod(f: list[int], m: int) -> list[int]:
    return zx_trim([i * c % m for i, c in enumerate(f)][1:])


def _gf_roots(f: list[int], p: int) -> list[int]:
    """The roots of f in GF(p), by evaluating f at every element at once."""
    xs = range(p)
    vals = [f[-1]] * p
    for c in reversed(f[:-1]):
        vals = [(v * x + c) % p for v, x in zip(vals, xs)]
    return [x for x, v in zip(xs, vals) if not v]


def _divide_roots(f: list[int], roots: list[int], m: int) -> list[int]:
    """f / prod(X - r) modulo m by synthetic division, for roots r of f
    modulo m whose differences are units."""
    for r in roots:
        q = [0] * (len(f) - 1)
        acc = 0
        for i in range(len(f) - 1, 0, -1):
            acc = (acc * r + f[i]) % m
            q[i - 1] = acc
        f = q
    return f


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
        basis.append(zx_trim(v))
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
            vu = _divmod_monic(v, u, p)[1]
            if len(vu) < 2:  # v is constant modulo u: it separates none of u's factors
                split.append(u)
                continue
            for s in range(p):
                if len(u) < 2:
                    break
                w = list(vu)
                w[0] -= s
                g = _gf_gcd(u, _reduce(w, p), p)
                if len(g) > 1:
                    split.append(g)
                    u = _divmod_monic(u, g, p)[0]
        factors = split
    return factors


def _hensel_step(m, f, g, h, s, t, last):
    """Lift f == g*h (h monic) and s*g + t*h == 1 from modulus m to m^2:
    vzGG Algorithm 15.10.  On the last step s and t are not needed again and
    are returned as they were.  Products accumulate unreduced and each output
    is reduced once."""
    mm = m * m
    e = _reduce(zx_mul_acc(list(f), [-c for c in g], h), mm)  # f - g*h
    q, r = _divmod_monic(zx_mul_acc([], s, e), h, mm)
    g = _reduce(zx_mul_acc(zx_mul_acc(list(g), t, e), q, g), mm)  # g + t*e + q*g
    h = _reduce(zx_mul_acc(list(h), [1], r), mm)  # h + r
    if not last:
        b = _reduce(zx_mul_acc(zx_mul_acc([-1], s, g), t, h), mm)  # s*g + t*h - 1
        c, d = _divmod_monic(zx_mul_acc([], s, b), h, mm)
        s = _reduce(zx_mul_acc(list(s), [-1], d), mm)  # s - d
        t = _reduce(zx_mul_acc(zx_mul_acc(list(t), [-x for x in t], b), [-x for x in c], g), mm)  # t - t*b - c*g
    return g, h, s, t


def _hensel_tree(lead: int, factors: list[list[int]], p: int) -> Optional[tuple]:
    """The factor tree over GF(p) of lead times the product of the monic
    factors: None for a single factor, else the node (g, h, s, t, left,
    right) that splits them in halves, g = lead * prod(left half), h the
    monic rest and s*g + t*h == 1."""
    if len(factors) == 1:
        return None
    k = len(factors) // 2
    g = [lead]
    for u in factors[:k]:
        g = _mul_mod(g, u, p)
    h = [1]
    for u in factors[k:]:
        h = _mul_mod(h, u, p)
    s, t = _gf_bezout(g, h, p)
    return g, h, s, t, _hensel_tree(lead, factors[:k], p), _hensel_tree(1, factors[k:], p)


def _lift_tree(node: Optional[tuple], f: list[int], p: int, mod: int, out: list) -> None:
    """Append to out the monic lifts modulo mod, a power of p, of the
    factors below node, for f given modulo mod."""
    if node is None:
        out.append(_monic_mod(f, mod))
        return
    g, h, s, t, left, right = node
    m = p
    while m < mod:
        g, h, s, t = _hensel_step(m, f, g, h, s, t, m * m == mod)
        m *= m
    _lift_tree(left, g, p, mod, out)
    _lift_tree(right, h, p, mod, out)


def _lift(f: list[int], roots: list[int], tree: Optional[tuple], p: int, mod: int) -> list[list[int]]:
    """Monic lifts modulo mod, p squared some number of times, of the modular
    factors of f: the linear factors of the simple roots modulo p first, each
    root lifted by Newton's iteration x - f(x)/f'(x) (vzGG section 9.4)
    with the inverse of f'(x) lifted alongside, then the nonlinear factors
    down their Hensel tree, from f divided by the roots' linear factors."""
    df = [i * c for i, c in enumerate(f)][1:]
    xs = []
    for x in roots:
        s, m = pow(_eval_mod(df, x, p), -1, p), p
        while m < mod:
            m *= m
            x = (x - _eval_mod(f, x, m) * s) % m
            if m < mod:
                s = s * (2 - _eval_mod(df, x, m) * s) % m
        xs.append(x)
    lifted = [[-x % mod, 1] for x in xs]
    if len(xs) < len(f) - 1:  # some modular factors are nonlinear
        _lift_tree(tree, _divide_roots(_reduce(f, mod), xs, mod), p, mod, lifted)
    return lifted


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


class _Inconclusive(Exception):
    """A recombination test failed that the lifting precision cannot decide."""


def _conclusive(mod: int, d: int, norm_sq: int) -> bool:
    """Whether mod > 2 * B(d), for B(d) = C(d, d//2) * sqrt(norm_sq) and
    norm_sq the squared 2-norm of a polynomial that the cofactor divides:
    then a failed recombination test of total degree d proves that its
    subset gives no factor."""
    return mod * mod > 4 * math.comb(d, d // 2) ** 2 * norm_sq


def _recombine(f: list[int], lifted: list[list[int]], mod: int) -> Optional[list[list[int]]]:
    """Irreducible factors over Z of a squarefree primitive f with f(0) != 0,
    from the monic lifts modulo mod of its modular factors; None when a test
    failed that mod does not decide.

    A subset's candidate is lc(f_t) times the product of its lifts, in the
    symmetric range modulo mod (the leading-coefficient trick), for the
    cofactor f_t left so far.  An accepted candidate is proven by exact
    division.  A failed one proves nothing unless ``_conclusive`` for the
    least 2-norm of f and the cofactors so far, which all bound M(f_t),
    because a factor's candidate may exceed mod / 2.  The first failure that
    proves nothing ends the round: a later acceptance could be reducible."""
    half = mod // 2
    norm_sq = sum(c * c for c in f)
    found = []

    def split(subset: tuple) -> bool:
        nonlocal f, norm_sq
        lead = c0 = f[-1]
        for i in subset:
            c0 = c0 * lifted[i][0] % mod
        c0 = c0 - mod if c0 > half else c0
        if c0 and lead * f[0] % c0 == 0:  # else the constant term rules it out
            g = [lead]
            for i in subset:
                g = _mul_mod(g, lifted[i], mod)
            g = poly_primitive(Poly([c - mod if c > half else c for c in g]))[1].coeffs
            q = zx_exact_div_coeffs(f, g)
            if q is not None:
                found.append(g)
                f = q
                norm_sq = min(norm_sq, sum(c * c for c in q))
                return True
        if not _conclusive(mod, sum(len(lifted[i]) - 1 for i in subset), norm_sq):
            raise _Inconclusive
        return False

    try:
        _split_by_subsets(len(lifted), split)
    except _Inconclusive:
        return None
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
        g = poly_primitive(Poly([b - root, 2 * a]))[1].coeffs
        return [g, zx_exact_div_coeffs(f, g)]
    best = None
    good = 0
    for p in _small_primes():
        if f[-1] % p == 0:
            continue
        fp = _monic_mod([c % p for c in f], p)
        roots = _gf_roots(fp, p)
        slope = _derivative_mod(fp, p)
        if any(_eval_mod(slope, r, p) == 0 for r in roots):
            continue  # a repeated root
        rest = _divide_roots(fp, roots, p)
        # with simple roots, f mod p is squarefree exactly when rest is; and a
        # quadratic or cubic without roots is irreducible, so squarefree
        if len(rest) > 4 and len(_gf_gcd(rest, _derivative_mod(rest, p), p)) > 1:
            continue
        basis = [] if len(rest) == 1 else [[1]] if len(rest) <= 4 else _berlekamp_basis(rest, p)
        count = len(roots) + len(basis)
        if count == 1:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, roots, rest, basis)
        good += 1
        if good == _BERLEKAMP_PRIMES or count <= _FEW_MODULAR_FACTORS:
            break
    _, p, roots, rest, basis = best
    nonlinear = _berlekamp_split(rest, basis, p) if basis else []
    tree = _hensel_tree(f[-1] % p, nonlinear, p) if nonlinear else None
    # lift to the per-degree target; if the round is undecided, from p to 2 * B(n-1)
    norm_sq = sum(c * c for c in f)
    mod = p
    while not _conclusive(mod, max((len(u) - 1 for u in nonlinear), default=1), norm_sq):
        mod *= mod
    found = _recombine(f, _lift(f, roots, tree, p, mod), mod)
    if found is None:
        while not _conclusive(mod, n - 1, norm_sq):
            mod *= mod
        found = _recombine(f, _lift(f, roots, tree, p, mod), mod)
        if found is None:
            raise OracleViolationError("recombination undecided beyond 2 * B(n-1)")
    return found


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
    for q in _factor_squarefree(zx_exact_div_coeffs(f, g)):
        rest = zx_exact_div_coeffs(f, q)
        while rest is not None:
            out.append(q)
            f = rest
            rest = zx_exact_div_coeffs(f, q)
    return out


@contextmanager
def request_memo():
    """Share the answers of the four direct engines ``factor_integer``,
    ``kronecker_factor``, ``factor_poly_zx`` and ``factor_bivariate`` for the
    duration of one request.  Each runs through ``_memoized``, which keys an
    answer on the canonical associate of its input, so associates share it,
    and stores only an answer that passes its checks.

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
    """Hide the open memo, so every engine answer is recomputed."""
    token = _REQUEST_MEMO.set(None)
    try:
        yield
    finally:
        _REQUEST_MEMO.reset(token)


def kronecker_factor(p: Poly) -> PrimeFactorization:
    """Factor a primitive integer polynomial into canonical irreducibles.

    The engine is Zassenhaus's: squarefree part; modulo a small prime, the
    roots by evaluation and Berlekamp on the rest; the roots lifted by
    Newton's iteration and the other modular factors down a Hensel tree; and
    exhaustive recombination of the lifted factors, so a factor is emitted
    only when no subset of its modular factors yields a proper divisor.  The
    lift goes only as far as the recombination tests need: a failed test of
    total degree d counts once the modulus exceeds 2 * C(d, d//2) * |f|_2,
    which bounds every candidate of degree d by Mignotte's and Landau's
    inequalities.  The lift goes to the first modulus that decides every
    single modular factor; if the round is undecided, from p to the bound of
    degree n - 1.  The divisor search this entry point is named after is
    ``selftest.kronecker_reference``, the independent engine it is checked
    against.  Inside ``request_memo`` each input is factored once up to sign.
    """
    return _memoized("kronecker_factor", ZX, _kronecker_factor_uncached, p)


def _memoized(engine: str, ring: Ring, compute: Callable, p: Element) -> PrimeFactorization:
    """The direct engine named ``engine``: zero is refused, p = unit * normal
    by ``ring.canonical_associate``, and the body ``compute(normal)`` returns
    normal's factors, none a unit, whose product must be normal.  Inside
    ``request_memo`` the answer is shared under (engine, normal), so
    associates share one run; one that raises or fails a check is not kept."""
    if ring.is_zero(p):
        raise MathDomainError("cannot factor zero")
    unit, normal = ring.canonical_associate(p)
    memo = _REQUEST_MEMO.get()
    key = (engine, normal)
    pf = None if memo is None else memo.get(key)
    if pf is None:
        pf = PrimeFactorization.of(ring, ring.one, compute(normal))
        if any(ring.is_unit(q) for q in pf.factors):
            raise OracleViolationError(f"{engine} returned a unit factor")
        if pf.value(ring) != normal:
            raise OracleViolationError(f"{engine} reconstruction failed")
        if memo is not None:
            memo[key] = pf
    return PrimeFactorization(unit, pf.factors)


def _kronecker_factor_uncached(p: Poly) -> list:
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
    return [] if len(p.coeffs) == 1 else [Poly(q) for q in _zassenhaus(list(p.coeffs))]


# ---------------------------------------------------------------------------
# full engines for Z[X] and Z[X][Y]

def factor_poly_zx(p: Poly) -> PrimeFactorization:
    """Factor over Z[X]: integer primes of the content as constant factors,
    ``kronecker_factor`` irreducibles for the primitive part.  Inside
    ``request_memo`` each input is factored once up to sign."""
    return _memoized("factor_poly_zx", ZX, _factor_poly_zx_uncached, p)


def _factor_poly_zx_uncached(p: Poly) -> list:
    c, prim = poly_primitive(p)
    kf = kronecker_factor(prim)  # first: its caps refuse before rho runs on c
    return [ZX.constant(q) for q in factor_integer(c).factors] + list(kf.factors)


def substitution_chunk(deg_x: int) -> int:
    """The D of the substitution Y -> X^D for a primitive part of X-degree
    deg_x; Y^j * X^i goes to X^(j*D + i)."""
    return 2 * deg_x + 1


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
    unpack to the cofactor, as ``_split_by_subsets`` needs.  Inside
    ``request_memo`` each input is factored once up to sign.
    """
    return _memoized("factor_bivariate", ZXY, _factor_bivariate_uncached, f)


def _factor_bivariate_uncached(f: Poly) -> list:
    deg_y = len(f.coeffs) - 1
    deg_x = zxy_x_degree(f)
    if deg_y > BIVARIATE_DEGREE_CAP or deg_x > BIVARIATE_DEGREE_CAP:
        raise DeskScaleError(
            f"desk-scale limit: degrees ({deg_x}, {deg_y}) exceed cap {BIVARIATE_DEGREE_CAP}"
        )
    cont, pp = zxy_primitive(f)
    factors = []
    if len(pp.coeffs) > 1:
        chunk = substitution_chunk(zxy_x_degree(pp))
        image = _pack(pp, chunk)
        if len(image.coeffs) - 1 > KRONECKER_DEGREE_CAP:
            raise DeskScaleError(
                "desk-scale limit: substitution image degree "
                f"{len(image.coeffs) - 1} exceeds the univariate cap {KRONECKER_DEGREE_CAP}"
            )
        # pp is canonical, as f is and the content's leading coefficient is
        # positive; so is every image factor, and so every candidate below
        base = factor_poly_zx(image).factors
        target = pp

        def split(subset: tuple) -> bool:
            nonlocal target
            cand = _unpack(ZX.prod(base[i] for i in subset), chunk)
            q = ZXY.exact_div(target, cand)
            if q is None:
                return False
            factors.append(cand)
            target = q
            return True

        _split_by_subsets(len(base), split)
        factors.append(target)
    # after the image: its caps refuse before rho runs on the content
    return factors + [ZXY.constant(q) for q in factor_poly_zx(cont).factors]


# ---------------------------------------------------------------------------
# the route table, and irreducibility by the direct engines

class Route(NamedTuple):  # a descent route
    choice: str  # the ``--route`` choice that selects it
    printed: str  # the route it prints
    function: str  # the ``routes`` function that runs it


class RingRoutes(NamedTuple):
    """What ``factor`` and ``compare`` offer on one ring.  Engines and routes
    are named, and looked up when a request runs: a direct request loads no
    descent module, and a wrapper bound over a name is seen.  A ring without
    a direct engine answers ``direct`` with its ``auto`` route."""

    direct: Optional[str]  # the ring's direct engine, a function of this module
    descents: tuple  # its descent routes, in the order ``compare`` runs them
    auto: str  # the choice ``--route auto`` takes
    noun: str  # what the refusal of a route calls the input


ROUTE_TABLE = {  # keyed by ``Ring.name``
    ZZ.name: RingRoutes("factor_integer", (), "direct", "integers"),
    ZX.name: RingRoutes("factor_poly_zx", (Route("laurent", "laurent", "factor_zx_via_laurent"),
                                           Route("fracfield", "fracfield", "factor_zx_via_fraction_field")),
                        "fracfield", "Z[X] input"),
    ZXY.name: RingRoutes("factor_bivariate", (Route("fracfield", "iterated", "factor_iterated"),),
                         "fracfield", "bivariate input"),
    "Z[T,T^-1]": RingRoutes(None, (Route("laurent", "laurent", "factor_laurent"),), "laurent", "Laurent input"),
}


def direct_engine(ring: Ring) -> Optional[Callable]:
    """The direct engine that ``ROUTE_TABLE`` names for ``ring``, looked up
    here when called; None for a ring without one."""
    row = ROUTE_TABLE.get(ring.name)
    return globals()[row.direct] if row and row.direct else None


def is_irreducible(ring: Ring, a: Element) -> bool:
    """Decided by full factorization: nonzero, non-unit, exactly one factor.
    Inside ``request_memo`` the factorization comes from the memo."""
    if ring.is_zero(a) or ring.is_unit(a):
        return False
    engine = direct_engine(ring)
    if engine is None:
        raise MathDomainError(f"no irreducibility oracle for {ring.name}")
    return len(engine(a).factors) == 1


def check_factorization_unique(ring: Ring, f1: PrimeFactorization, f2: PrimeFactorization) -> bool:
    """Whether the factorizations agree: the same element, and factor
    multisets equal up to associates.  Every caller compares with an
    engine's answer, so factors are not tested for irreducibility: one that
    should split is a mismatched multiset."""
    for fz in (f1, f2):
        if not ring.is_unit(fz.unit):
            raise PreconditionError("factorization unit slot is not a unit")
        for q in fz.factors:
            if ring.is_zero(q) or ring.is_unit(q):
                raise PreconditionError("not a factorization into irreducibles")
    if len(f1.factors) != len(f2.factors):
        return False
    # Each side as u * prod(normals), the unit of every factor's canonical
    # associate folded into u.  Canonical associates are unique per class and
    # sort_key is injective on them; with equal normals, whose product is
    # nonzero, the values are equal exactly when the units are.
    forms = []
    for fz in (f1, f2):
        unit, normals = fz.unit, []
        for q in fz.factors:
            u, n = ring.canonical_associate(q)
            unit = ring.mul(unit, u)
            normals.append(n)
        normals.sort(key=ring.sort_key)
        forms.append((unit, normals))
    (u1, norm1), (u2, norm2) = forms
    return all(ring.eq(a, b) for a, b in zip(norm1, norm2)) and ring.eq(u1, u2)
