"""Seeded randomized property suites.

Each suite checks one family of invariants on randomly generated elements.
Suites are deterministic given (seed, trials): every suite derives its own
RNG from the seed and its name, and results are reported in suite-name order.
The pytest suite drives the same functions; the CLI exposes them through
``locfactor selftest``.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

from . import expr
from .basefactor import (
    BIVARIATE_DEGREE_CAP,
    KRONECKER_DEGREE_CAP,
    PrimeFactorization,
    check_factorization_unique,
    factor_bivariate,
    factor_integer,
    factor_poly_zx,
    is_irreducible,
    kronecker_factor,
    substitution_chunk,
)
from .descent import BaseEngineOracle, certify_prime, descend_factor
from .errors import LocFactorError, PreconditionError
from .localization import (
    LT,
    GeneratedSubmonoid,
    avoids,
    clear_denominator,
    embed,
    find_associate_generator,
    frac_add,
    frac_eq,
    frac_is_unit,
    frac_mul,
    lift_dvd,
    split_prime_factors,
    transfer_prime_divides,
    witness_multiset,
)
from .rings import ZX, ZXY, ZZ, Poly, poly_content, poly_primitive, zxy_x_degree
from .routes import (
    ConstantPrimesOracle,
    compare_routes,
    factor_laurent,
    factor_zx_via_fraction_field,
)


class SelfTestFailure(LocFactorError):
    pass


# ---------------------------------------------------------------------------
# random element generation

def rand_int(rng, bound=1000, nonzero=False):
    while True:
        n = rng.randint(-bound, bound)
        if n or not nonzero:
            return n


def rand_zx(rng, max_deg=4, bound=9, nonzero=False):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-bound, bound) for _ in range(deg + 1)]
    p = ZX.make(coeffs)
    if nonzero and ZX.is_zero(p):
        return rand_zx(rng, max_deg, bound, nonzero)
    return p


def rand_laurent(rng, nonzero=False):
    low = rng.randint(-3, 3)
    p = LT.fraction((low,), ZX.make([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]))
    if nonzero and LT.is_zero(p):
        return rand_laurent(rng, nonzero)
    return p


def _bivariate_feasible(f) -> bool:
    # the substitution image, of degree up to n_y*D + n_x, must stay inside
    # the univariate engine's degree cap
    if ZXY.is_zero(f):
        return False
    ny = len(f.coeffs) - 1
    nx = zxy_x_degree(f)
    return (
        ny <= BIVARIATE_DEGREE_CAP
        and nx <= BIVARIATE_DEGREE_CAP
        and ny * substitution_chunk(nx) + nx <= KRONECKER_DEGREE_CAP
    )


def rand_bivariate(rng, nonzero=False):
    shapes = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1), (1, 0), (2, 0), (0, 0)]
    nx, ny = rng.choice(shapes)
    coeffs = []
    for _ in range(ny + 1):
        coeffs.append(ZX.make([rng.randint(-5, 5) for _ in range(nx + 1)]))
    f = ZXY.make(coeffs)
    if nonzero and ZXY.is_zero(f):
        return rand_bivariate(rng, nonzero)
    return f


def rand_bivariate_feasible(rng):
    """Nonzero bivariate element, sometimes a product of two smaller ones,
    kept inside both the degree caps and the substitution envelope."""
    while True:
        f = rand_bivariate(rng, nonzero=True)
        if rng.random() < 0.5:
            g = rand_bivariate(rng, nonzero=True)
            fg = ZXY.mul(f, g)
            if _bivariate_feasible(fg):
                return fg
        if _bivariate_feasible(f):
            return f


def rand_elem(rng, ring, nonzero=False):
    if ring == ZZ:
        return rand_int(rng, 1000, nonzero)
    if ring == ZX:
        return rand_zx(rng, nonzero=nonzero)
    if ring == LT:
        return rand_laurent(rng, nonzero)
    if ring == ZXY:
        return rand_bivariate(rng, nonzero)
    raise SelfTestFailure(f"no generator for {ring.name}")


def rand_unit(rng, ring):
    if ring == ZZ or ring == ZX or ring == ZXY:
        return ring.from_int(rng.choice((1, -1)))
    if ring == LT:
        return LT.fraction((rng.randint(-2, 2),), ZX.from_int(rng.choice((1, -1))))
    raise SelfTestFailure(f"no unit generator for {ring.name}")


_INT_PRIMES = (2, 3, 5, 7, 11, 13)
_ZX_PRIMES_COEFFS = ([0, 1], [1, 1], [-1, 1], [1, 0, 1], [3, 2], [2], [3], [1, 1, 1])


def rand_submonoid_z(rng):
    gens = rng.sample(_INT_PRIMES, rng.randint(1, 3))
    return GeneratedSubmonoid(ZZ, gens)


def rand_irreducible_z(rng):
    return rng.choice((1, -1)) * rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23))


def brute_force_avoids(S, p, max_exp_sum=8):
    """Enumerate all submonoid members with bounded exponent sum and test
    divisibility directly; the independent check for the associate scan."""
    ring = S.ring
    k = len(S.generators)

    def enum(i, budget, value):
        if ring.exact_div(value, p) is not None:
            return False
        if i == k:
            return True
        for e in range(budget + 1):
            if not enum(i + 1, budget - e, ring.mul(value, ring.pow(S.generators[i], e))):
                return False
        return True

    return enum(0, max_exp_sum, ring.one)


# ---------------------------------------------------------------------------
# reference engine: Kronecker's divisor search
#
# Exhaustive and exponential in the degree, so it runs only here, at small
# degree, as an engine independent of the Zassenhaus factorizer behind
# ``kronecker_factor``.

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
            cand, basis = ZX.zero, ZX.one
            for j in range(d + 1):
                if cs[j]:
                    cand = ZX.add(cand, ZX.mul(ZX.constant(cs[j]), basis))
                if j < d:
                    basis = ZX.mul(basis, ZX.make([-pts[j], 1]))
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


def kronecker_reference(p: Poly) -> PrimeFactorization:
    """Factor a primitive integer polynomial by Kronecker's divisor search;
    every emitted factor is certified irreducible by exhausting all candidate
    divisors of up to half its degree."""
    unit, work = ZX.canonical_associate(p)
    todo, out = [work], []
    while todo:
        g = todo.pop()
        if len(g.coeffs) == 1:
            continue  # canonical primitive constant is 1
        f = _find_proper_factor(g)
        if f is None:
            out.append(g)
        else:
            todo += [f, ZX.exact_div(g, f)]
    return PrimeFactorization.of(ZX, unit, out)


# ---------------------------------------------------------------------------
# suites

_AXIOM_RINGS = (ZZ, ZX, LT, ZXY)


def suite_rings_axioms(rng, trials):
    for _ in range(trials):
        ring = rng.choice(_AXIOM_RINGS)
        a, b, c = (rand_elem(rng, ring) for _ in range(3))
        if not ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c))):
            raise SelfTestFailure(f"{ring.name}: addition is not associative")
        if not ring.eq(ring.add(a, b), ring.add(b, a)):
            raise SelfTestFailure(f"{ring.name}: addition is not commutative")
        if not ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c))):
            raise SelfTestFailure(f"{ring.name}: multiplication is not associative")
        if not ring.eq(ring.mul(a, b), ring.mul(b, a)):
            raise SelfTestFailure(f"{ring.name}: multiplication is not commutative")
        lhs = ring.mul(a, ring.add(b, c))
        rhs = ring.add(ring.mul(a, b), ring.mul(a, c))
        if not ring.eq(lhs, rhs):
            raise SelfTestFailure(f"{ring.name}: distributivity fails")
        if not ring.eq(ring.add(a, ring.zero), a) or not ring.eq(ring.mul(a, ring.one), a):
            raise SelfTestFailure(f"{ring.name}: identity laws fail")
        if not ring.is_zero(ring.add(a, ring.neg(a))):
            raise SelfTestFailure(f"{ring.name}: additive inverse fails")


def suite_rings_domain_law(rng, trials):
    for _ in range(trials):
        ring = rng.choice(_AXIOM_RINGS)
        a = rand_elem(rng, ring, nonzero=True)
        b = rand_elem(rng, ring, nonzero=True)
        if ring.is_zero(ring.mul(a, b)):
            raise SelfTestFailure(f"{ring.name}: zero divisors found")


def suite_rings_exact_div(rng, trials):
    for _ in range(trials):
        ring = rng.choice(_AXIOM_RINGS)
        a = rand_elem(rng, ring)
        b = rand_elem(rng, ring, nonzero=True)
        q = ring.exact_div(ring.mul(a, b), b)
        if q is None or not ring.eq(ring.mul(b, q), ring.mul(a, b)):
            raise SelfTestFailure(f"{ring.name}: exact_div misses a constructed quotient")
        d = ring.exact_div(a, b)
        if d is not None and not ring.eq(ring.mul(b, d), a):
            raise SelfTestFailure(f"{ring.name}: exact_div returned a wrong quotient")
    # completeness against brute-force divisor search on small integers
    for a in range(-30, 31):
        for b in list(range(-12, 0)) + list(range(1, 13)):
            got = ZZ.exact_div(a, b)
            want = next((q for q in range(-60, 61) if b * q == a), None)
            if (got is None) != (want is None):
                raise SelfTestFailure("Z: exact_div disagrees with brute force")


def suite_rings_canonical(rng, trials):
    for _ in range(trials):
        ring = rng.choice(_AXIOM_RINGS)
        a = rand_elem(rng, ring)
        u, n = ring.canonical_associate(a)
        if not ring.eq(ring.mul(u, n), a) or not ring.is_unit(u):
            raise SelfTestFailure(f"{ring.name}: canonical split does not reconstruct")
        u2, n2 = ring.canonical_associate(n)
        if not ring.eq(n2, n) or not ring.eq(u2, ring.one):
            raise SelfTestFailure(f"{ring.name}: canonical form is not idempotent")
        v = rand_unit(rng, ring)
        _, n3 = ring.canonical_associate(ring.mul(v, a))
        if not ring.eq(n3, n):
            raise SelfTestFailure(f"{ring.name}: associates have different canonical forms")
        if ring == LT:
            exps, r = LT.normal_form(a)
            if not LT.eq(LT.fraction(exps, r), a) or (r.coeffs and not r.coeffs[0]):
                raise SelfTestFailure(f"{ring.name}: normal form does not round-trip")


_BASE_CASES = ("int", "zx", "laurent", "bivariate")


def suite_base_reconstruction(rng, trials):
    for _ in range(trials):
        kind = rng.choice(_BASE_CASES)
        if kind == "int":
            n = rand_int(rng, 10**6, nonzero=True)
            pf = factor_integer(n)
            if pf.unit * math.prod(pf.factors) != n:
                raise SelfTestFailure("factor_integer does not reconstruct")
        elif kind == "zx":
            p = rand_zx(rng, nonzero=True)
            pf = factor_poly_zx(p)
            if not ZX.eq(pf.value(ZX), p):
                raise SelfTestFailure("factor_poly_zx does not reconstruct")
        elif kind == "laurent":
            f = rand_laurent(rng, nonzero=True)
            pf = factor_laurent(f).factorization
            if not LT.eq(pf.value(LT), f):
                raise SelfTestFailure("factor_laurent does not reconstruct")
        else:
            f = rand_bivariate_feasible(rng)
            pf = factor_bivariate(f)
            if not ZXY.eq(pf.value(ZXY), f):
                raise SelfTestFailure("factor_bivariate does not reconstruct")


def suite_base_irreducible_refeed(rng, trials):
    for _ in range(trials):
        p = rand_zx(rng, nonzero=True)
        for q in factor_poly_zx(p).factors:
            if len(factor_poly_zx(q).factors) != 1:
                raise SelfTestFailure("a produced factor is not irreducible")


def suite_base_unique_shuffle(rng, trials):
    for _ in range(trials):
        if rng.random() < 0.5:
            ring = ZZ
            pf = factor_integer(rand_int(rng, 10**5, nonzero=True))
        else:
            ring = ZX
            pf = factor_poly_zx(rand_zx(rng, nonzero=True))
        factors = list(pf.factors)
        rng.shuffle(factors)
        unit = pf.unit
        perturbed = []
        for q in factors:
            u = rand_unit(rng, ring)
            perturbed.append(ring.mul(u, q))
            unit = ring.mul(unit, ring.unit_inverse(u))
        other = PrimeFactorization(unit, tuple(perturbed))
        if not check_factorization_unique(ring, pf, other):
            raise SelfTestFailure("uniqueness bijection not found after shuffle")


def suite_base_gauss_content(rng, trials):
    for _ in range(trials):
        a = rand_zx(rng, nonzero=True)
        b = rand_zx(rng, nonzero=True)
        if poly_content(ZX.mul(a, b)) != poly_content(a) * poly_content(b):
            raise SelfTestFailure("content is not multiplicative")


def suite_base_engine_reference(rng, trials):
    """The engine against the Kronecker reference on primitive products of
    one to three random factors, degree at most 8: single factors are mostly
    irreducible, products reducible."""
    for _ in range(trials):
        count = rng.randint(1, 3)
        p = ZX.prod(rand_zx(rng, 8 // count, 5, nonzero=True) for _ in range(count))
        if len(p.coeffs) < 2:
            continue
        _, p = poly_primitive(p)
        if kronecker_factor(p) != kronecker_reference(p):
            raise SelfTestFailure(
                f"engine and Kronecker reference factor {expr.render(ZX, p)} differently"
            )


def _sample_submonoids(rng):
    which = rng.random()
    if which < 0.5:
        return rand_submonoid_z(rng), ZZ
    return LT.S, ZX


def suite_loc_embed_hom(rng, trials):
    for _ in range(trials):
        S, ring = _sample_submonoids(rng)
        a = rand_elem(rng, ring)
        b = rand_elem(rng, ring)
        if not frac_eq(embed(ring.add(a, b), S), frac_add(embed(a, S), embed(b, S))):
            raise SelfTestFailure("embed does not respect addition")
        if not frac_eq(embed(ring.mul(a, b), S), frac_mul(embed(a, S), embed(b, S))):
            raise SelfTestFailure("embed does not respect multiplication")
        if frac_eq(embed(a, S), embed(b, S)) != ring.eq(a, b):
            raise SelfTestFailure("embed is not injective")


def suite_loc_generator_units(rng, trials):
    for _ in range(trials):
        S, _ = _sample_submonoids(rng)
        for g in S.generators:
            if not frac_is_unit(embed(g, S)):
                raise SelfTestFailure("a generator's image is not a unit")


def suite_loc_avoids_bruteforce(rng, trials):
    for _ in range(trials):
        S = rand_submonoid_z(rng)
        p = rand_irreducible_z(rng)
        if avoids(S, p) != brute_force_avoids(S, p):
            raise SelfTestFailure(f"avoids disagrees with brute force on {p} vs {S.generators}")


def _transfer_instance(rng):
    """Random valid (S, f, p, a, c) with prod(f)*a == p*c over Z or Z[X]."""
    if rng.random() < 0.5:
        S = rand_submonoid_z(rng)
        ring = ZZ
        while True:
            p = rand_irreducible_z(rng)
            if avoids(S, p):
                break
        d = rand_int(rng, 50, nonzero=True)
    else:
        S = LT.S
        ring = ZX
        while True:
            p = rng.choice([ZX.make(c) for c in ([1, 1], [-1, 1], [1, 0, 1], [3, 2], [2], [5])])
            if avoids(S, p):
                break
        d = rand_zx(rng, 2, 5, nonzero=True)
    exps = tuple(rng.randint(0, 2) for _ in S.generators)
    s = S.member(exps)
    a = ring.mul(p, d)
    c = ring.mul(s.value, d)
    return S, ring, s, p, a, c, d


def suite_loc_clear_denominator(rng, trials):
    for _ in range(trials):
        S, ring, s, p, a, c, d = _transfer_instance(rng)
        f = witness_multiset(s)
        got = clear_denominator(ring, f, p, a, c)
        if not ring.eq(ring.mul(p, got), a):
            raise SelfTestFailure("clear_denominator quotient does not verify")
        got2 = lift_dvd(p, a, s, c)
        if not ring.eq(got2, got):
            raise SelfTestFailure("lift_dvd disagrees with clear_denominator")


def suite_loc_split_conservation(rng, trials):
    for _ in range(trials):
        S, ring, s, p, a0, c, d = _transfer_instance(rng)
        f = list(witness_multiset(s))
        rng.shuffle(f)
        cut = rng.randint(0, len(f))
        a = ring.mul(p, ring.prod(f[:cut]))
        b = ring.prod(f[cut:])
        a2, b2, fa, fb = split_prime_factors(ring, p, tuple(f), a, b)
        if not ring.eq(ring.mul(a2, ring.prod(fa)), a):
            raise SelfTestFailure("split: left side not conserved")
        if not ring.eq(ring.mul(b2, ring.prod(fb)), b):
            raise SelfTestFailure("split: right side not conserved")
        if not ring.eq(ring.mul(a2, b2), p):
            raise SelfTestFailure("split: core product is not p")
        if sorted(fa + fb, key=ring.sort_key) != sorted(f, key=ring.sort_key):
            raise SelfTestFailure("split: multiset not conserved")


def _divides_instance(rng):
    """Ring, submonoid, prime and oracle of one transfer_prime_divides trial:
    the base engine's oracle over two to four primes of Z or Z[X], or the
    constant-primes oracle over one to three constant primes of Z[X] or
    Z[X][Y], with a prime outside the submonoid, constant or not."""
    kind = rng.randrange(4)
    if kind < 2:
        if kind == 0:
            ring, engine, primes = ZZ, factor_integer, _INT_PRIMES
        else:
            ring, engine = ZX, factor_poly_zx
            primes = tuple(ZX.make(c) for c in _ZX_PRIMES_COEFFS)
        chosen = rng.sample(primes, rng.randint(3, 5))
        S = GeneratedSubmonoid(ring, chosen[1:])
        return ring, S, chosen[0], BaseEngineOracle(S, engine)
    if kind == 2:
        ring, name, engine = ZX, "Q[X] factorization", factor_poly_zx
        constants = [ZX.constant(q) for q in _INT_PRIMES]
        others = [ZX.make(c) for c in _ZX_PRIMES_COEFFS]
    else:
        ring, name, engine = ZXY, "Frac(Z[X])[Y] factorization", factor_bivariate
        constants = [expr.parse_in_ring(t, ZXY) for t in ("X", "X+1", "2", "3")]
        others = [expr.parse_in_ring(t, ZXY) for t in ("Y", "Y+X", "X*Y+1", "Y^2+X", "2*Y+X")]
    gens = rng.sample(constants, rng.randint(1, 3))
    p = rng.choice([q for q in constants + others if q not in gens])
    S = GeneratedSubmonoid(ring, gens)
    return ring, S, p, ConstantPrimesOracle(S, name, engine)


def suite_loc_transfer_prime_divides(rng, trials):
    """transfer_prime_divides against exact division in the base ring."""
    for _ in range(trials):
        ring, S, p, oracle = _divides_instance(rng)
        p = ring.mul(rand_unit(rng, ring), p)

        def cofactor():
            s = S.member(tuple(rng.randint(0, 2) for _ in S.generators))
            return ring.mul(rand_elem(rng, ring, nonzero=True), s.value)

        a, b = ring.mul(p, cofactor()), cofactor()
        if rng.random() < 0.5:
            a, b = b, a
        side, d = transfer_prime_divides(p, a, b, oracle)
        if side == "right" and ring.exact_div(a, p) is not None:
            raise SelfTestFailure("transfer_prime_divides passed over a left side that p divides")
        exact = ring.exact_div(a if side == "left" else b, p)
        if exact is None or not ring.eq(d, exact):
            raise SelfTestFailure("transfer_prime_divides quotient differs from exact division")


def suite_loc_zero_exclusion(rng, trials):
    for _ in range(trials):
        S, ring = _sample_submonoids(rng)
        member = S.member(tuple(rng.randint(0, 4) for _ in S.generators))
        if ring.is_zero(member.value):
            raise SelfTestFailure("submonoid member with value zero")
    try:
        GeneratedSubmonoid(ZZ, [4])
        raise SelfTestFailure("non-prime generator accepted")
    except PreconditionError:
        pass


def suite_descent_reconstruction(rng, trials):
    for _ in range(trials):
        S = rand_submonoid_z(rng)
        oracle = BaseEngineOracle(S, factor_integer)
        a = rand_int(rng, 10**5, nonzero=True)
        res = descend_factor(a, oracle)
        if res.factorization.value(ZZ) != a:
            raise SelfTestFailure("descent does not reconstruct")
        for cert in res.certificates:
            if not cert.replay():
                raise SelfTestFailure("certificate replay failed")


def suite_descent_oracle_agreement(rng, trials):
    for _ in range(trials):
        p = rand_zx(rng, nonzero=True)
        res = factor_zx_via_fraction_field(p)
        if not check_factorization_unique(ZX, res.factorization, factor_poly_zx(p)):
            raise SelfTestFailure("fraction-field descent disagrees with the direct engine")


def suite_descent_dichotomy(rng, trials):
    for _ in range(trials):
        S = rand_submonoid_z(rng)
        p = rand_irreducible_z(rng)
        case1 = find_associate_generator(S, p) is not None
        case2 = brute_force_avoids(S, p)
        if case1 == case2:
            raise SelfTestFailure("case split is not a dichotomy")
        oracle = BaseEngineOracle(S, factor_integer)
        cert = certify_prime(p, oracle)
        if cert.case != ("generator" if case1 else "localization"):
            raise SelfTestFailure("certificate case does not match the dichotomy")
        if not cert.replay():
            raise SelfTestFailure("certificate replay failed")


def suite_routes_agreement(rng, trials):
    for _ in range(trials):
        compare_routes(rand_zx(rng, nonzero=True))


def suite_routes_laurent_units(rng, trials):
    for _ in range(trials):
        f = rand_laurent(rng, nonzero=True)
        pf = factor_laurent(f).factorization
        if LT.normal_form(pf.unit)[1].coeffs not in ((1,), (-1,)):
            raise SelfTestFailure("laurent unit is not +-T^k")
        if not LT.eq(pf.value(LT), f):
            raise SelfTestFailure("laurent factorization does not reconstruct")
        for l in pf.factors:
            if LT.canonical_associate(l)[1] != l:
                raise SelfTestFailure("laurent factor is not in canonical form")
            if ZX.exact_div(ZX.gen, l.num) is not None:
                raise SelfTestFailure("laurent factor divides T")


def suite_routes_iterated(rng, trials):
    from .routes import factor_iterated

    for _ in range(trials):
        f = rand_bivariate_feasible(rng)
        res = factor_iterated(f)
        if not ZXY.eq(res.factorization.value(ZXY), f):
            raise SelfTestFailure("iterated factorization does not reconstruct")
        for q in res.factorization.factors:
            if not is_irreducible(ZXY, q):
                raise SelfTestFailure("iterated factor is not irreducible")


def suite_parser_roundtrip(rng, trials):
    for _ in range(trials):
        ring = rng.choice((ZZ, ZX, LT, ZXY))
        e = rand_elem(rng, ring)
        text = expr.render(ring, e)
        # constants render identically in every ring, so parse back into the
        # ring the element came from
        e2 = expr.parse_in_ring(text, ring)
        if not ring.eq(e2, e):
            raise SelfTestFailure(f"render/parse round trip failed on {text!r}")
        ring3, e3 = expr.parse_expr(text)
        if ring3 == ring and not ring.eq(e3, e):
            raise SelfTestFailure(f"inferred-ring parse changed the element: {text!r}")


SUITES = {
    "base_engine_reference": suite_base_engine_reference,
    "base_gauss_content": suite_base_gauss_content,
    "base_irreducible_refeed": suite_base_irreducible_refeed,
    "base_reconstruction": suite_base_reconstruction,
    "base_unique_shuffle": suite_base_unique_shuffle,
    "descent_dichotomy": suite_descent_dichotomy,
    "descent_oracle_agreement": suite_descent_oracle_agreement,
    "descent_reconstruction": suite_descent_reconstruction,
    "loc_avoids_bruteforce": suite_loc_avoids_bruteforce,
    "loc_clear_denominator": suite_loc_clear_denominator,
    "loc_embed_hom": suite_loc_embed_hom,
    "loc_generator_units": suite_loc_generator_units,
    "loc_split_conservation": suite_loc_split_conservation,
    "loc_transfer_prime_divides": suite_loc_transfer_prime_divides,
    "loc_zero_exclusion": suite_loc_zero_exclusion,
    "parser_roundtrip": suite_parser_roundtrip,
    "rings_axioms": suite_rings_axioms,
    "rings_canonical": suite_rings_canonical,
    "rings_domain_law": suite_rings_domain_law,
    "rings_exact_div": suite_rings_exact_div,
    "routes_agreement": suite_routes_agreement,
    "routes_iterated": suite_routes_iterated,
    "routes_laurent_units": suite_routes_laurent_units,
}

class SelfTestReport(NamedTuple):
    ok: bool
    lines: tuple


def run_selftest(seed: int = 42, trials: int = 100) -> SelfTestReport:
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    lines = []
    ok = True
    for name in sorted(SUITES):
        rng = random.Random(f"{seed}:{name}")
        try:
            SUITES[name](rng, trials)
            lines.append(f"{name}: ok ({trials} trials)")
        except SelfTestFailure as e:
            ok = False
            lines.append(f"{name}: FAIL - {e}")
        except LocFactorError as e:
            ok = False
            lines.append(f"{name}: FAIL - {type(e).__name__}: {e}")
    return SelfTestReport(ok, tuple(lines))
