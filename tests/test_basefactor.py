"""Base engine tests: frozen expectations verified by independent oracles
(brute-force trial division, exhaustive divisor search, naive expansion)."""

import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from locfactor import basefactor
from locfactor.basefactor import (
    MILLER_RABIN_EXACT_BOUND,
    PrimeFactorization,
    _berlekamp_basis,
    _berlekamp_split,
    _conclusive,
    _divide_roots,
    _gf_gcd,
    _gf_roots,
    _hensel_tree,
    _lift,
    _monic_mod,
    _small_primes,
    check_factorization_unique,
    factor_bivariate,
    factor_integer,
    factor_poly_zx,
    is_irreducible,
    kronecker_factor,
)
from locfactor.errors import DeskScaleError, MathDomainError, PreconditionError
from locfactor.expr import parse_in_ring
from locfactor.localization import LT
from locfactor.rings import ZX, ZXY, ZZ, PolynomialRing, poly_content, poly_primitive
from locfactor.selftest import kronecker_reference, rand_zx


def brute_factor(n):
    """Independent smallest-divisor factorization."""
    out, m = [], abs(n)
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def expand(pf, ring):
    return pf.value(ring)


class TestFactorInteger:
    def test_examples(self):
        assert factor_integer(12) == PrimeFactorization(1, (2, 2, 3))
        assert factor_integer(12).factors == tuple(brute_factor(12))
        assert factor_integer(-8) == PrimeFactorization(-1, (2, 2, 2))
        assert factor_integer(-8).factors == tuple(brute_factor(-8))
        assert factor_integer(1) == PrimeFactorization(1, ())
        assert factor_integer(-1) == PrimeFactorization(-1, ())

    def test_zero(self):
        with pytest.raises(MathDomainError):
            factor_integer(0)

    def test_sieve_primes(self):
        primes = _small_primes()
        assert len(primes) == 1229 and primes[-1] == 9973
        assert primes == [n for n in range(2, 10001) if all(n % d for d in range(2, math.isqrt(n) + 1))]

    def test_random_against_brute(self):
        rng = random.Random("basefactor-int")
        for _ in range(50):
            n = rng.randint(2, 5000) * rng.choice((1, -1))
            assert list(factor_integer(n).factors) == brute_factor(n)
        for _ in range(30):
            n = rng.randint(2, 10**12) * rng.choice((1, -1))
            assert list(factor_integer(n).factors) == brute_factor(n)

    def test_hard_values_against_brute(self):
        # prime powers above the sieve limit, then strong pseudoprimes to
        # every prime base up to some bound
        for n in (10007**2, 10007**3, 999983**2 * 1000003, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051):
            assert list(factor_integer(n).factors) == brute_factor(n)
        # the smallest that passes bases 2..37; base 41 exposes it
        assert factor_integer(318665857834031151167461).factors == (399165290221, 798330580441)

    def test_unprovable_prime_is_refused(self):
        for n in (2**89 - 1, 10**30 + 57):
            assert n >= MILLER_RABIN_EXACT_BOUND
            with pytest.raises(DeskScaleError, match="cannot prove"):
                factor_integer(n)


class TestContentPrimitive:
    def euclid(self, a, b):
        while b:
            a, b = b, a % b
        return abs(a)

    def test_examples(self):
        assert poly_content(ZX.make([0, 4, 6])) == self.euclid(6, 4)
        assert poly_content(ZX.make([1, 1])) == 1
        assert poly_content(ZX.make([-4])) == 4
        assert poly_primitive(ZX.make([0, 4, 6])) == (2, ZX.make([0, 2, 3]))
        assert poly_primitive(ZX.make([-1, 1])) == (1, ZX.make([-1, 1]))
        assert poly_primitive(ZX.make([0, -2])) == (-2, ZX.gen)
        with pytest.raises(MathDomainError):
            poly_primitive(ZX.zero)


def no_linear_divisor(p):
    """Exhaustive independent irreducibility check for quadratics: a
    primitive quadratic is reducible iff it has a linear integer factor."""
    bound = max(abs(c) for c in p.coeffs)
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0:
                continue
            cand = ZX.make([b, a])
            if ZX.exact_div(p, cand) is not None:
                return False
    return True


class TestKronecker:
    def test_split_example(self):
        pf = kronecker_factor(ZX.make([-1, 0, 1]))
        assert pf.factors == (ZX.make([-1, 1]), ZX.make([1, 1]))
        assert expand(pf, ZX) == ZX.make([-1, 0, 1])

    def test_irreducible_example(self):
        p = ZX.make([1, 0, 1])
        assert no_linear_divisor(p)  # the independent exhaustive oracle
        pf = kronecker_factor(p)
        assert pf.factors == (p,)

    def test_x_is_prime(self):
        assert kronecker_factor(ZX.gen).factors == (ZX.gen,)

    def test_rejects_nonprimitive_and_zero(self):
        with pytest.raises(MathDomainError):
            kronecker_factor(ZX.make([2, 2]))
        with pytest.raises(MathDomainError):
            kronecker_factor(ZX.zero)

    def test_desk_scale_caps(self):
        with pytest.raises(DeskScaleError):
            kronecker_factor(ZX.make([1] + [0] * 16 + [1]))  # degree 17
        with pytest.raises(DeskScaleError):
            kronecker_factor(ZX.make([10**6 + 1, 1]))

    def test_negative_leading(self):
        pf = kronecker_factor(ZX.make([1, -1]))  # -(X - 1)
        assert pf.unit == ZX.make([-1]) and pf.factors == (ZX.make([-1, 1]),)

    def test_repeated_factors(self):
        p = ZX.make([1, 2, 1])  # (X+1)^2
        assert kronecker_factor(p).factors == (ZX.make([1, 1]), ZX.make([1, 1]))

    def test_quartics(self):
        # a second recombination round was needed here before linear modular
        # factors were lifted by Newton's iteration
        p = ZX.make([-12, 36, 86, -92, -26, 93, -20, -10, 8])
        assert kronecker_factor(p).factors == (ZX.make([-2, 8, 3, -4, 2]), ZX.make([6, 6, -10, 3, 4]))

    @pytest.mark.parametrize("p, degrees", [
        # (X-1)(X-2)...(X-8): eight roots modulo 11, the first good prime
        (ZX.prod(ZX.make([-k, 1]) for k in range(1, 9)), [1] * 8),
        # (X^2+2)(X^4+1)(X^3-2): no root at the prime chosen, and X^4+1
        # splits into two quadratics there
        (ZX.prod([ZX.make([2, 0, 1]), ZX.make([1, 0, 0, 0, 1]), ZX.make([-2, 0, 0, 1])]), [2, 2, 2, 3]),
    ])
    def test_all_or_no_modular_factors_linear(self, monkeypatch, p, degrees):
        seen = []
        recombine = basefactor._recombine

        def recording(f, lifted, mod):
            seen.append(sorted(len(u) - 1 for u in lifted))
            return recombine(f, lifted, mod)

        monkeypatch.setattr(basefactor, "_recombine", recording)
        pf = kronecker_factor(p)
        assert seen[0] == degrees
        assert pf == kronecker_reference(p)


_generator = st.lists(st.integers(-6, 6), min_size=2, max_size=6).map(ZX.make)


@settings(max_examples=50, deadline=None)
@given(st.lists(_generator, min_size=1, max_size=6), st.sampled_from((1, -1)))
def test_engine_factors_products_of_generators(generators, sign):
    """Products of one to six random factors, degree <= 16 and coefficients
    inside the caps, against the generators' own factorizations and the
    Kronecker reference."""
    gens, p = [], ZX.constant(sign)
    for g in generators:
        if len(g.coeffs) < 2 or len(p.coeffs) + len(g.coeffs) - 2 > 16:
            continue
        _, g = poly_primitive(g)
        gens.append(g)
        p = ZX.mul(p, g)
    assume(gens and max(abs(c) for c in p.coeffs) <= 10**6)
    pf = kronecker_factor(p)
    assert expand(pf, ZX) == p
    assert list(pf.factors) == sorted(pf.factors, key=ZX.sort_key)
    for q in pf.factors:
        assert poly_content(q) == 1 and q.coeffs[-1] > 0
        if len(q.coeffs) - 1 <= 8:
            assert kronecker_reference(q).factors == (q,)
    assert Counter(pf.factors) == sum((Counter(kronecker_factor(g).factors) for g in gens), Counter())


class TestFactorPolyZX:
    def test_examples(self):
        pf = factor_poly_zx(ZX.make([2, 2]))
        assert pf.factors == (ZX.make([2]), ZX.make([1, 1]))
        pf = factor_poly_zx(ZX.make([4]))
        assert pf.factors == (ZX.make([2]), ZX.make([2]))
        pf = factor_poly_zx(ZX.make([-1, 0, 1]))
        assert pf.factors == (ZX.make([-1, 1]), ZX.make([1, 1]))

    def test_units(self):
        assert factor_poly_zx(ZX.one) == PrimeFactorization(ZX.one, ())
        assert factor_poly_zx(ZX.make([-1])).unit == ZX.make([-1])

    def test_reconstruction_random(self):
        rng = random.Random("basefactor-zx")
        for _ in range(60):
            p = rand_zx(rng, nonzero=True)
            pf = factor_poly_zx(p)
            assert expand(pf, ZX) == p


class TestFactorBivariate:
    def test_examples(self):
        x = ZX.gen
        f = ZXY.make([x, x])  # X*Y + X
        pf = factor_bivariate(f)
        assert pf.factors == (ZXY.constant(x), ZXY.make([ZX.one, ZX.one]))
        g = ZXY.make([ZX.make([-1]), ZX.zero, ZX.one])  # Y^2 - 1
        pf = factor_bivariate(g)
        assert expand(pf, ZXY) == g
        assert pf.factors == (
            ZXY.make([ZX.make([-1]), ZX.one]),
            ZXY.make([ZX.one, ZX.one]),
        )
        assert factor_bivariate(ZXY.from_int(2)).factors == (ZXY.from_int(2),)
        # Y -> X^5 images with more factors than the input: the leftover image
        # factors form the last factor (4 of them for Y + X^2), the complement
        # skip at exactly half (2 + 2), and an uneven split (4 + 2)
        def y_plus(c):  # Y + c
            return ZXY.make([c, ZX.one])

        f = y_plus(ZX.make([0, 0, 1]))  # Y + X^2
        assert factor_bivariate(f).factors == (f,)
        pf = factor_bivariate(ZXY.mul(y_plus(x), y_plus(ZX.make([0, 2]))))
        assert pf.factors == (y_plus(x), y_plus(ZX.make([0, 2])))
        pf = factor_bivariate(ZXY.make([ZX.make([0, 0, -1]), ZX.zero, ZX.one]))  # Y^2 - X^2
        assert pf.factors == (y_plus(ZX.make([0, -1])), y_plus(x))

    def test_caps(self):
        too_deep = ZXY.make([ZX.one] * 6)  # deg_Y = 5
        with pytest.raises(DeskScaleError):
            factor_bivariate(too_deep)

    def test_mixed(self):
        # (X*Y + 1)(Y + X) expanded independently: X*Y^2 + (X^2+1)*Y + X
        f = ZXY.make([ZX.gen, ZX.make([1, 0, 1]), ZX.gen])
        pf = factor_bivariate(f)
        assert expand(pf, ZXY) == f
        assert len(pf.factors) == 2


class TestUniqueness:
    def test_reorder(self):
        assert check_factorization_unique(
            ZZ, PrimeFactorization(1, (2, 3)), PrimeFactorization(1, (3, 2))
        ) is True

    def test_unit_absorption(self):
        assert check_factorization_unique(
            ZZ, PrimeFactorization(1, (2, 3)), PrimeFactorization(1, (-2, -3))
        ) is True

    def test_different_elements(self):
        assert check_factorization_unique(
            ZZ, PrimeFactorization(1, (2, 3)), PrimeFactorization(1, (2, 2))
        ) is False

    def test_same_value_and_length_different_multisets(self):
        # 4 * 9 == 6 * 6: only the multiset comparison tells them apart
        assert check_factorization_unique(
            ZZ, PrimeFactorization(1, (4, 9)), PrimeFactorization(1, (6, 6))
        ) is False

    def test_rejects_reducible_factor(self):
        # factors are not tested for irreducibility: a reducible one is
        # rejected as a mismatch against the engine's own answer
        assert check_factorization_unique(ZZ, factor_integer(4), PrimeFactorization(1, (4,))) is False

    def test_rejects_unit_factor(self):
        with pytest.raises(PreconditionError):
            check_factorization_unique(
                ZZ, PrimeFactorization(1, (1,)), PrimeFactorization(1, (1,))
            )

    def test_compares_canonical_forms_without_multiplying_back(self, monkeypatch):
        """The units split off by the canonical associates are folded into
        each side's unit: with equal normals, the values agree exactly when
        those units do, so no factorization is multiplied out."""
        calls = []
        value = PrimeFactorization.value

        def counting(pf, ring):
            calls.append(pf)
            return value(pf, ring)

        text = "(X^4+X+1)*(X^4-3*X^2+5)*(X^3+2)*6"
        pf = factor_poly_zx(parse_in_ring(text, ZX))
        neg = ZX.from_int(-1)
        perturbed = PrimeFactorization(pf.unit, tuple(ZX.mul(neg, q) for q in reversed(pf.factors)))
        monkeypatch.setattr(PrimeFactorization, "value", counting)
        assert check_factorization_unique(ZX, pf, perturbed) is (len(pf.factors) % 2 == 0)
        flipped = PrimeFactorization(ZX.mul(neg, pf.unit), perturbed.factors)
        assert check_factorization_unique(ZX, pf, flipped) is (len(pf.factors) % 2 == 1)
        assert check_factorization_unique(ZZ, PrimeFactorization(1, (2, 3)), PrimeFactorization(-1, (2, 3))) is False
        assert check_factorization_unique(ZZ, PrimeFactorization(-1, (-2, 3)), PrimeFactorization(1, (3, 2))) is True
        assert calls == []


class TestIrreducibilityOracles:
    def test_examples(self):
        assert is_irreducible(ZZ, 2)
        assert not is_irreducible(ZX, ZX.make([0, 0, 1]))  # X^2
        assert is_irreducible(ZX, ZX.make([1, 0, 1]))
        assert not is_irreducible(ZZ, 1)
        assert not is_irreducible(ZZ, 0)
        zy = PolynomialRing(ZZ, "Y")  # Z[Y], which has no engine
        with pytest.raises(MathDomainError):
            is_irreducible(zy, zy.make([1, 2]))
        assert not is_irreducible(zy, zy.make([-1]))  # a unit, decided without an engine
        # the Laurent ring is factored by its descent route, not by an engine
        with pytest.raises(MathDomainError, match="no irreducibility oracle"):
            is_irreducible(LT, LT.fraction((0,), ZX.make([1, 0, 1])))  # T^2 + 1


class TestLiftingPrecision:
    """The Zassenhaus engine lifts only until a failed recombination test of
    total degree d is conclusive: mod > 2 * B(d), with
    B(d) = C(d, d//2) * |f|_2 bounding lc(f)/lc(g) * g for every factor g."""

    def test_conclusive_boundary(self):
        # |f|_2 = 5, so 2 * B(d) = 10 * C(d, d//2) is an integer
        for d in range(17):
            twice = 10 * math.comb(d, d // 2)
            assert not _conclusive(twice, d, 25)
            assert _conclusive(twice + 1, d, 25)

    def test_second_lifting_round(self, monkeypatch):
        # at the first precision a failed pair test is not conclusive, so
        # the engine lifts again, to where every test of degree n-1 is, and
        # recombines once more
        rounds, mods = [], []
        recombine = basefactor._recombine

        def counting(f, lifted, mod):
            out = recombine(f, lifted, mod)
            rounds.append(out is not None)
            mods.append(mod)
            return out

        monkeypatch.setattr(basefactor, "_recombine", counting)
        p = ZX.make([-81, -36, 69, -106, 119, 67, -39, 71, 40])
        pf = kronecker_factor(p)
        assert rounds == [False, True]
        norm_sq = sum(c * c for c in p.coeffs)
        assert not _conclusive(mods[0], 7, norm_sq) and _conclusive(mods[1], 7, norm_sq)
        assert pf.factors == (ZX.make([-9, 6, -4, 3, 8]), ZX.make([9, 10, -5, 7, 5]))
        assert pf.value(ZX) == p


def _value(f, x, m):
    return sum(c * x**i for i, c in enumerate(f)) % m


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_small_primes()[:8]), st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=17))
def test_roots_and_their_newton_lifts(p, coeffs):
    """Roots in GF(p) by evaluation, division by their linear factors, and
    the lifts of every modular factor, checked at three precisions: each
    Newton-lifted root x_k has f(x_k) == 0 mod p^(2^k) and x_k == x mod p,
    and lc(f) times all the lifts is f modulo p^(2^k)."""
    f = coeffs
    assume(f[-1] % p)
    fp = _monic_mod([c % p for c in f], p)
    derivative = [i * c % p for i, c in enumerate(fp)][1:]
    while derivative and not derivative[-1]:
        derivative.pop()
    assume(len(_gf_gcd(fp, derivative, p)) == 1)  # squarefree modulo p
    roots = _gf_roots(fp, p)
    assert roots == [x for x in range(p) if _value(fp, x, p) == 0]
    rest = _divide_roots(fp, roots, p)
    assert ZX.make([c % p for c in ZX.prod([ZX.make(rest)] + [ZX.make([-r, 1]) for r in roots]).coeffs]) == ZX.make(fp)
    assert all(_value(rest, x, p) for x in range(p))
    nonlinear = _berlekamp_split(rest, _berlekamp_basis(rest, p), p) if len(rest) > 1 else []
    tree = _hensel_tree(f[-1] % p, nonlinear, p) if nonlinear else None
    mod = p
    for _ in range(3):
        mod *= mod
        lifted = _lift(f, roots, tree, p, mod)
        assert len(lifted) == len(roots) + len(nonlinear)
        for r, u in zip(roots, lifted):
            x = -u[0] % mod
            assert _value(f, x, mod) == 0 and x % p == r
        whole = ZX.prod([ZX.constant(f[-1])] + [ZX.make(u) for u in lifted])
        assert all((a - b) % mod == 0 for a, b in zip(whole.coeffs, f))


def _binomial(d, sign):  # X^d + sign
    return ZX.make([sign] + [0] * (d - 1) + [1])


_bounded_factor = st.one_of(
    st.tuples(st.integers(1, 8), st.sampled_from((2, 10, 1000, 10**6))).flatmap(
        lambda t: st.lists(st.integers(-t[1], t[1]), min_size=t[0] + 1, max_size=t[0] + 1)
    ).map(ZX.make),
    st.tuples(st.integers(1, 16), st.sampled_from((1, -1))).map(lambda t: _binomial(*t)),
    st.integers(1, 16).map(lambda k: ZX.pow(ZX.make([1, 1]), k)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_bounded_factor, min_size=1, max_size=5))
# (X+1)(2X+1)(7X-1): half the bound lifts it to 25 only, where every
# candidate wraps around and the engine would call the cubic irreducible
@example([ZX.make([1, 1]), ZX.make([1, 2]), ZX.make([-1, 7])])
@example([_binomial(16, -1)])
def test_factors_within_the_lifting_bound(generators):
    """Products of random factors with coefficients up to the cap, of
    binomials X^d +- 1 and of powers of X + 1: every factor g satisfies
    |lc(f)/lc(g) * g_i| <= B(deg g), and the factors are those of the
    generators."""
    gens, p = [], ZX.one
    for g in generators:
        if len(g.coeffs) < 2 or len(p.coeffs) + len(g.coeffs) - 2 > 16:
            continue
        _, g = poly_primitive(g)
        q = ZX.mul(p, g)
        if max(abs(c) for c in q.coeffs) > 10**6:
            continue
        gens.append(g)
        p = q
    assume(gens)
    pf = kronecker_factor(p)
    norm_sq = sum(c * c for c in p.coeffs)
    for g in pf.factors:
        d, scale = len(g.coeffs) - 1, abs(p.coeffs[-1]) // g.coeffs[-1]
        assert max(abs(scale * c) for c in g.coeffs) ** 2 <= math.comb(d, d // 2) ** 2 * norm_sq
    assert Counter(pf.factors) == sum((Counter(kronecker_factor(g).factors) for g in gens), Counter())


# Hensel steps the engine took on the products of test_hensel_steps_guard when
# it lifted every input past 2 * |lc| * 2^n * sqrt(n+1) * max|f|
_HENSEL_STEPS_AT_THE_MIGNOTTE_BOUND = 3756


def _near_cap_products(count):
    """Seeded products of degree 10-16 of factors of degree 1-3 with
    coefficients in [-2, 2], within the engine's caps."""
    rng = random.Random("hensel-steps")
    out = []
    while len(out) < count:
        p, left = ZX.one, rng.randint(10, 16)
        while left:
            d = min(rng.randint(1, 3), left)
            middle = [rng.randint(-2, 2) for _ in range(d - 1)]
            p = ZX.mul(p, ZX.make([rng.choice((-2, -1, 1, 2))] + middle + [rng.randint(1, 2)]))
            left -= d
        if max(abs(c) for c in p.coeffs) <= 10**6:
            out.append(poly_primitive(p)[1])
    return out


def _hensel_steps_on_near_cap_products(monkeypatch):
    steps = 0
    step = basefactor._hensel_step

    def counting(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    monkeypatch.setattr(basefactor, "_hensel_step", counting)
    for p in _near_cap_products(200):
        assert kronecker_factor(p).value(ZX) == p
    return steps


def test_hensel_steps_guard(monkeypatch):
    """A count, not a time: lifting only as far as recombination needs takes
    at most 70% of the Hensel steps of lifting past the worst-case bound."""
    steps = _hensel_steps_on_near_cap_products(monkeypatch)
    assert steps <= _HENSEL_STEPS_AT_THE_MIGNOTTE_BOUND * 7 // 10


# Hensel steps the engine took on the same products when the linear modular
# factors went down the Hensel tree with the others
_HENSEL_STEPS_WITH_LINEAR_FACTORS_IN_THE_TREE = 2427


def test_linear_factors_stay_off_the_hensel_tree(monkeypatch):
    """A count, not a time: with the roots modulo p lifted by Newton's
    iteration, the Hensel tree takes at most half the steps it took when
    every modular factor went down it."""
    steps = _hensel_steps_on_near_cap_products(monkeypatch)
    assert steps <= _HENSEL_STEPS_WITH_LINEAR_FACTORS_IN_THE_TREE // 2


# GF(p) gcds of the squarefree test on the same products when each prime
# tested the whole of f mod p, and of the Berlekamp splits then and now
_SQUAREFREE_GCDS_ON_WHOLE_INPUTS = 798
_BERLEKAMP_SPLIT_GCDS = 2135


def test_squarefree_tests_skip_primes_with_repeated_roots(monkeypatch):
    """A count, not a time: a prime with a repeated root is skipped before
    any gcd, and the gcd test runs only on a root-free rest of degree 4 or
    more, so the squarefree tests take at most a third of the gcds they took
    on the whole input.  The same primes are chosen, so the Berlekamp splits
    take the same gcds."""
    callers = Counter()
    gcd = basefactor._gf_gcd

    def counting(*args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return gcd(*args)

    monkeypatch.setattr(basefactor, "_gf_gcd", counting)
    for p in _near_cap_products(200):
        assert kronecker_factor(p).value(ZX) == p
    assert callers["_factor_squarefree"] <= _SQUAREFREE_GCDS_ON_WHOLE_INPUTS // 3
    assert callers["_berlekamp_split"] == _BERLEKAMP_SPLIT_GCDS
