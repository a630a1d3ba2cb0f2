"""Acceptance suite.

One test per criterion, each at its stated tolerance (exact, zero failures)
and within its stated runtime budget.  Every test prints a single PASS line
on success (run with ``pytest tests/test_acceptance.py -v -s`` to see them);
a failed assertion is the FAIL signal.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from locfactor.basefactor import (
    check_factorization_unique,
    factor_bivariate,
    factor_integer,
    factor_poly_zx,
    is_irreducible,
)
from locfactor.descent import BaseEngineOracle
from locfactor.localization import (
    GeneratedSubmonoid,
    avoids,
    clear_denominator,
    lift_dvd,
    split_prime_factors,
    transfer_prime_divides,
    witness_multiset,
)
from locfactor.rings import ZX, ZXY, ZZ
from locfactor.routes import (
    compare_routes,
    factor_iterated,
    factor_zx_via_fraction_field,
    factor_zx_via_laurent,
)
from locfactor.selftest import (
    brute_force_avoids,
    rand_bivariate_feasible,
    rand_zx,
    suite_base_unique_shuffle,
    suite_descent_dichotomy,
    _transfer_instance,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def _random_poly_batch(seed, count):
    rng = random.Random(seed)
    return [rand_zx(rng, max_deg=4, bound=9, nonzero=True) for _ in range(count)]


def test_criterion_1_route_agreement():
    t0 = time.monotonic()
    failures = 0
    for p in _random_poly_batch("acceptance:routes", 200):
        compare_routes(p)  # raises on any pairwise disagreement
    elapsed = time.monotonic() - t0
    assert failures == 0
    assert elapsed < 60, f"route agreement took {elapsed:.1f}s"
    _report(1, "route agreement on 200 random inputs")


def test_criterion_2_reconstruction_identity():
    rng = random.Random("acceptance:reconstruction")
    for _ in range(500):
        n = 0
        while n == 0:
            n = rng.randint(-(10**6), 10**6)
        pf = factor_integer(n)
        value = pf.unit
        for q in pf.factors:
            value *= q
        assert value == n
    for p in _random_poly_batch("acceptance:reconstruction-poly", 200):
        for pf in (
            factor_poly_zx(p),
            factor_zx_via_laurent(p).factorization,
            factor_zx_via_fraction_field(p).factorization,
        ):
            assert ZX.eq(pf.value(ZX), p)
    _report(2, "exact reconstruction for every engine and route")


def test_criterion_3_uniqueness_bijection():
    # raises SelfTestFailure when a shuffled, unit-perturbed copy is not matched
    suite_base_unique_shuffle(random.Random("acceptance:uniqueness"), 200)
    _report(3, "uniqueness bijection after shuffle and unit perturbation")


def test_criterion_4_transfer_soundness():
    t0 = time.monotonic()
    rng = random.Random("acceptance:transfer")
    for i in range(300):
        S, ring, s, p, a, c, d = _transfer_instance(rng)
        op = i % 4
        if op == 0:
            got = clear_denominator(ring, witness_multiset(s), p, a, c)
            assert ring.eq(ring.mul(p, got), a)
        elif op == 1:
            got = lift_dvd(p, a, s, c)
            assert ring.eq(ring.mul(p, got), a)
        elif op == 2:
            f = list(witness_multiset(s))
            rng.shuffle(f)
            cut = rng.randint(0, len(f))
            left = ring.mul(p, ring.prod(f[:cut]))
            right = ring.prod(f[cut:])
            a2, b2, fa, fb = split_prime_factors(ring, p, tuple(f), left, right)
            assert ring.eq(ring.mul(a2, ring.prod(fa)), left)
            assert ring.eq(ring.mul(b2, ring.prod(fb)), right)
            assert ring.eq(ring.mul(a2, b2), p)
        else:
            if ring == ZZ:
                oracle = BaseEngineOracle(S, factor_integer)
            else:
                from locfactor.routes import LaurentOracle

                oracle = LaurentOracle(S, factor_poly_zx)
            b = d
            side, quot = transfer_prime_divides(p, a, b, oracle)
            target = a if side == "left" else b
            assert ring.eq(ring.mul(p, quot), target)
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"transfer soundness took {elapsed:.1f}s"
    _report(4, "transfer algorithms verify by exact re-multiplication")


def test_criterion_5_avoidance_reduction():
    rng = random.Random("acceptance:avoidance")
    submonoids = [
        GeneratedSubmonoid(ZZ, [2]),
        GeneratedSubmonoid(ZZ, [2, 3]),
        GeneratedSubmonoid(ZZ, [5, 7]),
    ]
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    for _ in range(100):
        S = rng.choice(submonoids)
        p = rng.choice((1, -1)) * rng.choice(primes)
        assert avoids(S, p) == brute_force_avoids(S, p, max_exp_sum=8)
    _report(5, "associate scan equals brute force over exponent sum <= 8")


def test_criterion_6_chain_correspondence():
    # the prime-generated chain lifts exactly on single-generator submonoids...
    rng = random.Random("acceptance:chains")
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(100):
        g = rng.choice(primes)
        S = GeneratedSubmonoid(ZZ, [g])
        while True:
            p = rng.choice((1, -1)) * rng.choice((2, 3, 5, 7, 11, 13, 17, 19))
            if avoids(S, p):
                break
        d = 0
        while d == 0:
            d = rng.randint(-50, 50)
        s = S.member((rng.randint(0, 3),))
        a, c = p * d, s.value * d
        assert lift_dvd(p, a, s, c) == ZZ.exact_div(a, p)
        oracle = BaseEngineOracle(S, factor_integer)
        b = 0
        while b == 0:
            b = rng.randint(-50, 50)
        assert transfer_prime_divides(p, a, b, oracle) == ("left", ZZ.exact_div(a, p))
    # ...and on the multi-generator ones, where a product of two distinct
    # generators is neither prime nor a unit
    for gens in ([2, 3], [5, 7], [2, 3, 5]):
        S = GeneratedSubmonoid(ZZ, gens)
        s = S.member((1,) * len(gens))
        assert lift_dvd(11, 22, s, s.value * 2) == 2
        oracle = BaseEngineOracle(S, factor_integer)
        assert transfer_prime_divides(11, 3 * s.value, 22, oracle) == ("right", 2)
    _report(6, "prime-generated chain divides exactly on one and several generators")


def test_criterion_7_case_split_dichotomy():
    # raises SelfTestFailure unless exactly one case applies, the certificate
    # names that case, and it replays
    suite_descent_dichotomy(random.Random("acceptance:dichotomy"), 100)
    _report(7, "primality case split is a dichotomy with replayable certificates")


def test_criterion_8_bivariate_layers():
    t0 = time.monotonic()
    rng = random.Random("acceptance:iterated")
    for _ in range(50):
        f = rand_bivariate_feasible(rng)
        res = factor_iterated(f)  # internally asserts agreement with the substitution engine
        assert ZXY.eq(res.factorization.value(ZXY), f)
        for q in res.factorization.factors:
            assert is_irreducible(ZXY, q)
        assert check_factorization_unique(ZXY, res.factorization, factor_bivariate(f))
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"iterated route took {elapsed:.1f}s"
    _report(8, "iterated factorization agrees across layers and reconstructs")


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "locfactor.cli"] + args,
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_cli_golden_files():
    got = _run_cli(["factor", "X^2-1", "--route", "fracfield", "--json"])
    assert got == (GOLDEN / "factor_fracfield.json").read_bytes()
    assert json.loads(got)["version"] == "1"
    got = _run_cli(["factor", "T^-1+T", "--json"])
    assert got == (GOLDEN / "factor_laurent.json").read_bytes()
    got = _run_cli(["compare", "12X"])
    assert got == (GOLDEN / "compare_12x.txt").read_bytes()
    got = _run_cli(["factor", "--json", "2*X^2*Y^2-2*X^2"])
    assert got == (GOLDEN / "factor_iterated.json").read_bytes()
    _report(9, "CLI outputs match the golden files byte for byte")
