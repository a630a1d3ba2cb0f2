"""Seeded input generators for the three benchmark workloads.

Every generator returns ``Request`` values whose ``argv`` is exactly what a
user would pass to ``locfactor``; the program only ever sees the rendered
expression string.  The expression follows ``--``, because a leading minus
sign would otherwise be read as an option.  Polynomial arithmetic here is
self-contained (integer coefficient lists, lowest degree first) so that the
inputs do not depend on the code under measurement.

Each workload is a fixed cycle of input shapes (its stated mix); the seed only
draws the coefficients.  Any prefix of a corpus therefore has the same mix,
which keeps figures from different seeds comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Request:
    kind: str  # "int", "zx", "laurent" or "zxy": the ring the input lives in
    argv: tuple
    expr: str


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, lowest degree first)

def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _term(c: int, mono: str, first: bool) -> str:
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
    if first:
        return f"-{body}" if c < 0 else body
    return f" {sign} {body}"


def _power(var: str, k: int) -> str:
    return var if k == 1 else f"{var}^{k}"


def render_poly(cs: list, var: str = "X", low: int = 0) -> str:
    """Coefficient list as an expression; ``low`` shifts the exponents (Laurent)."""
    out = []
    for k in range(len(cs) - 1, -1, -1):
        if cs[k]:
            e = k + low
            out.append(_term(cs[k], _power(var, e) if e else "", not out))
    return "".join(out) or "0"


def render_bivariate(rows: list) -> str:
    """rows[j] is the X-coefficient list of Y^j."""
    out = []
    for j in range(len(rows) - 1, -1, -1):
        for i in range(len(rows[j]) - 1, -1, -1):
            c = rows[j][i]
            if c:
                mono = "*".join(m for m in (_power("X", i) if i else "", _power("Y", j) if j else "") if m)
                out.append(_term(c, mono, not out))
    return "".join(out) or "0"


def _has_rational_root(cs: list) -> bool:
    a0, an = abs(cs[0]), abs(cs[-1])
    if a0 == 0:
        return True
    divs = lambda n: [d for d in range(1, n + 1) if n % d == 0]
    for p in divs(a0):
        for q in divs(an):
            for r in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * r**i for i, c in enumerate(cs)) == 0:
                    return True
    return False


def is_irreducible_small(cs: list) -> bool:
    """Irreducibility over Z of a polynomial of degree 1 to 3: primitive and,
    from degree 2 on, without a rational root."""
    if len(cs) < 2 or len(cs) > 4 or cs[-1] == 0:
        raise ValueError("degree must be 1, 2 or 3")
    if math.gcd(*cs) != 1:
        return False
    return len(cs) == 2 or not _has_rational_root(cs)


def rand_irreducible(rng: random.Random, deg: int, bound: int) -> list:
    """Primitive irreducible of the given degree, positive leading coefficient."""
    while True:
        cs = [rng.randint(-bound, bound) for _ in range(deg)] + [rng.randint(1, bound)]
        if cs[0] and is_irreducible_small(cs):
            return cs


def _product(content: int, factors: list) -> list:
    p = [content]
    for f in factors:
        p = poly_mul(p, f)
    return p


def _shaped_product(rng: random.Random, shape: tuple, bound: int) -> list:
    """shape = (content, factor degrees, whether the first factor is squared);
    a degree of 0 stands for the factor X itself."""
    content, degrees, squared = shape
    factors = [[0, 1] if d == 0 else rand_irreducible(rng, d, bound) for d in degrees]
    if squared:
        factors.append(factors[0])
    return _product(content, factors)


# ---------------------------------------------------------------------------
# zx-compare: `compare` on Z[X] products of 1-4 irreducible factors

ZX_COMPARE_BOUND = 3
ZX_COMPARE_SHAPES = (
    (1, (2,), False),
    (6, (1,), True),
    (1, (1, 2), False),
    (12, (2, 2), False),
    (1, (0, 1, 2), False),
    (30, (1, 2), True),
    (2, (1, 1, 1, 2), False),
    (1, (3,), False),
    (1, (3, 2), False),
    (4, (2, 1, 2), True),
)


def zx_compare(rng: random.Random, i: int) -> Request:
    shape = ZX_COMPARE_SHAPES[i % len(ZX_COMPARE_SHAPES)]
    text = render_poly(_shaped_product(rng, shape, ZX_COMPARE_BOUND))
    return Request("zx", ("compare", "--", text), text)


# ---------------------------------------------------------------------------
# near-cap-direct: `factor --route direct` on Z[X] inputs of degree 10-16

NEAR_CAP_BOUND = 2
NEAR_CAP_DEGREES = (10, 11, 12, 13, 14, 15, 16)
NEAR_CAP_FACTOR_DEGREES = (1, 2, 2, 3, 3)  # drawn uniformly until the degree is reached


def near_cap_direct(rng: random.Random, i: int) -> Request:
    left = NEAR_CAP_DEGREES[i % len(NEAR_CAP_DEGREES)]
    degrees = []
    while left:
        d = min(rng.choice(NEAR_CAP_FACTOR_DEGREES), left)
        degrees.append(d)
        left -= d
    text = render_poly(_shaped_product(rng, (1, tuple(degrees), False), NEAR_CAP_BOUND))
    return Request("zx", ("factor", "--route", "direct", "--", text), text)


# ---------------------------------------------------------------------------
# desk-mixed: `factor --json` on the auto route over every ring

# bivariate shapes (deg_X, deg_Y) of the selftest generator, minus the ones
# without Y (those parse as Z or Z[X], not Z[X][Y])
_BIVARIATE_SHAPES = ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1))
INT_MAGNITUDES = (10**3, 10**6, 10**9, 10**12)
# With locfactor 0.1.0 on 2 CPUs, image degrees 10-13 took up to 3 s per
# input (one over the 10 s limit) and degree 10 up to 0.5 s, a tail that swamps
# the mix; up to 7 they stay under 0.1 s.  The slow end of the Kronecker
# search is measured by near-cap-direct instead.
BIVARIATE_IMAGE_DEGREE = 7
DESK_MIX = ("int", "zx", "laurent", "zxy")


def _rand_int(rng: random.Random, slot: int) -> str:
    top = INT_MAGNITUDES[slot % len(INT_MAGNITUDES)]
    return str(rng.choice((1, -1)) * rng.randint(2, top))


def _rand_zx(rng: random.Random) -> str:
    # selftest envelope: degree <= 4, coefficients in [-9, 9]; degree >= 1 so
    # the input parses as Z[X]
    deg = rng.randint(1, 4)
    return render_poly([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-1, 1)) * rng.randint(1, 9)])


def _rand_laurent(rng: random.Random) -> str:
    # selftest envelope: lowest exponent in [-3, 3], 1-5 coefficients in [-9, 9]
    while True:
        low = rng.randint(-3, 3)
        cs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        if any(c and k + low for k, c in enumerate(cs)):  # mentions T
            return render_poly(cs, "T", low)


def _rand_bivariate_factor(rng: random.Random) -> list:
    while True:
        nx, ny = rng.choice(_BIVARIATE_SHAPES)
        rows = [[rng.randint(-5, 5) for _ in range(nx + 1)] for _ in range(ny + 1)]
        if any(rows[-1]):
            return rows


def _bivariate_mul(a: list, b: list) -> list:
    nx = len(a[0]) + len(b[0]) - 1
    out = [[0] * nx for _ in range(len(a) + len(b) - 1)]
    for j, ra in enumerate(a):
        for k, rb in enumerate(b):
            for i, c in enumerate(poly_mul(ra, rb)):
                out[j + k][i] += c
    return out


def _degrees(rows: list) -> tuple:
    deg_x = max((i for r in rows for i, c in enumerate(r) if c), default=0)
    return deg_x, len(rows) - 1


def _rand_bivariate(rng: random.Random) -> str:
    # selftest envelope: coefficients in [-5, 5], a product of two with
    # probability 1/2, both degrees <= 4; the substitution image degree
    # deg_Y*(2*deg_X+1)+deg_X is held to BIVARIATE_IMAGE_DEGREE of its cap 16
    while True:
        f = _rand_bivariate_factor(rng)
        if rng.random() < 0.5:
            f = _bivariate_mul(f, _rand_bivariate_factor(rng))
        nx, ny = _degrees(f)
        if nx <= 4 and ny <= 4 and ny * (2 * nx + 1) + nx <= BIVARIATE_IMAGE_DEGREE:
            return render_bivariate(f)


def desk_mixed(rng: random.Random, i: int) -> Request:
    kind = DESK_MIX[i % len(DESK_MIX)]
    if kind == "int":
        text = _rand_int(rng, i // len(DESK_MIX))
    elif kind == "zx":
        text = _rand_zx(rng)
    elif kind == "laurent":
        text = _rand_laurent(rng)
    else:
        text = _rand_bivariate(rng)
    return Request(kind, ("factor", "--json", "--", text), text)


# name -> (generator, distinct requests per run; a run that needs more cycles
# through them).  The spread of the figures between seeds shrinks as the number
# of distinct inputs grows; checking each of them with sympy after the run is
# what limits it.
WORKLOADS = {
    "zx-compare": (zx_compare, 1000),
    "near-cap-direct": (near_cap_direct, 1000),
    "desk-mixed": (desk_mixed, 2500),
}


def corpus(workload: str, seed: int, size: int | None = None) -> list:
    """The first ``size`` requests of a workload (by default its corpus size);
    the same seed gives the same list."""
    make, default_size = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [make(rng, i) for i in range(default_size if size is None else size)]
