"""Exact factorization over Z, Z[X], Laurent polynomials and Z[X][Y],
cross-checked through localization descent.

The package is organized bottom-up:

* ``rings``        -- exact arithmetic and the uniform ring contract
* ``basefactor``   -- ground-truth engines (integers by sieve, Miller-Rabin and
                      Pollard rho; Z[X] by Zassenhaus; Z[X][Y] by Kronecker
                      substitution).  An integer with a probable-prime
                      cofactor above the Miller-Rabin exact bound
                      (~3.3 * 10**24) is refused as desk-scale (exit 2)
* ``localization`` -- prime-generated submonoids, fractions, transfer algorithms
* ``descent``      -- primality certificates and the descent factorizer
* ``routes``       -- Laurent / fraction-field / bivariate routes; the Laurent
                      oracle, computed in Z[X], and one constant-primes oracle
                      serving both Z[X] and Z[X][Y], realized by Gauss's
                      lemma on R[Y]
* ``expr``         -- expression parsing and rendering
* ``selftest``     -- seeded randomized property suites
* ``cli``          -- the ``locfactor`` command
"""

from .basefactor import (
    AssociateBijection,
    PrimeFactorization,
    check_factorization_unique,
    factor_bivariate,
    factor_integer,
    factor_poly_zx,
    is_irreducible,
    kronecker_factor,
)
from .descent import (
    BaseEngineOracle,
    DescentResult,
    LocalizationOracle,
    PrimalityCertificate,
    certify_prime,
    descend_factor,
)
from .errors import (
    DescentInconsistencyError,
    DeskScaleError,
    LocFactorError,
    MathDomainError,
    OracleViolationError,
    ParseError,
    PreconditionError,
)
from .expr import parse_expr, render
from .localization import (
    Fraction,
    GeneratedSubmonoid,
    SMember,
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
    transfer_irreducible,
    transfer_prime_divides,
    witness_multiset,
)
from .rings import (
    LT,
    ZX,
    ZXY,
    ZZ,
    Laurent,
    Poly,
    Ring,
    laurent_to_poly,
    strip_var_power,
)
from .routes import (
    compare_routes,
    factor_iterated,
    factor_laurent,
    factor_zx_via_fraction_field,
    factor_zx_via_laurent,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the selftest suites are loaded on first use, not by every CLI request
    if name == "run_selftest":
        from .selftest import run_selftest

        return run_selftest
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
