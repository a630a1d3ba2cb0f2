"""Exact factorization over Z, Z[X], Laurent polynomials and Z[X][Y],
cross-checked through localization descent.

The package is organized bottom-up:

* ``rings``        -- exact arithmetic and the uniform ring contract
* ``basefactor``   -- ground-truth engines (integers by sieve, Miller-Rabin and
                      Pollard rho; Z[X] by Zassenhaus; Z[X][Y] by Kronecker
                      substitution).  An integer with a probable-prime
                      cofactor above the Miller-Rabin exact bound
                      (~3.3 * 10**24) is refused as desk-scale (exit 2)
* ``localization`` -- prime-generated submonoids, fractions and the ring
                      S^-1 R they form (``LocalizationRing``), with
                      ``LT`` = Z[T,T^-1], Z[X] at the powers of X; the
                      transfer algorithms
* ``descent``      -- primality certificates and the descent factorizer
* ``routes``       -- Laurent / fraction-field / bivariate routes; the Laurent
                      oracle, computed in Z[X], and one constant-primes oracle
                      serving both Z[X] and Z[X][Y], realized by Gauss's
                      lemma on R[Y]
* ``expr``         -- expression parsing and rendering
* ``selftest``     -- seeded randomized property suites
* ``cli``          -- the ``locfactor`` command
"""

import importlib

__version__ = "0.1.0"

# The package's names, by the module that defines them.  Each is imported
# with its module on first use: ``import locfactor`` loads none of them, so a
# command loads only the layers it runs.
_EXPORTS = {
    "basefactor": (
        "PrimeFactorization",
        "check_factorization_unique",
        "factor_bivariate",
        "factor_integer",
        "factor_poly_zx",
        "is_irreducible",
        "kronecker_factor",
    ),
    "descent": (
        "BaseEngineOracle",
        "DescentResult",
        "LocalizationOracle",
        "PrimalityCertificate",
        "certify_prime",
        "descend_factor",
    ),
    "errors": (
        "DescentInconsistencyError",
        "DeskScaleError",
        "LocFactorError",
        "MathDomainError",
        "OracleViolationError",
        "ParseError",
        "PreconditionError",
    ),
    "expr": ("parse_expr", "render"),
    "localization": (
        "LT",
        "Fraction",
        "GeneratedSubmonoid",
        "LocalizationRing",
        "SMember",
        "avoids",
        "clear_denominator",
        "embed",
        "find_associate_generator",
        "frac_add",
        "frac_eq",
        "frac_is_unit",
        "frac_mul",
        "lift_dvd",
        "split_prime_factors",
        "transfer_irreducible",
        "transfer_prime_divides",
        "witness_multiset",
    ),
    "rings": ("ZX", "ZXY", "ZZ", "Poly", "Ring"),
    "routes": (
        "compare_routes",
        "factor_iterated",
        "factor_laurent",
        "factor_zx_via_fraction_field",
        "factor_zx_via_laurent",
    ),
    "selftest": ("run_selftest",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
