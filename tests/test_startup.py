"""Start-up: what a fresh interpreter loads for each command, and the package
API that the lazily loaded descent layer keeps.

Every ``locfactor`` call is a new process, so the modules a command imports
are part of its cost.  Requests that never descend (``factor --route
direct``, integer input, refused input) load no descent layer and no
``dataclasses``; the descending requests load it on first use and print what
``tests/golden/corpus.json`` records.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "golden" / "corpus.json"

# run cli.main on argv in this fresh interpreter; report its output and what it loaded
_PROBE = """
import contextlib, io, json, sys
from locfactor import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(sys.argv[1:])
print(json.dumps({
    "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "locfactor"),
    "dataclasses": "dataclasses" in sys.modules,
}))
"""

NON_DESCENDING = {"locfactor", "locfactor.basefactor", "locfactor.cli", "locfactor.errors",
                  "locfactor.expr", "locfactor.rings"}


def _cold(argv: list) -> dict:
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _recorded(argv: list) -> dict:
    return next(e for e in json.loads(CORPUS.read_text()) if e["argv"] == argv)


@pytest.mark.parametrize("argv", [
    ["factor", "--route", "direct", "--", "X^4+1"],
    ["factor", "--route", "auto", "--", "6"],
])
def test_non_descending_requests_load_no_descent_layer(argv):
    got = _cold(argv)
    assert set(got["modules"]) == NON_DESCENDING
    assert not got["dataclasses"]
    assert {k: got[k] for k in ("code", "stdout", "stderr")} == {
        k: _recorded(argv)[k] for k in ("code", "stdout", "stderr")}


def test_parse_error_loads_no_descent_layer():
    got = _cold(["factor", "1 + W"])
    assert set(got["modules"]) == NON_DESCENDING
    assert not got["dataclasses"]
    assert (got["code"], got["stdout"], got["stderr"]) == (
        1, "", "error: unknown variable 'W' (at position 4)\n")


@pytest.mark.parametrize("argv", [
    ["factor", "--route", "auto", "--", "(X-1)^2*(X+2)"],
    ["factor", "--route", "direct", "--", "T^-5+T^3"],  # Laurent input descends on every route
    ["factor", "--route", "auto", "--", "Y^2-X^2"],
    ["compare", "--", "-6*X^2+6"],
])
def test_descending_requests_load_it_on_first_use(argv):
    got = _cold(argv)
    assert "locfactor.routes" in got["modules"]
    assert not got["dataclasses"]
    assert {k: got[k] for k in ("code", "stdout", "stderr")} == {
        k: _recorded(argv)[k] for k in ("code", "stdout", "stderr")}


def test_package_api_under_lazy_exports():
    code = (
        "import sys, locfactor\n"
        "assert 'locfactor.routes' not in sys.modules\n"
        "assert locfactor.compare_routes is sys.modules['locfactor.routes'].compare_routes\n"
        "assert set(locfactor.__all__) <= set(dir(locfactor))\n"
        "names = {}\n"
        "exec('from locfactor import *', names)\n"
        "assert set(locfactor.__all__) <= set(names)\n"
        "try:\n"
        "    locfactor.no_such_name\n"
        "except AttributeError as e:\n"
        "    assert str(e) == \"module 'locfactor' has no attribute 'no_such_name'\", e\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_all_lists_every_export():
    import locfactor

    # every name the package serves, whichever layer defines it
    assert sorted(locfactor.__all__, key=str.lower) == [
        "avoids", "BaseEngineOracle", "certify_prime", "check_factorization_unique",
        "clear_denominator", "compare_routes",
        "descend_factor", "DescentInconsistencyError", "DescentResult", "DeskScaleError",
        "embed", "factor_bivariate", "factor_integer", "factor_iterated", "factor_laurent",
        "factor_poly_zx", "factor_zx_via_fraction_field", "factor_zx_via_laurent",
        "find_associate_generator", "frac_add", "frac_eq", "frac_is_unit", "frac_mul",
        "Fraction", "GeneratedSubmonoid", "is_irreducible", "kronecker_factor", "lift_dvd",
        "LocalizationOracle", "LocalizationRing", "LocFactorError", "LT",
        "MathDomainError", "OracleViolationError", "parse_expr", "ParseError", "Poly",
        "PreconditionError", "PrimalityCertificate", "PrimeFactorization", "render", "Ring",
        "run_selftest", "SMember", "split_prime_factors", "transfer_irreducible", "transfer_prime_divides", "witness_multiset", "ZX", "ZXY",
        "ZZ",
    ]
