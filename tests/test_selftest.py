"""The selftest harness itself: determinism, full-suite health, and the
ability to catch a sabotaged engine."""

import subprocess
import sys

import pytest

from locfactor import basefactor, selftest
from locfactor.basefactor import PrimeFactorization
from locfactor.errors import PreconditionError
from locfactor.rings import ZX
from locfactor.selftest import SUITES, run_selftest


def test_all_suites_pass():
    report = run_selftest(seed=42, trials=50)
    assert report.ok, "\n".join(report.lines)
    assert len(report.lines) == len(SUITES)


def test_deterministic_given_seed():
    a = run_selftest(seed=7, trials=5)
    b = run_selftest(seed=7, trials=5)
    assert a == b


def test_sorted_output():
    report = run_selftest(seed=1, trials=1)
    names = [line.split(":")[0] for line in report.lines]
    assert names == sorted(names)


def test_trials_must_be_positive():
    with pytest.raises(PreconditionError):
        run_selftest(seed=1, trials=0)


def test_sabotaged_engine_is_caught(monkeypatch):
    def broken_clear_denominator(ring, f, p, a, c):
        return c  # skips the peeling entirely

    monkeypatch.setattr(selftest, "clear_denominator", broken_clear_denominator)
    report = run_selftest(seed=42, trials=20)
    assert not report.ok
    failing = [l for l in report.lines if "FAIL" in l]
    assert any("loc_clear_denominator" in l and "clear_denominator" in l for l in failing)


def test_unsplit_engine_factor_is_caught(monkeypatch):
    """An engine that leaves a reducible factor unsplit still multiplies back
    to its input, so only the comparison with the reference engine fails."""
    worker = basefactor._kronecker_factor_uncached

    def unsplit(p):
        pf = worker(p)
        if len(pf.factors) < 2:
            return pf
        merged = ZX.mul(pf.factors[0], pf.factors[1])
        return PrimeFactorization.of(ZX, pf.unit, (merged,) + pf.factors[2:])

    monkeypatch.setattr(basefactor, "_kronecker_factor_uncached", unsplit)
    report = run_selftest(seed=42, trials=20)
    lines = {line.split(":")[0]: line for line in report.lines}
    assert "FAIL" in lines["base_engine_reference"]
    assert "Kronecker reference" in lines["base_engine_reference"]
    assert lines["base_reconstruction"] == "base_reconstruction: ok (20 trials)"


def test_cli_requests_do_not_load_the_suites():
    code = (
        "import sys, locfactor, locfactor.cli\n"
        "assert locfactor.cli.main(['factor', 'X^2-1']) == 0\n"
        "assert 'locfactor.selftest' not in sys.modules\n"
        "assert locfactor.run_selftest is sys.modules['locfactor.selftest'].run_selftest\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
