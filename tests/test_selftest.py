"""The selftest harness itself: determinism, full-suite health, and the
ability to catch a sabotaged engine."""

import subprocess
import sys

import pytest

from locfactor import selftest
from locfactor.errors import PreconditionError
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


def test_cli_requests_do_not_load_the_suites():
    code = (
        "import sys, locfactor, locfactor.cli\n"
        "assert locfactor.cli.main(['factor', 'X^2-1']) == 0\n"
        "assert 'locfactor.selftest' not in sys.modules\n"
        "assert locfactor.run_selftest is sys.modules['locfactor.selftest'].run_selftest\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
