"""Closed-loop client: one process, one thread, one request in flight.

Each request is an in-process ``locfactor.cli.main(argv)`` call with stdout
and stderr captured.  A per-request time limit is enforced with
``signal.setitimer(ITIMER_REAL)`` in the main thread, so no extra thread or
process is started.
"""

from __future__ import annotations

import io
import signal
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional


class RequestTimeout(Exception):
    """Raised from SIGALRM when a request exceeds its limit.

    Deliberately not a ``LocFactorError``, so ``cli.main`` cannot catch it
    and turn it into an exit code.
    """


@dataclass
class Result:
    request: object  # workloads.Request
    seconds: float  # wall time; a timed-out request counts at the limit
    status: str  # "ok", "error" or "timeout"; wrong answers are found later
    rc: Optional[int]
    stdout: str
    stderr: str


def _alarm(signum, frame):
    raise RequestTimeout()


def run_one(call: Callable, request, limit: float) -> Result:
    """Issue one request through ``call(argv) -> exit code`` under the time limit."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    status = "ok"
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = call(list(request.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        status = "timeout"
    except Exception:  # an exception escaping cli.main is a failed request
        status = "error"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if status == "timeout":
        seconds = limit
    elif rc != 0:
        status = "error"
    return Result(request, seconds, status, rc, out.getvalue(), err.getvalue())


class AlarmHandler:
    """Context manager installing the SIGALRM handler for the client's lifetime."""

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, _alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def closed_loop(call: Callable, corpus: list, seconds: float, limit: float) -> tuple[list, float]:
    """Send corpus requests in order, each after the previous one completed,
    until ``seconds`` have passed; cycles the corpus if it runs out.

    Returns the results and the wall time of the whole loop.
    """
    results = []
    with AlarmHandler():
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            results.append(run_one(call, corpus[len(results) % len(corpus)], limit))
        wall = time.perf_counter() - start
    return results, wall


def replay(call: Callable, requests: list, limit: float) -> tuple[list, float]:
    """Send exactly these requests in order; returns results and wall time."""
    with AlarmHandler():
        start = time.perf_counter()
        results = [run_one(call, r, limit) for r in requests]
        wall = time.perf_counter() - start
    return results, wall
