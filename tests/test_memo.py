"""The request-scoped memo of the polynomial engines (``kronecker_factor``,
``factor_poly_zx`` and ``factor_bivariate``): one factorization per distinct
input at each engine, no leakage across requests, certificate replay from
scratch, and identical output with and without the memo."""

import contextlib
import io
import random
import sys
from collections import Counter

import pytest

from locfactor import basefactor, expr
from locfactor.basefactor import kronecker_factor, request_memo
from locfactor.cli import main, run_factor
from locfactor.errors import DeskScaleError
from locfactor.rings import LT, ZX, ZXY
from locfactor.routes import compare_routes, factor_iterated, factor_zx_via_laurent

# the uncached body behind each memoized engine
ENGINE_BODIES = ("_kronecker_factor_uncached", "_factor_poly_zx_uncached", "_factor_bivariate_uncached")


def _count_worker(monkeypatch, body: str = "_kronecker_factor_uncached") -> list:
    """Record every input of the uncached engine body ``body``."""
    seen = []
    worker = getattr(basefactor, body)

    def counting(p):
        seen.append(p)
        return worker(p)

    monkeypatch.setattr(basefactor, body, counting)
    return seen


def _memo_off(monkeypatch) -> None:
    """Replace request_memo by a no-op at every binding in the package."""
    original = basefactor.request_memo
    patched = []
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "locfactor" or name.startswith("locfactor.")):
            if vars(module).get("request_memo") is original:
                monkeypatch.setattr(module, "request_memo", contextlib.nullcontext)
                patched.append(name)
    assert {"locfactor.basefactor", "locfactor.routes", "locfactor.cli"} <= set(patched)


def test_no_memo_outside_a_request():
    assert basefactor._REQUEST_MEMO.get() is None


def test_compare_searches_each_distinct_input_once(monkeypatch):
    seen = _count_worker(monkeypatch)
    f = expr.parse_in_ring("(X^4+X+1)(X^4-3X^2+5)(X^3+2)*6", ZX)
    compare_routes(f)
    counts = Counter(seen)
    assert counts and set(counts.values()) == {1}
    assert len(seen) > 1  # the routes refactor more than the input itself


def test_compare_runs_each_engine_body_once_per_input(monkeypatch):
    seen = {body: _count_worker(monkeypatch, body) for body in ENGINE_BODIES[:2]}
    f = expr.parse_in_ring("(X^4+X+1)(X^4-3X^2+5)(X^3+2)*6", ZX)
    compare_routes(f)
    for body, inputs in seen.items():
        counts = Counter(inputs)
        assert len(counts) > 1 and set(counts.values()) == {1}, body


def test_iterated_runs_the_bivariate_body_once_per_input(monkeypatch):
    seen = _count_worker(monkeypatch, "_factor_bivariate_uncached")
    factor_iterated(expr.parse_in_ring("2*X^2*Y^2-2*X^2", ZXY))
    counts = Counter(seen)
    assert len(counts) > 1 and set(counts.values()) == {1}


def test_without_a_memo_the_search_repeats(monkeypatch):
    seen = _count_worker(monkeypatch)
    f = ZX.make([2, 3, 1])  # (X+1)(X+2)
    kronecker_factor(f)
    kronecker_factor(f)
    assert seen == [f, f]


def test_nested_scopes_share_one_memo(monkeypatch):
    seen = _count_worker(monkeypatch)
    f = ZX.make([2, 3, 1])
    with request_memo():
        outer = basefactor._REQUEST_MEMO.get()
        kronecker_factor(f)
        with request_memo():
            assert basefactor._REQUEST_MEMO.get() is outer
            kronecker_factor(f)
        assert basefactor._REQUEST_MEMO.get() is outer
    assert seen == [f]
    assert basefactor._REQUEST_MEMO.get() is None


def test_failed_search_is_not_stored():
    too_big = ZX.make([1] * 18)  # degree 17, over the desk-scale cap
    with request_memo():
        for _ in range(2):
            with pytest.raises(DeskScaleError):
                kronecker_factor(too_big)
        assert basefactor._REQUEST_MEMO.get() == {}


class TestNoLeakage:
    def test_run_factor_returns(self):
        run_factor(ZX, expr.parse_in_ring("X^3-X", ZX), "auto")
        assert basefactor._REQUEST_MEMO.get() is None

    def test_compare_routes_returns(self):
        compare_routes(expr.parse_in_ring("6X^2-6", ZX))
        assert basefactor._REQUEST_MEMO.get() is None

    def test_run_factor_raises_from_the_bivariate_cap(self):
        with pytest.raises(DeskScaleError):
            run_factor(ZXY, expr.parse_in_ring("Y^5+1", ZXY), "auto")
        assert basefactor._REQUEST_MEMO.get() is None

    def test_compare_routes_raises(self):
        with pytest.raises(DeskScaleError):
            compare_routes(ZX.make([1] * 18))
        assert basefactor._REQUEST_MEMO.get() is None

    def test_separate_requests_search_again(self, monkeypatch):
        seen = _count_worker(monkeypatch)
        f = expr.parse_in_ring("X^2-1", ZX)
        run_factor(ZX, f, "direct")
        run_factor(ZX, f, "direct")
        assert seen == [f, f]


def test_replay_recomputes_inside_an_open_memo(monkeypatch):
    seen = _count_worker(monkeypatch)
    with request_memo():
        memo = basefactor._REQUEST_MEMO.get()
        res = factor_zx_via_laurent(expr.parse_in_ring("X^3+X^2+X+1", ZX))
        cert = next(c for c in res.certificates if c.case == "localization")
        before = len(seen)
        assert cert.replay()
        assert len(seen) > before
        assert basefactor._REQUEST_MEMO.get() is memo


def test_replay_reaches_every_engine_body_inside_an_open_memo(monkeypatch):
    with request_memo():
        res = factor_iterated(expr.parse_in_ring("2*X^2*Y^2-2*X^2", ZXY))
        certs = [c for c in res.certificates if c.case == "localization"]
        seen = {body: _count_worker(monkeypatch, body) for body in ENGINE_BODIES}
        assert certs and all(cert.replay() for cert in certs)
    assert all(seen.values()), seen


def _seeded_inputs(count: int) -> list:
    """Products of small factors in Z[X], a few Laurent and bivariate ones."""
    rng = random.Random("memo-equivalence")
    out = []
    for i in range(count):
        if i % 10 == 8:
            body = ZX.make([rng.randint(-5, 5) for _ in range(rng.randint(2, 5))] + [1])
            out.append(expr.render(LT, LT.mul(LT.from_poly(body), LT.t_power(-rng.randint(0, 3)))))
            continue
        if i % 10 == 9:
            lin = ZXY.make([ZX.make([rng.randint(-3, 3), rng.randint(1, 3)]), ZX.one])
            out.append(expr.render(ZXY, ZXY.mul(lin, ZXY.make([ZX.from_int(rng.randint(-3, 3)), ZX.one]))))
            continue
        p = ZX.from_int(rng.choice([1, 1, 2, 6, 12, -1, -3]))
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            q = ZX.make([rng.randint(-3, 3) for _ in range(deg)] + [rng.randint(1, 3)])
            p = ZX.mul(p, q)
        out.append(expr.render(ZX, p))
    return out


_COMMANDS = (
    ["factor", "--route", "direct"],
    ["factor", "--route", "laurent"],
    ["factor", "--route", "fracfield"],
    ["factor", "--route", "auto"],
    ["factor", "--json"],
    ["compare"],
)


def _run_all(inputs) -> list:
    results = []
    for text in inputs:
        for command in _COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(command + [text])
            results.append((command, text, rc, out.getvalue(), err.getvalue()))
    return results


def test_output_identical_without_the_memo(monkeypatch):
    inputs = _seeded_inputs(50)
    seen = {body: _count_worker(monkeypatch, body) for body in ENGINE_BODIES}
    with_memo = _run_all(inputs)
    runs_with = {body: len(calls) for body, calls in seen.items()}
    _memo_off(monkeypatch)
    without_memo = _run_all(inputs)
    for body, calls in seen.items():  # the memo really was off at every engine
        assert len(calls) - runs_with[body] > runs_with[body], body
    assert sum(rc == 0 for _, _, rc, _, _ in with_memo) > len(with_memo) // 2
    for a, b in zip(with_memo, without_memo):
        assert a == b
