"""Tests of the benchmark itself: generators, checker, time limit and tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import client
import run
import tracing
import workloads
from workloads import Request

cli = run.import_program()
run.warm(cli)

from locfactor import expr  # noqa: E402  (importable once run.import_program ran)


def _result(request, stdout):
    return client.Result(request, 0.001, "ok", 0, stdout, "")


def _real(request):
    with client.AlarmHandler():
        res = client.run_one(cli.main, request, 10.0)
    assert res.status == "ok", res.stderr
    return res


# ---------------------------------------------------------------------------
# generators

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corpus_depends_only_on_seed(name):
    assert workloads.corpus(name, 7, 30) == workloads.corpus(name, 7, 30)
    assert workloads.corpus(name, 7, 30) != workloads.corpus(name, 8, 30)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_parse_to_their_ring_inside_the_caps(name):
    rings = {"int": "Z", "zx": "Z[X]", "laurent": "Z[T,T^-1]", "zxy": "Z[X][Y]"}
    for req in workloads.corpus(name, 3, 200):
        ring, element = expr.parse_expr(req.expr)
        assert ring.name == rings[req.kind], req.expr
        if req.kind == "zx":
            assert 1 <= len(element.coeffs) - 1 <= 16  # never a constant
            assert max(abs(c) for c in element.coeffs) <= 10**6
            if name == "near-cap-direct":
                assert len(element.coeffs) - 1 >= 10
        if req.kind == "zxy":
            deg_y = len(element.coeffs) - 1
            deg_x = max(len(c.coeffs) - 1 for c in element.coeffs if c.coeffs)
            assert 1 <= deg_y <= 4 and deg_x <= 4
            assert deg_y * (2 * deg_x + 1) + deg_x <= 16
        if req.kind == "int":
            assert 2 <= abs(element) <= 10**12


def test_small_irreducibility_test():
    assert workloads.is_irreducible_small([1, 0, 1])  # X^2 + 1
    assert not workloads.is_irreducible_small([-1, 0, 1])  # (X - 1)(X + 1)
    assert not workloads.is_irreducible_small([2, 4])  # content 2
    assert workloads.is_irreducible_small([-2, 0, 0, 1])  # X^3 - 2
    assert not workloads.is_irreducible_small([-8, 0, 0, 1])  # root 2


# ---------------------------------------------------------------------------
# checker

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checker_accepts_real_outputs(name):
    results = [_real(r) for r in workloads.corpus(name, 5, 12)]
    counts = run.check_results(results)
    assert counts["failed"] == 0, counts["examples"]


def test_wrong_factor_list_counts_as_wrong():
    req = Request("zx", ("factor", "--json", "--", "X^2 - 1"), "X^2 - 1")
    doc = json.loads(_real(req).stdout)
    # the product is right, but X^2 - 1 is not irreducible
    doc["factors"] = [{"expr": "X^2 - 1", "multiplicity": 1, "certificate": doc["factors"][0]["certificate"]}]
    counts = run.check_results([_result(req, json.dumps(doc))])
    assert counts["wrong"] == 1 and counts["failed"] == 1


def test_broken_reconstruction_counts_as_wrong():
    req = Request("zx", ("compare", "--", "2*X^2 - 2"), "2*X^2 - 2")
    good = _real(req).stdout
    assert "factors [2, X - 1, X + 1]" in good
    broken = good.replace("laurent: unit 1; factors [2, X - 1, X + 1]",
                          "laurent: unit 1; factors [2, X - 1, X + 2]")
    assert broken != good
    counts = run.check_results([_result(req, good), _result(req, broken)])
    assert counts["wrong"] == 1


def test_missing_agreement_pair_counts_as_wrong():
    req = Request("zx", ("compare", "--", "X^2 + 1"), "X^2 + 1")
    good = _real(req).stdout
    broken = good.replace(", laurent ~ fracfield", "")
    assert run.check_results([_result(req, broken)])["wrong"] == 1


def test_descent_factor_without_certificate_counts_as_wrong():
    req = Request("laurent", ("factor", "--json", "--", "T + 2"), "T + 2")
    doc = json.loads(_real(req).stdout)
    doc["factors"][0]["certificate"] = None
    assert run.check_results([_result(req, json.dumps(doc))])["wrong"] == 1


# ---------------------------------------------------------------------------
# time limit

def test_request_over_the_limit_counts_as_timeout():
    slow = Request("zx", ("factor", "--route", "direct", "--", "X^16 + 720720"), "X^16 + 720720")
    fast = Request("zx", ("factor", "--route", "direct", "--", "X^2 - 4"), "X^2 - 4")
    results, _ = client.replay(cli.main, [slow, fast], 0.2)
    assert [r.status for r in results] == ["timeout", "ok"]
    assert results[0].seconds == 0.2
    counts = run.check_results(results)
    assert counts["timeout"] == 1 and counts["failed"] == 1


def test_warm_up_fills_the_prime_sieve():
    from locfactor import basefactor

    sieve = getattr(basefactor, "_SMALL_PRIMES", None)
    if sieve is None:
        pytest.skip("this version builds no prime sieve lazily")
    assert sieve  # an alarm can no longer land while it is being filled


def test_timeout_is_not_a_library_error():
    from locfactor.errors import LocFactorError

    assert not issubclass(client.RequestTimeout, LocFactorError)


# ---------------------------------------------------------------------------
# tracing

def _traced(requests):
    tracer = tracing.Tracer()

    def call(argv):
        tracer.start_request()
        return tracer.call(tracing.REQUEST, cli.main, (argv,), {})

    patches = tracing.install(tracer)
    try:
        results, _ = client.replay(call, requests, 10.0)
    finally:
        patches.restore()
    return tracer, results


def _bindings():
    """Every (module, attribute) -> object in the program, for identity checks."""
    return {(m.__name__, a): v for m in tracing._program_modules() for a, v in vars(m).items()
            if callable(v)}


def test_wrappers_reach_every_binding_and_are_restored():
    from locfactor import basefactor, cli as cli_module, routes

    before = _bindings()
    methods = {c: dict(vars(c)) for c in tracing._oracle_classes() + tracing._ring_classes()}
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        for module, name in ((routes, "factor_poly_zx"), (cli_module, "factor_integer"),
                             (routes, "certify_prime"), (basefactor, "kronecker_factor"),
                             (cli_module, "compare_routes")):
            assert hasattr(getattr(module, name), tracing.MARK), f"{module.__name__}.{name}"
        assert hasattr(routes.LaurentOracle.factor_fraction, tracing.MARK)
    finally:
        patches.restore()
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
    for cls, attrs in methods.items():
        assert all(vars(cls)[a] is v for a, v in attrs.items())


def test_near_cap_direct_makes_one_kronecker_call_per_request():
    requests = workloads.corpus("near-cap-direct", 2, 14)
    tracer, results = _traced(requests)
    assert all(r.status == "ok" for r in results)
    per_request = [0] * len(requests)
    for rec in tracer.spans:
        if rec[3] == "basefactor.kronecker_factor":
            per_request[rec[2]] += 1
    assert per_request == [1] * len(requests)
    metrics = tracing.layer_metrics(tracer, len(requests))
    assert metrics["basefactor.kronecker_factor.calls"][0] == 1


def test_compare_spans_nest_under_compare_routes():
    tracer, _ = _traced([Request("zx", ("compare", "--", "6*X^2 - 6"), "6*X^2 - 6")])
    names = {rec[0]: rec[3] for rec in tracer.spans}
    parents = {names[rec[1]] for rec in tracer.spans
               if rec[3] == "basefactor.factor_poly_zx" and rec[1] is not None}
    assert "routes.compare_routes" in parents  # the direct route, bound in routes


def test_self_times_of_a_request_sum_to_its_wall_time():
    requests = workloads.corpus("zx-compare", 4, 5)
    tracer, results = _traced(requests)
    selfs = tracing.self_times(tracer.spans)
    for rid, res in enumerate(results):
        spans = [(rec, s) for rec, s in zip(tracer.spans, selfs) if rec[2] == rid]
        root = next(rec for rec, _ in spans if rec[3] == tracing.REQUEST)
        total = sum(s for _, s in spans)
        assert total == pytest.approx(root[5] - root[4], rel=1e-9, abs=1e-9)
        # the client's own work around the root span: redirects and the timer
        assert 0 <= res.seconds - total < 0.002


# ---------------------------------------------------------------------------
# the command

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _run_command(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_reports_every_declared_metric(trace, section):
    done = _run_command(run.ROOT, "--workload", "zx-compare", "--seed", "3", "--seconds", "1",
                        "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    for name in declared:  # every metric is also printed by name with its unit
        assert f"\n{name}: " in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(Path(run.ROOT) / "BENCHMARK.json", tmp_path)
    done = _run_command(tmp_path, "--workload", "zx-compare", "--seed", "1", "--seconds", "1",
                        "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout
