#!/usr/bin/env python3
"""locfactor benchmark: closed-loop CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload zx-compare --seed 1 --seconds 20 --trace 0

One client (this process, one thread) sends ``locfactor.cli.main(argv)``
requests one after another for ``--seconds`` seconds, each under a time
limit, with inputs generated from ``--seed``.  After the timed loop every
output is checked against sympy.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` instead replays the requests of the untraced loop with
every layer wrapped in spans and reports the per-layer metrics, with the
tracing overhead as the ratio of the two runs' request times.  Every metric
is printed by name with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run are written to ``.bench_out/<workload>.spans.jsonl``.

The program is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout

import client
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

TIME_LIMIT_S = 10.0  # per request; a timeout counts as a failure at this latency
SETUP_RUNS = 7  # fresh interpreters timed for setup_s; the median is reported
WARMUP_ARGV = ["factor", "X^2 + 1", "--route", "direct"]  # fills the prime sieve


def import_program():
    """Import ``locfactor.cli`` from this checkout's ``src/`` and nowhere else."""
    package = os.path.join(SRC, "locfactor")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        sys.exit(f"perfbench: no locfactor sources at {package}")
    sys.path.insert(0, SRC)
    from locfactor import cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != package:
        sys.exit(f"perfbench: imported locfactor from {cli.__file__}, not {package}")
    return cli


def warm(cli) -> None:
    """First-call lazy set-up, so that no time limit alarm can land inside it."""
    with redirect_stdout(io.StringIO()):
        if cli.main(WARMUP_ARGV) != 0:
            sys.exit("perfbench: warm-up request failed")


def setup_probe() -> None:
    t0 = time.perf_counter()
    warm(import_program())
    print(time.perf_counter() - t0)


def measure_setup() -> float:
    """Median, over fresh interpreters, of importing locfactor plus the warm-up call."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def require_pristine() -> None:
    left = tracing.leftover_wrappers()
    if left:
        sys.exit(f"perfbench: tracing wrappers still installed: {left}")


def check_results(results: list) -> dict:
    """Check every completed output; returns failure counts and examples."""
    from checker import Checker  # sympy is loaded only from here on

    checker = Checker()
    counts = {"wrong": 0, "error": 0, "timeout": 0}
    examples = []
    verdicts: dict = {}
    for res in results:
        why = None
        if res.status != "ok":
            counts[res.status] += 1
            why = res.status + (": " + res.stderr.strip().splitlines()[-1] if res.stderr.strip() else "")
        else:
            key = (res.request.argv, res.stdout)
            if key not in verdicts:
                verdicts[key] = checker.check(res.request, res.stdout)
            why = verdicts[key]
            if why:
                counts["wrong"] += 1
        if why and len(examples) < 5:
            examples.append(f"{' '.join(res.request.argv)} -> {why}")
    counts["failed"] = counts["wrong"] + counts["error"] + counts["timeout"]
    counts["examples"] = examples
    return counts


def p95(values: list) -> float:
    return statistics.quantiles(values, n=20)[-1] if len(values) > 1 else values[0]


def end_to_end(cli, corpus: list, seconds: float) -> tuple:
    setup_s = measure_setup()
    require_pristine()
    results, wall = client.closed_loop(cli.main, corpus, seconds, TIME_LIMIT_S)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = check_results(results)
    attempted = len(results)
    latencies = [r.seconds * 1000 for r in results]
    good = attempted - counts["failed"]
    metrics = {
        "requests_per_s": (good / wall, "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p95_ms": (p95(latencies), "ms"),
        "ok_share": (good / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    notes = [
        f"requests: {attempted} attempted, {good} correct, wall {wall:.3f} s, "
        f"latency samples {attempted}",
        f"failed_share: {counts['failed'] / attempted} ratio (wrong {counts['wrong']}, "
        f"errors {counts['error']}, timeouts {counts['timeout']})",
    ]
    return metrics, counts, attempted, notes


def per_layer(cli, corpus: list, seconds: float, workload: str) -> tuple:
    tracer = tracing.Tracer()

    def traced_call(argv):
        tracer.start_request()
        return tracer.call(tracing.REQUEST, cli.main, (argv,), {})

    # untraced first: the spans kept in memory would slow a later run's
    # garbage collections and hide the tracing overhead
    require_pristine()
    plain, _ = client.closed_loop(cli.main, corpus, seconds, TIME_LIMIT_S)
    patches = tracing.install(tracer)
    try:
        traced, _ = client.replay(traced_call, [r.request for r in plain], TIME_LIMIT_S)
    finally:
        patches.restore()
    require_pristine()
    counts = check_results(traced + plain)
    metrics = tracing.layer_metrics(tracer, len(traced))
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1
    metrics["trace.overhead_share"] = (overhead, "ratio")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}.spans.jsonl")
    tracer.write(path)
    notes = [
        f"untraced requests: {len(plain)}, traced replay: {len(traced)}, spans: {len(tracer.spans)} "
        f"written to {os.path.relpath(path, ROOT)}",
        "totals over the replay: " + ", ".join(
            f"{name} {value * len(traced):g}" for name, (value, _) in metrics.items()
            if name.endswith((".calls", ".self_ms")) and value),
        f"failed_share: {counts['failed'] / (len(traced) + len(plain))} ratio (wrong {counts['wrong']}, "
        f"errors {counts['error']}, timeouts {counts['timeout']})",
    ]
    return metrics, counts, len(traced) + len(plain), notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    cli = import_program()
    warm(cli)
    corpus = workloads.corpus(args.workload, args.seed)
    if args.trace:
        metrics, counts, attempted, notes = per_layer(cli, corpus, args.seconds, args.workload)
    else:
        metrics, counts, attempted, notes = end_to_end(cli, corpus, args.seconds)

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  trace: {args.trace}")
    for line in notes:
        print(line)
    for example in counts["examples"]:
        print(f"failure: {example}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": attempted,
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
