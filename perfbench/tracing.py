"""Spans around the calls into each locfactor layer, recorded from outside.

The program is not instrumented; instead the traced run replaces the public
functions and methods of each layer with wrappers for its duration.  Modules
bind many of these functions by name (``from .basefactor import
factor_poly_zx``), so a wrapper is installed on every binding of the function
in every loaded ``locfactor`` module, not just on the defining one.  Methods
are wrapped on their classes.  ``Patches.restore`` puts every original back.

A span is ``[id, parent id, request id, layer, start, end, key]``; spans are
kept in memory and written out when the run ends.  A layer's self time is its
span's duration minus the durations of its child spans (calls are nested and
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable

MARK = "_perfbench_layer"

# layer name -> (module, attribute) of each function it covers
FUNCTION_LAYERS = {
    "basefactor.kronecker_factor": [("basefactor", "kronecker_factor")],
    "basefactor.factor_poly_zx": [("basefactor", "factor_poly_zx")],
    "basefactor.factor_poly_qx": [("basefactor", "factor_poly_qx")],
    "basefactor.is_irreducible": [("basefactor", "is_irreducible")],
    "basefactor.check_factorization_unique": [("basefactor", "check_factorization_unique")],
    "basefactor.factor_integer": [("basefactor", "factor_integer")],
    "basefactor.factor_bivariate": [("basefactor", "factor_bivariate")],
    "localization.find_associate_generator": [("localization", "find_associate_generator")],
    "descent.descend_factor": [("descent", "descend_factor")],
    "descent.descend_factor_pou": [("descent", "descend_factor_pou")],
    "descent.certify_prime": [("descent", "certify_prime")],
    "routes.prepass": [("routes", "fracfield_submonoid"), ("routes", "iterated_submonoid")],
    "routes.compare_routes": [("routes", "compare_routes")],
    "expr.parse": [("expr", "parse_expr"), ("expr", "parse_in_ring")],
    "expr.render": [("expr", "render")],
    "cli.run_factor": [("cli", "run_factor")],
}

ORACLE_METHODS = ("factor_fraction", "is_prime_embedded", "divides")

# layers whose calls are counted but not timed: too frequent for a span each
COUNT_LAYERS = ("rings.exact_div",)

REQUEST = "request"  # the root span: one cli.main call

# calls of these layers also record their first argument, to count distinct inputs
KEYED_LAYERS = {"basefactor.kronecker_factor"}


def span_layers() -> list:
    return (
        list(FUNCTION_LAYERS)
        + ["localization.GeneratedSubmonoid"]
        + [f"routes.oracle.{m}" for m in ORACLE_METHODS]
    )


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)  # (request id, layer) -> calls
        self.request = -1
        self._stack: list = []

    def start_request(self) -> int:
        self.request += 1
        self._stack = []  # a timeout can leave the previous stack unbalanced
        return self.request

    def call(self, layer: str, fn: Callable, args, kwargs):
        key = args[0] if layer in KEYED_LAYERS and args else None
        rec = [len(self.spans), self._stack[-1] if self._stack else None, self.request, layer,
               time.perf_counter(), None, key]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            return fn(*args, **kwargs)
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def span_wrapper(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, args, kwargs)

        setattr(wrapper, MARK, layer)
        return wrapper

    def count_wrapper(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.request, layer] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, layer)
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, req, layer, start, end, _ in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": req, "name": layer,
                                     "start": start, "end": end}) + "\n")


def _program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "locfactor" or name.startswith("locfactor."))]


def _module(name: str):
    return sys.modules.get(f"locfactor.{name}")


class Patches:
    """Every (owner, attribute, original) replaced by ``install``."""

    def __init__(self):
        self.replaced: list = []

    def set(self, owner, attr: str, original, wrapper) -> None:
        self.replaced.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced = []


def _patch_function(patches: Patches, original, wrapper) -> None:
    for module in _program_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.set(module, attr, original, wrapper)


def _patch_method(patches: Patches, cls, attr: str, make: Callable) -> None:
    original = cls.__dict__.get(attr)
    if original is not None:
        patches.set(cls, attr, original, make(original))


def _oracle_classes() -> list:
    routes, descent = _module("routes"), _module("descent")
    base = getattr(descent, "LocalizationOracle", None)
    if routes is None or base is None:
        return []
    return [c for c in vars(routes).values()
            if isinstance(c, type) and issubclass(c, base) and c is not base
            and c.__module__ == routes.__name__]


def _ring_classes() -> list:
    rings = _module("rings")
    base = getattr(rings, "Ring", None)
    if base is None:
        return []
    return [c for c in vars(rings).values() if isinstance(c, type) and issubclass(c, base)]


def install(tracer: Tracer) -> Patches:
    """Wrap every layer entry point; layers missing from this version are skipped."""
    patches = Patches()
    for layer, targets in FUNCTION_LAYERS.items():
        for module_name, attr in targets:
            original = getattr(_module(module_name), attr, None)
            if callable(original):
                _patch_function(patches, original, tracer.span_wrapper(layer, original))
    submonoid = getattr(_module("localization"), "GeneratedSubmonoid", None)
    if submonoid is not None:
        _patch_method(patches, submonoid, "__init__",
                      lambda f: tracer.span_wrapper("localization.GeneratedSubmonoid", f))
    for cls in _oracle_classes():
        for method in ORACLE_METHODS:
            _patch_method(patches, cls, method,
                          lambda f, m=method: tracer.span_wrapper(f"routes.oracle.{m}", f))
    for cls in _ring_classes():
        _patch_method(patches, cls, "exact_div", lambda f: tracer.count_wrapper("rings.exact_div", f))
    return patches


def leftover_wrappers() -> list:
    """Names of wrappers still bound anywhere in the program; empty when pristine."""
    found = []
    for module in _program_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK) and not isinstance(value, type):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{attr}.{m}" for m, v in vars(value).items()
                          if hasattr(v, MARK)]
    return found


# ---------------------------------------------------------------------------
# aggregation

def self_times(spans: list) -> list:
    """Self time of every span, in seconds, indexed like ``spans``."""
    covered = [0.0] * len(spans)
    for sid, parent, _req, _layer, start, end, _ in spans:
        if parent is not None and end is not None:
            covered[parent] += end - start
    return [(end - start) - covered[sid] if end is not None else 0.0
            for sid, _p, _r, _l, start, end, _ in spans]


def per_request(tracer: Tracer) -> dict:
    """request id -> layer -> {"calls", "self_ms", "keys"}."""
    table: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "keys": set()}))
    for rec, self_s in zip(tracer.spans, self_times(tracer.spans)):
        row = table[rec[2]][rec[3]]
        row["calls"] += 1
        row["self_ms"] += self_s * 1000
        if rec[6] is not None:
            row["keys"].add(rec[6])
    for (req, layer), n in tracer.counts.items():
        table[req][layer]["calls"] += n
    return table


def layer_metrics(tracer: Tracer, requests: int) -> dict:
    """Per-request means and medians of every layer's calls and self time.

    Means are totals divided by ``requests``; medians count a request that
    never entered a layer as 0.
    """
    table = per_request(tracer)
    ids = range(requests)
    out: dict = {}

    def column(layer, field):
        return [table[r][layer][field] for r in ids]

    for layer in span_layers():
        for field, unit in (("calls", "count"), ("self_ms", "ms")):
            col = column(layer, field)
            out[f"{layer}.{field}"] = (sum(col) / requests, unit)
            out[f"{layer}.{field}_p50"] = (statistics.median(col), unit)
    for layer in COUNT_LAYERS:
        col = column(layer, "calls")
        out[f"{layer}.calls"] = (sum(col) / requests, "count")
        out[f"{layer}.calls_p50"] = (statistics.median(col), "count")
    kron = "basefactor.kronecker_factor"
    calls = sum(column(kron, "calls"))
    distinct = sum(len(table[r][kron]["keys"]) for r in ids)
    out[f"{kron}.distinct_share"] = (distinct / calls if calls else 1.0, "ratio")
    return out
