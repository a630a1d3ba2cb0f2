"""Independent correctness check of every CLI output, against sympy.

Imported only after the timed loop (and after peak memory is read), so sympy
never shares the process with a measurement.  For each input the reference
factor multiset comes from sympy's ``factor_list`` (polynomial rings, Laurent
inputs first multiplied by a power of T) and ``factorint`` (integers and
integer content).  An output is right when it reconstructs the input
exactly, its unit is a unit, and its factors match the reference multiset up
to associates.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import Optional

import sympy

X, Y, T = sympy.symbols("X Y T")
_GENS = {"int": (X,), "zx": (X,), "laurent": (T,), "zxy": (Y, X)}
RING_NAMES = {"int": "Z", "zx": "Z[X]", "laurent": "Z[T,T^-1]", "zxy": "Z[X][Y]"}
AUTO_ROUTES = {"int": "direct", "zx": "fracfield", "laurent": "laurent", "zxy": "iterated"}
DESCENT_ROUTES = ("laurent", "fracfield")

_ROUTE_LINE = re.compile(r"^(\w+): unit (.+?); factors \[(.*?)\](?:  \(certificates: (.*)\))?$")
_FACTOR_LINE = re.compile(r"^  (.+?)  \(multiplicity (\d+)\)(?:  \[.*\])?$")


def to_sympy(text: str):
    """Parse an expression as written by the benchmark or rendered by the CLI
    (explicit ``*``, ``^`` for powers)."""
    return sympy.sympify(text.replace("^", "**"), locals={"X": X, "Y": Y, "T": T})


def as_poly(kind: str, text: str) -> tuple:
    """(k, p) with the element equal to T^k * p: p is an integer polynomial,
    with nonzero constant term for Laurent input; k is 0 for the other rings."""
    e = to_sympy(text)
    low = 0
    if kind == "laurent":
        e = sympy.expand(e)
        low = min(term.as_coeff_exponent(T)[1] for term in sympy.Add.make_args(e))
        e = sympy.expand(e * T**-low)
    return int(low), sympy.Poly(e, *_GENS[kind], domain=sympy.ZZ)


def factor_key(p) -> tuple:
    """Canonical representative of the associate class of a factor."""
    if p.is_ground:
        return ("int", abs(int(p.LC())))
    if p.LC() < 0:
        p = -p
    return ("poly", tuple(p.terms()))


def _int_keys(n: int) -> Counter:
    return Counter({("int", q): m for q, m in sympy.factorint(abs(int(n))).items()})


def reference(kind: str, text: str) -> Counter:
    """Factor multiset of the input, up to associates (powers of T are units
    of the Laurent ring and have already been split off by ``as_poly``)."""
    _, p = as_poly(kind, text)
    coeff, factors = p.factor_list()
    keys = _int_keys(coeff)
    for f, m in factors:
        keys[factor_key(f)] += m
    return keys


class Checker:
    """Caches parsed expressions, the sympy reference of each input, and the
    verdict on each distinct factorization (the three compare routes usually
    print the same)."""

    def __init__(self):
        self._parsed: dict = {}
        self._refs: dict = {}
        self._verdicts: dict = {}

    def _poly(self, kind: str, text: str) -> tuple:
        if (kind, text) not in self._parsed:
            self._parsed[kind, text] = as_poly(kind, text)
        return self._parsed[kind, text]

    def _ref(self, kind: str, text: str) -> Counter:
        if (kind, text) not in self._refs:
            self._refs[kind, text] = reference(kind, text)
        return self._refs[kind, text]

    def factorization(self, kind: str, text: str, unit: str, factors: list) -> Optional[str]:
        """Check one factorization, given as a unit and (factor, multiplicity)
        strings; returns None when right, else the reason it is wrong."""
        key = (kind, text, unit, tuple(factors))
        if key not in self._verdicts:
            self._verdicts[key] = self._factorization(kind, text, unit, factors)
        return self._verdicts[key]

    def _factorization(self, kind: str, text: str, unit: str, factors: list) -> Optional[str]:
        low, value = self._poly(kind, unit)
        if not (value.is_ground and abs(value.LC()) == 1):
            return f"unit {unit} is not a unit"
        got = Counter()
        for f, m in factors:
            f_low, f_poly = self._poly(kind, f)
            low += m * f_low
            value *= f_poly**m
            got[factor_key(f_poly)] += m
        if (low, value) != self._poly(kind, text):
            return "factors do not multiply back to the input"
        if got != self._ref(kind, text):
            return "factor multiset differs from the reference"
        return None

    def check(self, request, stdout: str) -> Optional[str]:
        """Check the output of one request; None when right."""
        command = request.argv[0]
        try:
            if command == "compare":
                return self._compare(request, stdout)
            if "--json" in request.argv:
                return self._factor_json(request, stdout)
            return self._factor_text(request, stdout)
        except (ValueError, KeyError, IndexError, TypeError, sympy.SympifyError, sympy.PolynomialError) as e:
            return f"unreadable output: {e}"

    def _compare(self, request, stdout: str) -> Optional[str]:
        lines = stdout.splitlines()
        if lines[:2] != [f"input: {request.expr}", "ring: Z[X]"] or len(lines) != 6:
            return "compare output is not six lines for this input"
        for line, route in zip(lines[2:5], ("direct", "laurent", "fracfield")):
            m = _ROUTE_LINE.match(line)
            if not m or m.group(1) != route:
                return f"missing {route} line"
            factors = [(f, 1) for f in m.group(3).split(", ")] if m.group(3) else []
            if route in DESCENT_ROUTES:
                certs = sum(int(c.split()[0]) for c in (m.group(4) or "").split(", ") if c)
                if certs != len(factors):
                    return f"{route}: {certs} certificates for {len(factors)} factors"
            why = self.factorization("zx", request.expr, m.group(2), factors)
            if why:
                return f"{route}: {why}"
        if lines[5] != "agreement: direct ~ laurent, direct ~ fracfield, laurent ~ fracfield":
            return "agreement line does not list all three pairs"
        return None

    def _factor_text(self, request, stdout: str) -> Optional[str]:
        lines = stdout.splitlines()
        argv = list(request.argv)
        route = argv[argv.index("--route") + 1] if "--route" in argv else AUTO_ROUTES[request.kind]
        head = [f"input: {request.expr}", f"ring: {RING_NAMES[request.kind]}", f"route: {route}"]
        if lines[:3] != head or not lines[3].startswith("unit: ") or lines[4] != "factors:":
            return "factor output header does not match the input"
        factors = []
        for line in lines[5:]:
            if line == "  (none; the input is a unit)":
                continue
            m = _FACTOR_LINE.match(line)
            if not m:
                return f"unreadable factor line {line!r}"
            factors.append((m.group(1), int(m.group(2))))
        return self.factorization(request.kind, request.expr, lines[3][len("unit: "):], factors)

    def _factor_json(self, request, stdout: str) -> Optional[str]:
        doc = json.loads(stdout)
        if doc["version"] != "1" or doc["input"] != request.expr:
            return "JSON version or input does not match"
        if doc["ring"] != RING_NAMES[request.kind] or doc["route"] != AUTO_ROUTES[request.kind]:
            return f"unexpected ring {doc['ring']} or route {doc['route']}"
        if doc["route"] != "direct" and any(f["certificate"] is None for f in doc["factors"]):
            return "a descent-route factor has no certificate"
        factors = [(f["expr"], f["multiplicity"]) for f in doc["factors"]]
        return self.factorization(request.kind, request.expr, doc["unit"], factors)
