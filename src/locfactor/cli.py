"""Command-line interface.

    locfactor factor <expr> [--route direct|laurent|fracfield|auto] [--json] [--verbose]
    locfactor compare <expr> [--verbose]
    locfactor selftest [--seed N] [--trials N]

Expressions use the variables X, Y, T (integers for Z, X for Z[X], T for the
Laurent ring, Y or X+Y for Z[X][Y]).  With no expression argument, lines are
read from stdin (batch mode; JSON output is newline-delimited).

Exit codes: 0 ok, 1 usage or parse error, 2 math-domain error, 3 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import NamedTuple, Optional

from . import expr
from .basefactor import (
    PrimeFactorization,
    factor_bivariate,
    factor_integer,
    factor_poly_zx,
    request_memo,
)
from .errors import LocFactorError, OracleViolationError, ParseError
from .rings import ZX, ZXY, ZZ, Ring

JSON_SCHEMA_VERSION = "1"

# The descent layer (routes, descent, localization) is imported by the first
# request that descends, so direct requests, integer input and parse and
# usage errors never load it.  These names of it stay readable as attributes
# of this module; calls go through ``routes.<name>`` at call time.
_ROUTES_NAMES = frozenset({
    "compare_routes",
    "factor_iterated",
    "factor_laurent",
    "factor_zx_via_fraction_field",
    "factor_zx_via_laurent",
})


def __getattr__(name):
    if name in _ROUTES_NAMES:
        from . import routes

        return getattr(routes, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class FactorOutcome(NamedTuple):
    ring: Ring
    route: str
    factorization: PrimeFactorization
    certificates: Optional[tuple]
    elapsed: float
    texts: dict  # the printed text of the unit and of each distinct factor


def _rendered(ring: Ring, elements) -> dict:
    """Render each distinct element once; each text must re-parse to exactly
    its element, so what is printed is what was computed."""
    texts: dict = {}
    for a in elements:
        if a not in texts:
            texts[a] = expr.render(ring, a)
            if not ring.eq(expr.parse_in_ring(texts[a], ring), a):
                raise OracleViolationError("rendered factorization does not re-parse to the input")
    return texts


def run_factor(ring: Ring, element, route: str) -> FactorOutcome:
    """Dispatch to the engine matching the ring and requested route.

    The dispatch runs inside one request memo, so each distinct primitive
    polynomial is factored by the Z[X] engine once.
    """
    t0 = time.perf_counter()
    certs = None
    with request_memo():
        if ring == ZZ:
            if route not in ("auto", "direct"):
                raise UsageError(f"route {route!r} is not available for integers")
            route, pf = "direct", factor_integer(element)
        elif ring == ZX:
            if route in ("auto", "fracfield"):
                from . import routes

                route, res = "fracfield", routes.factor_zx_via_fraction_field(element)
                pf, certs = res.factorization, res.certificates
            elif route == "laurent":
                from . import routes

                res = routes.factor_zx_via_laurent(element)
                pf, certs = res.factorization, res.certificates
            else:
                route, pf = "direct", factor_poly_zx(element)
        elif ring == ZXY:
            if route in ("auto", "fracfield"):
                from . import routes

                route, res = "iterated", routes.factor_iterated(element)
                pf, certs = res.factorization, res.certificates
            elif route == "direct":
                pf = factor_bivariate(element)
            else:
                raise UsageError(f"route {route!r} is not available for bivariate input")
        else:  # Laurent input
            if route == "fracfield":
                raise UsageError("route 'fracfield' is not available for Laurent input")
            from . import routes

            route, res = "laurent", routes.factor_laurent(element)
            pf, certs = res.factorization, res.certificates
    elapsed = time.perf_counter() - t0
    return FactorOutcome(ring, route, pf, certs, elapsed, _rendered(ring, (pf.unit, *pf.factors)))


def _grouped_factors(outcome: FactorOutcome):
    """(text, multiplicity, certificate) rows, one per distinct factor, in
    the order of first appearance, with the first factor's certificate."""
    rows: dict = {}
    pf = outcome.factorization
    for q, cert in zip(pf.factors, outcome.certificates or (None,) * len(pf.factors)):
        mult, first = rows.get(q, (0, cert))
        rows[q] = (mult + 1, first)
    return [(outcome.texts[q], mult, cert) for q, (mult, cert) in rows.items()]


def _factor_json(outcome: FactorOutcome, text: str) -> str:
    factors = [
        {
            "expr": q,
            "multiplicity": mult,
            "certificate": None if cert is None else {"case": cert.case, "detail": cert.detail()},
        }
        for q, mult, cert in _grouped_factors(outcome)
    ]
    doc = {
        "version": JSON_SCHEMA_VERSION,
        "input": text,
        "ring": outcome.ring.name,
        "route": outcome.route,
        "unit": outcome.texts[outcome.factorization.unit],
        "factors": factors,
    }
    return json.dumps(doc, separators=(",", ":"))


def _factor_text(outcome: FactorOutcome, text: str, verbose: bool) -> str:
    lines = [
        f"input: {text}",
        f"ring: {outcome.ring.name}",
        f"route: {outcome.route}",
        f"unit: {outcome.texts[outcome.factorization.unit]}",
        "factors:",
    ]
    rows = _grouped_factors(outcome)
    if not rows:
        lines.append("  (none; the input is a unit)")
    for q, mult, cert in rows:
        tail = "" if cert is None else f"  [{cert.case}: {cert.detail()}]"
        lines.append(f"  {q}  (multiplicity {mult}){tail}")
    if verbose:
        lines.append(f"elapsed: {outcome.elapsed:.6f}s")
        if outcome.certificates:
            replays = all(c.replay() for c in outcome.certificates)
            lines.append(f"certificate replay: {'ok' if replays else 'FAILED'}")
    return "\n".join(lines)


def _cert_summary(certificates) -> str:
    if not certificates:
        return ""
    counts: dict = {}
    for c in certificates:
        counts[c.case] = counts.get(c.case, 0) + 1
    inner = ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
    return f"  (certificates: {inner})"


def _compare_text(report, text: str, verbose: bool) -> str:
    lines = [f"input: {text}", "ring: Z[X]"]
    pfs = [run.factorization for run in report.runs]
    texts = _rendered(ZX, (a for pf in pfs for a in (pf.unit, *pf.factors)))
    for run, pf in zip(report.runs, pfs):
        factors = ", ".join(texts[q] for q in pf.factors)
        lines.append(f"{run.route}: unit {texts[pf.unit]}; factors [{factors}]{_cert_summary(run.certificates)}")
    lines.append("agreement: " + ", ".join(f"{a} ~ {b}" for a, b in report.agreements))
    if verbose:
        for run in report.runs:
            lines.append(f"elapsed {run.route}: {run.elapsed:.6f}s")
    return "\n".join(lines)


def _iter_inputs(args):
    """The expression argument, or each nonblank stdin line as it is read."""
    if args.expr is not None:
        return (args.expr,)
    return (line.strip() for line in sys.stdin if line.strip())


def _factor_one(args, text: str) -> str:
    ring, element = expr.parse_expr(text)
    outcome = run_factor(ring, element, args.route)
    if args.json:
        return _factor_json(outcome, text)
    return _factor_text(outcome, text, args.verbose)


def _compare_one(args, text: str) -> str:
    ring, element = expr.parse_expr(text)
    if ring != ZX:
        raise UsageError("compare requires a Z[X] expression")
    from . import routes

    return _compare_text(routes.compare_routes(element), text, args.verbose)


def _run_inputs(args, one, separate: bool) -> int:
    """Print ``one(args, text)`` for every input; return the worst exit code.

    A single expression stops at its error.  Batch mode reports the error and
    goes on, and ends each report with a blank line when ``separate`` is set.
    """
    worst = 0
    batch = args.expr is None
    for text in _iter_inputs(args):
        try:
            # batch reports are flushed, so a caller on a pipe sees each one at once
            print(one(args, text) + ("\n" if batch and separate else ""), flush=batch)
        except (UsageError, LocFactorError) as e:
            code = _exit_code_for(e)
            print(f"error: {e}", file=sys.stderr)
            if not batch:
                return code
            worst = max(worst, code)
    return worst


def _do_selftest(args) -> int:
    from .selftest import run_selftest  # loaded on demand: factor and compare never need it

    report = run_selftest(args.seed, args.trials)
    for line in report.lines:
        print(line)
    print("all suites pass" if report.ok else "SELFTEST FAILED")
    return 0 if report.ok else 3


def _exit_code_for(e: Exception) -> int:
    if isinstance(e, (ParseError, UsageError)):
        return 1
    if isinstance(e, OracleViolationError):
        return 3
    return 2


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv, reading an expression that starts with "-" as the expression.

    argparse takes "-9*T^-1" for an unknown option; a single such argument
    left over where the expression belongs is the expression instead.
    """
    args, extras = parser.parse_known_args(argv)
    if (
        args.command in ("factor", "compare")
        and args.expr is None
        and len(extras) == 1
        and not extras[0].startswith("--")
    ):
        args.expr = extras.pop()
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    parser = _Parser(prog="locfactor", description="exact factorization, cross-checked through localization descent")
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor one expression (or stdin lines)")
    p_factor.add_argument("expr", nargs="?", help="expression; omit to read stdin")
    p_factor.add_argument("--route", choices=("direct", "laurent", "fracfield", "auto"), default="auto")
    p_factor.add_argument("--json", action="store_true", help="machine output (schema version 1)")
    p_factor.add_argument("--verbose", action="store_true", help="print certificate replays and timing")

    p_compare = sub.add_parser("compare", help="run all Z[X] routes and check agreement")
    p_compare.add_argument("expr", nargs="?")
    p_compare.add_argument("--verbose", action="store_true")

    p_self = sub.add_parser("selftest", help="run the randomized property suites")
    p_self.add_argument("--seed", type=int, default=42)
    p_self.add_argument("--trials", type=int, default=100)

    try:
        args = _parse_args(parser, argv)
        if args.command == "factor":
            return _run_inputs(args, _factor_one, separate=not args.json)
        if args.command == "compare":
            return _run_inputs(args, _compare_one, separate=True)
        return _do_selftest(args)
    except (UsageError, LocFactorError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code_for(e)


if __name__ == "__main__":
    sys.exit(main())
