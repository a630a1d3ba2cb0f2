"""CLI behavior: output shapes, exit codes, batch mode, JSON schema."""

import contextlib
import io
import json
import subprocess
import sys
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locfactor import routes
from locfactor.basefactor import PrimeFactorization
from locfactor.cli import main
from locfactor.expr import parse_in_ring, render
from locfactor.rings import ZX, ZXY
from locfactor.selftest import kronecker_reference


def run_cli(args, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return main(args)


def _merging(ring, engine):
    """``engine`` with the first two factors of each answer merged into one."""
    def merged(f):
        pf = engine(f)
        if len(pf.factors) < 2:
            return pf
        return PrimeFactorization(pf.unit, (ring.mul(*pf.factors[:2]),) + pf.factors[2:])
    return merged


class TestFactorCommand:
    def test_json_schema_shape(self, capsys):
        assert main(["factor", "X^2-1", "--route", "fracfield", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "1"
        assert doc["ring"] == "Z[X]"
        assert doc["route"] == "fracfield"
        assert set(doc) == {"version", "input", "ring", "route", "unit", "factors"}
        for f in doc["factors"]:
            assert set(f) == {"expr", "multiplicity", "certificate"}
            assert f["certificate"]["case"] in ("generator", "localization")

    def test_multiplicity_aggregation(self, capsys):
        assert main(["factor", "X^2(X+1)", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_expr = {f["expr"]: f["multiplicity"] for f in doc["factors"]}
        assert by_expr == {"X": 2, "X + 1": 1}

    def test_integer_input(self, capsys):
        assert main(["factor", "-12", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ring"] == "Z" and doc["unit"] == "-1"
        assert [f["expr"] for f in doc["factors"]] == ["2", "3"]
        assert [f["multiplicity"] for f in doc["factors"]] == [2, 1]
        assert all(f["certificate"] is None for f in doc["factors"])

    def test_laurent_json(self, capsys):
        assert main(["factor", "T^-1+T", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ring"] == "Z[T,T^-1]"
        assert doc["unit"] == "T^-1"
        assert doc["factors"][0]["certificate"]["case"] == "localization"

    def test_bivariate(self, capsys):
        assert main(["factor", "X*Y+X"]) == 0
        out = capsys.readouterr().out
        assert "route: iterated" in out and "Y + 1" in out

    def test_verbose_replay(self, capsys):
        assert main(["factor", "X^3+X^2", "--route", "laurent", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "certificate replay: ok" in out

    def test_unit_input(self, capsys):
        assert main(["factor", "1"]) == 0
        assert "(none; the input is a unit)" in capsys.readouterr().out


class TestExitCodes:
    def test_parse_error(self, capsys):
        for text in ("X^-1", "X\u00b2", "3\u00b2"):  # X², 3²: int() rejects superscripts
            assert main(["factor", text]) == 1
            assert "error:" in capsys.readouterr().err
        # an unknown name is echoed up to 20 characters, then by its length
        assert main(["factor", "X" * 100_000]) == 1
        err = capsys.readouterr().err
        assert err == "error: unknown variable 'XXXXXXXXXXXXXXXXXXXX'... of 100000 characters (at position 0)\n"
        assert len(err) < 100

    def test_usage_error(self, capsys):
        assert main(["factor", "T+1", "--route", "fracfield"]) == 1
        assert main(["nonsense"]) == 1

    def test_math_domain_error(self, capsys):
        assert main(["factor", "0"]) == 2
        assert main(["factor", "X-X"]) == 2
        assert main(["compare", "X-X"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: cannot factor zero"

    def test_desk_scale_error(self, capsys):
        assert main(["factor", "Y^5+1"]) == 2
        capsys.readouterr()
        # primes above the Miller-Rabin exact bound are refused, not searched
        for text in ("2^89-1", "1000000000000000000000000000057"):
            t0 = time.monotonic()
            assert main(["factor", text]) == 2
            assert time.monotonic() - t0 < 1
            assert capsys.readouterr().err.startswith("error: desk-scale limit: cannot prove")
        # two primes near 10^14: Pollard rho gives up at its iteration budget
        t0 = time.monotonic()
        assert main(["factor", "100000000000031*100000000000067"]) == 2
        assert time.monotonic() - t0 < 15
        assert capsys.readouterr().err.startswith("error: desk-scale limit: Pollard rho found no factor")

    def test_inputs_the_divisor_search_could_not_finish(self, capsys):
        # each ran from 30 s to over a minute under Kronecker's divisor
        # search; each is irreducible (sympy agrees)
        for text in ("X^16+720720", "X^16+997920*X^8+720720", "X^12+360360*X^6+720720*X+720720"):
            t0 = time.monotonic()
            assert main(["factor", "--route", "direct", text]) == 0
            assert time.monotonic() - t0 < 2
            factors = capsys.readouterr().out.split("factors:\n")[1].splitlines()
            assert len(factors) == 1 and factors[0].endswith("(multiplicity 1)")

    def test_degree_16_product_of_small_factors(self, capsys):
        text = "(X+1)^2*(X-1)*(2X-1)*(X^2+X+1)*(X^2-2)*(X^2+1)*(X^3+X+1)*(X^3-X+1)"
        assert main(["factor", "--route", "direct", "--json", text]) == 0
        got = Counter()
        for f in json.loads(capsys.readouterr().out)["factors"]:
            got[f["expr"]] += f["multiplicity"]
        reference = kronecker_reference(parse_in_ring(text, ZX))
        assert got == Counter(render(ZX, q) for q in reference.factors)
        assert sum(got.values()) == 9

    def test_exponent_cap(self, capsys):
        # refused before evaluation, which used to run without end
        for argv in (["factor", "2^1000000"], ["factor", "X^100000000"], ["compare", "((X^9)^9)^9"]):
            t0 = time.monotonic()
            assert main(argv) == 2
            assert time.monotonic() - t0 < 1
            assert capsys.readouterr().err.startswith("error: desk-scale limit: exponent")

    def test_long_integer_literal(self, capsys):
        # 5,000 digits used to escape as a ValueError traceback from int()
        assert main(["factor", "7" * 5000]) == 2
        assert capsys.readouterr().err == "error: desk-scale limit: integer literal of 5000 digits exceeds 100\n"
        t0 = time.monotonic()
        assert main(["factor", "1" + "0" * 99]) == 0  # 10^99, at the cap
        assert time.monotonic() - t0 < 2
        assert capsys.readouterr().out.split("factors:\n")[1].splitlines() == [
            "  2  (multiplicity 99)",
            "  5  (multiplicity 99)",
        ]

    def test_coefficient_size_cap(self, capsys):
        # within the degree cap, but with a 100-digit literal N evaluation
        # spent 3.2 s building coefficients of tens of thousands of bits
        n = "9" * 100
        t0 = time.monotonic()
        assert main(["factor", f"({n}*X+1)^100*({n}*X+2)^100"]) == 2
        assert time.monotonic() - t0 < 0.5
        assert capsys.readouterr().err == (
            "error: desk-scale limit: 201 dense coefficients of up to 66800 bits "
            "need 13426800 bits, over 262144\n"
        )
        # each term and their sum pass the per-value caps, but evaluating the
        # 100 terms took 0.5 s before the engine refused degree 100
        t0 = time.monotonic()
        assert main(["factor", "+".join(["(999999*X+999999)^100"] * 100)]) == 2
        assert time.monotonic() - t0 < 0.1
        assert capsys.readouterr().err == (
            "error: desk-scale limit: the terms of sums need 21216000 bits in dense "
            "coefficients, over 262144\n"
        )

    def test_products_of_variables_are_charged(self, capsys, monkeypatch):
        # each term of this sum, a product of 255 X's, has 1-norm 1 and was
        # charged nothing: evaluating 1,000 of them took 2.5 s before the
        # engine refused degree 255.  The parser now refuses 9 of them first.
        from locfactor import expr

        def evaluate(*args):
            raise AssertionError("evaluated")

        monkeypatch.setattr(expr, "_evaluate", evaluate)
        assert main(["factor", "+".join(["*".join(["X"] * 255)] * 9)]) == 2
        assert capsys.readouterr().err == (
            "error: desk-scale limit: the terms of sums need 296037 bits in dense "
            "coefficients, over 262144\n"
        )

    def test_input_length_cap(self, capsys, monkeypatch):
        # a 5,000,001-character product of X's took 9.3 s and 716 MiB to
        # refuse; now the text is refused before it is tokenized
        from locfactor import expr

        def tokenize(*args):
            raise AssertionError("tokenized")

        monkeypatch.setattr(expr, "_tokenize", tokenize)
        for command in (["factor"], ["compare"]):
            t0 = time.monotonic()
            assert main(command + ["X*" * 2_500_000 + "1"]) == 2
            assert time.monotonic() - t0 < 0.1
            assert capsys.readouterr().err == (
                "error: desk-scale limit: input of 5000001 characters exceeds 100000\n"
            )
        monkeypatch.undo()
        assert main(["factor", "X*" * 49_999 + "11"]) == 2  # 100,000 characters: the degree cap
        assert capsys.readouterr().err.startswith("error: desk-scale limit: degrees up to 49999")

    def test_integer_size_cap(self, capsys):
        # found by the fuzz test: the sieve leaves a 955-bit cofactor, on
        # which Pollard rho spent 22 s before its iteration budget ran out
        t0 = time.monotonic()
        assert main(["factor", "98-02342^89+9268"]) == 2
        assert time.monotonic() - t0 < 0.5
        assert capsys.readouterr().err == (
            "error: desk-scale limit: cofactor of 955 bits left after the sieve exceeds 192 bits\n"
        )
        assert main(["factor", "2^100*3^60*7^50"]) == 0  # 340 bits, all taken by the sieve

    def test_polynomial_caps_come_before_integer_factoring(self, capsys):
        # N is a product of two primes near 10^14, on which Pollard rho runs
        # out of its budget after seconds; each input was refused with the
        # rho message after 2.3-3 s, because N was factored first: as the
        # fracfield prepass's leading coefficient, as the content of Z[X],
        # and as the content of Z[X][Y]
        n = "10000000100013000000031003069"
        for argv, err in (
            (["factor", f"{n}*X+1"], "coefficient magnitude exceeds the desk-scale cap 1000000"),
            (["factor", "--route", "direct", f"{n}*X^17+{n}"], "degree 17 exceeds the desk-scale cap 16"),
            (["factor", f"{n}*X^4*Y^4+{n}"],
             "desk-scale limit: substitution image degree 40 exceeds the univariate cap 16"),
            (["factor", f"{n}*(1000001*X*Y+1)"], "coefficient magnitude exceeds the desk-scale cap 1000000"),
        ):
            t0 = time.monotonic()
            assert main(argv) == 2
            assert time.monotonic() - t0 < 0.5, argv
            assert capsys.readouterr().err == f"error: {err}\n"

    def test_degree_cap(self, capsys):
        # each spent seconds building the product before the bivariate cap
        # refused it: 13.3 s and 2.7 s
        for text in ("(X+Y+1)^100*(X+Y+2)^100", "(X*Y+X+Y+1)^100"):
            t0 = time.monotonic()
            assert main(["factor", text]) == 2
            assert time.monotonic() - t0 < 0.5
            assert capsys.readouterr().err.startswith("error: desk-scale limit: degrees up to")
        assert main(["factor", "(X^10)^10 - X^100 + X^2 - 1"]) == 0  # 101 coefficients

    def test_laurent_degree_cap(self, capsys):
        # T was charged no degree, so this product (1,999 characters) had
        # run over 60 s before the engine's degree cap refused it; T now
        # counts as X does, and T^-k as X^k
        t0 = time.monotonic()
        assert main(["factor", "*".join(["(T+1)^100"] * 200)]) == 2
        assert time.monotonic() - t0 < 1
        assert capsys.readouterr().err == (
            "error: desk-scale limit: degrees up to 20000 in T and 0 in Y need "
            "20001 dense coefficients, over 256\n"
        )
        assert main(["factor", "T^-100*T^-100*T^-55"]) == 0  # 256 dense coefficients
        assert main(["factor", "T^-100*T^-100*T^-56"]) == 2
        capsys.readouterr()
        # over its one denominator X^255 this sum builds X^510 + 1, so T and
        # T^-1 are charged in separate slots, which add
        assert main(["factor", "T^-100*T^-100*T^-55 + T^100*T^100*T^55"]) == 2
        assert capsys.readouterr().err == (
            "error: desk-scale limit: degrees up to 510 in T and 0 in Y need 511 dense coefficients, over 256\n"
        )

    def test_long_laurent_sum(self, capsys):
        # 1,000 terms T^-100 (8,997 characters, within every cap) add up
        # over their one denominator X^100: over the product of the
        # denominators the sum would build X^100000
        t0 = time.monotonic()
        assert main(["factor", " + ".join(["T^-100"] * 1000)]) == 0
        assert time.monotonic() - t0 < 1
        assert capsys.readouterr().out.splitlines()[3:] == [
            "unit: T^-100",
            "factors:",
            "  2  (multiplicity 3)  [localization: avoids <X>; prime in Z[T,T^-1] factorization]",
            "  5  (multiplicity 3)  [localization: avoids <X>; prime in Z[T,T^-1] factorization]",
        ]

    def test_deep_nesting(self, capsys):
        # used to escape as a RecursionError traceback
        assert main(["factor", "(" * 3000 + "X" + ")" * 3000]) == 1
        assert capsys.readouterr().err == "error: parentheses nest deeper than 100 (at position 100)\n"
        assert main(["factor", "(" * 100 + "X+1" + ")" * 100]) == 0

    def test_engine_that_merges_factors(self, capsys, monkeypatch):
        """A Laurent oracle whose engine merges its first two factors passes
        its own primality check, so the route's one check against the direct
        engine is what catches it, and it exits 3 as a broken engine."""
        original = routes.LaurentOracle.__init__
        monkeypatch.setattr(routes.LaurentOracle, "__init__",
                            lambda self, S, engine: original(self, S, _merging(ZX, engine)))
        for command in (["factor", "--route", "laurent"], ["compare"]):
            assert main(command + ["(X^2+1)*(X^2+2)"]) == 3
            assert capsys.readouterr().err == (
                "error: direct engine and the descent through Z[T,T^-1] factorization disagree: "
                "unit 1; factors [X^2 + 1, X^2 + 2] vs unit 1; factors [X^4 + 3*X^2 + 2]\n"
            )

    def test_engine_that_merges_factors_of_bivariate_input(self, capsys, monkeypatch):
        """The bivariate route has the same one check as the Z[X] routes, so
        a constant-primes oracle whose engine merges its first two factors
        is caught there too, against the substitution engine."""
        original = routes.ConstantPrimesOracle.__init__
        monkeypatch.setattr(routes.ConstantPrimesOracle, "__init__",
                            lambda self, S, R, engine: original(self, S, R, _merging(ZXY, engine)))
        assert main(["factor", "(X*Y+1)*(Y+X)"]) == 3
        assert capsys.readouterr() == ("", (
            "error: direct engine and the descent through Frac(Z[X])[Y] factorization disagree: "
            "unit 1; factors [X*Y + 1, Y + X] vs unit 1; factors [X*Y^2 + (X^2 + 1)*Y + X]\n"
        ))

    def test_engine_that_merges_factors_of_laurent_input(self, capsys, monkeypatch):
        """Laurent input is factored by the Laurent route, so the route's
        check against the direct engine catches the merging engine on it
        too, on every route that takes Laurent input."""
        original = routes.LaurentOracle.__init__
        monkeypatch.setattr(routes.LaurentOracle, "__init__",
                            lambda self, S, engine: original(self, S, _merging(ZX, engine)))
        for route in ("auto", "laurent", "direct"):
            assert main(["factor", "--route", route, "--", "(T^4+3*T^2+2)*T^-1"]) == 3
            assert capsys.readouterr() == ("", (
                "error: direct engine and the descent through Z[T,T^-1] factorization disagree: "
                "unit 1; factors [X^2 + 1, X^2 + 2] vs unit 1; factors [X^4 + 3*X^2 + 2]\n"
            ))

    def test_renderer_that_moves_a_sign(self, capsys, monkeypatch):
        """A renderer that negates the unit 1 and the factor X - 1 keeps the
        product of the printed pieces, so only a round trip of each printed
        piece catches it."""
        from locfactor import expr

        original = expr.render
        moved = {ZX.one: "-1", ZX.make([-1, 1]): "-X + 1"}

        def sign_moving(ring, a):
            return moved.get(a, original(ring, a)) if ring == ZX else original(ring, a)

        monkeypatch.setattr(expr, "render", sign_moving)
        for command in (["factor", "--route", "direct"], ["compare"]):
            assert main(command + ["--", "(X-1)*(X+2)"]) == 3
            assert capsys.readouterr() == (
                "", "error: rendered factorization does not re-parse to the input\n"
            )

    def test_each_printed_piece_is_rendered_once(self, capsys, monkeypatch):
        """The unit 1 and the factors X - 1 and X + 2 are rendered once each,
        for the round trip and the output together, however many times and
        on however many routes they are printed."""
        from locfactor import expr

        rendered = Counter()
        original = expr.render

        def counting(ring, a):
            rendered[original(ring, a)] += 1
            return original(ring, a)

        monkeypatch.setattr(expr, "render", counting)
        for argv in (["factor", "(X-1)^2*(X+2)"], ["factor", "--json", "(X-1)^2*(X+2)"],
                     ["compare", "(X-1)^2*(X+2)"]):
            assert main(argv) == 0
            assert rendered == {"1": 1, "X - 1": 1, "X + 2": 1}
            rendered.clear()
        assert "direct: unit 1; factors [X - 1, X - 1, X + 2]" in capsys.readouterr().out


# the expression alphabet, a space and one non-ASCII decimal digit
_FUZZ_ALPHABET = "0123456789XYT+-*^() \u0663"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((["factor"], ["factor", "--json"], ["compare"])),
       st.text(alphabet=_FUZZ_ALPHABET, max_size=24))
def test_fuzz_every_input_ends_with_a_code(command, text):
    """Any short input ends in bounded time with exit code 0-3, an error line
    whenever the code is not 0, and never a traceback.  "--" ends the options,
    so the command reads stdin, which is empty here."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO()):
        rc = main(command + [text])
    assert time.monotonic() - t0 < 10
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert "error:" in err.getvalue()


class TestLeadingMinus:
    """An expression starting with "-" is the expression, not an option."""

    def test_factor_laurent(self, capsys):
        assert main(["factor", "-9*T^-1"]) == 0
        out = capsys.readouterr().out
        assert "unit: -T^-1" in out and "3  (multiplicity 2)" in out

    def test_compare(self, capsys):
        assert main(["compare", "-X^2+1"]) == 0
        out = capsys.readouterr().out
        assert "direct: unit -1; factors [X - 1, X + 1]" in out

    def test_double_dash_still_works(self, capsys):
        assert main(["factor", "--", "-9*T^-1"]) == 0
        assert "unit: -T^-1" in capsys.readouterr().out

    def test_options_still_parse(self, capsys):
        assert main(["factor", "-X^2+1", "--json", "--route", "laurent"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["input"] == "-X^2+1" and doc["route"] == "laurent"
        assert main(["compare", "--verbose", "-X^2+1"]) == 0
        assert "elapsed direct:" in capsys.readouterr().out

    def test_help_is_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["factor", "-h"])
        assert exc.value.code == 0
        assert "--route" in capsys.readouterr().out

    def test_extra_arguments_are_rejected(self, capsys):
        assert main(["factor", "X", "-Y"]) == 1
        assert "unrecognized arguments: -Y" in capsys.readouterr().err
        assert main(["factor", "-X", "-Y"]) == 1
        assert main(["factor", "--jsn"]) == 1
        assert "unrecognized arguments: --jsn" in capsys.readouterr().err


class TestBatchMode:
    def test_ndjson(self, capsys, monkeypatch):
        code = run_cli(["factor", "--json"], "6\nX^2-1\n\n", monkeypatch)
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2
        assert json.loads(lines[0])["ring"] == "Z"
        assert json.loads(lines[1])["ring"] == "Z[X]"

    def test_batch_continues_after_error(self, capsys, monkeypatch):
        code = run_cli(["factor", "--json"], "0\n6\n", monkeypatch)
        assert code == 2
        out, err = capsys.readouterr()
        assert "cannot factor zero" in err
        assert json.loads(out.splitlines()[0])["ring"] == "Z"

    def test_blank_line_after_text_reports_only(self, capsys, monkeypatch):
        for argv, first in ((["factor"], "6"), (["compare"], "X")):
            assert run_cli(argv, f"{first}\nX^2-1\n", monkeypatch) == 0
            reports = capsys.readouterr().out.split("\n\n")
            assert [r.splitlines()[0] for r in reports[:2]] == [f"input: {first}", "input: X^2-1"]
            assert reports[2] == ""
        assert run_cli(["factor", "--json"], "6\nX^2-1\n", monkeypatch) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 2 and "\n\n" not in out

    def test_reports_stream(self, monkeypatch):
        """Batch mode reads stdin one line at a time and flushes each report:
        a caller on a block-buffered pipe sees the first report before the
        second line is read."""

        class BlockBuffered(io.StringIO):
            flushed = ""

            def flush(self):
                self.flushed = self.getvalue()

        out = BlockBuffered()
        seen = []

        def stdin():
            yield "6\n"
            seen.append(out.flushed)
            yield "X^2-1\n"

        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stdin", stdin())
        assert main(["factor", "--json"]) == 0
        assert [json.loads(line)["input"] for line in seen[0].splitlines()] == ["6"]
        assert [json.loads(line)["input"] for line in out.flushed.splitlines()] == ["6", "X^2-1"]

    def test_compare_batch_returns_the_worst_code(self, capsys, monkeypatch):
        code = run_cli(["compare"], "T+1\nX-X\nX^2-1\n", monkeypatch)
        assert code == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            "error: compare requires a Z[X] expression",
            "error: cannot factor zero",
        ]
        assert out.startswith("input: X^2-1\n") and out.endswith("\n\n")


class TestCompareCommand:
    def test_agreement_output(self, capsys):
        assert main(["compare", "12X"]) == 0
        out = capsys.readouterr().out
        assert "direct: unit 1; factors [2, 2, 3, X]" in out
        assert "agreement: direct ~ laurent, direct ~ fracfield, laurent ~ fracfield" in out

    def test_requires_zx(self, capsys):
        assert main(["compare", "T+1"]) == 1

    def test_verbose_has_timings(self, capsys):
        assert main(["compare", "X^2-1", "--verbose"]) == 0
        assert "elapsed direct:" in capsys.readouterr().out


class TestSelftestCommand:
    def test_minimal_run(self, capsys):
        assert main(["selftest", "--seed", "7", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "all suites pass" in out
        assert "rings_axioms: ok" in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "locfactor.cli", "factor", "6", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ring"] == "Z"
