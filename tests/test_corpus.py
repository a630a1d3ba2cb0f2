"""Byte stability: ``cli.main`` on a frozen corpus of argument lists.

``tests/golden/corpus.json`` holds one call per line: its argv and the exit
code, stdout and stderr it gave, with timings masked.  The inputs are stored
themselves, so a change to the benchmark's generators moves nothing here.
They are the first 400 requests of each benchmark corpus (seed 1), twelve
edge inputs on every route with no flag, ``--verbose`` and ``--json`` and
under ``compare`` with and without ``--verbose``, one input per parser
cap, two of them either side of the input-length cap, and one call per usage
and parse error (no or an unknown subcommand, an unknown route or option, two
expressions, a bad ``--seed``, an unknown variable or character, T mixed with
X, a negative exponent on X), per bivariate degree cap and for a probable
prime above the Miller-Rabin bound, so their texts stay byte-identical too.

A change that alters output on purpose re-records the expected text with
``PYTHONPATH=src python tests/test_corpus.py`` and lists the calls whose
output changed.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path
from unittest import mock

from locfactor.cli import main

CORPUS = Path(__file__).parent / "golden" / "corpus.json"
_ELAPSED = re.compile(r"^(elapsed[^:\n]*: )[0-9.]+s$", re.M)


def run(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "code": code,
            "stdout": _ELAPSED.sub(r"\1<masked>", out.getvalue()), "stderr": err.getvalue()}


def write(entries: list) -> None:
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")


def test_every_call_gives_its_recorded_output():
    expected = json.loads(CORPUS.read_text())
    assert len(expected) > 1300
    mismatched = [[a if len(a) <= 80 else f"{a[:40]}... ({len(a)} characters)" for a in e["argv"]]
                  for e in expected if run(e["argv"]) != e]
    assert mismatched == []


if __name__ == "__main__":
    write([run(e["argv"]) for e in json.loads(CORPUS.read_text())])
