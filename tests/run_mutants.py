"""Run the mutants of ``tests/mutants.json`` against tier 1.

    python tests/run_mutants.py [NAME ...]

Each mutant turns off one guard: it replaces one exact source text by its
replacement in a copy of ``src`` made in a temporary directory, never in the
checkout, and the checkout's tier 1 runs on the copy with ``-x``.  The
source hygiene tests read the checkout's ``src``, so they cannot kill a
mutant, and the list's own check stays valid.  For each mutant the runner
prints the first test that failed, or ``survived``, beside the test that
the list expects to kill it (``null`` for a known survivor), and it exits 1
when any outcome differs from the list.  Pytest does not collect this file;
the whole list takes about as many tier-1 runs as it has entries.

The child runs under a time limit and an address-space limit, so a mutant
that loops or grows without end is stopped and reported as such.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.json"
TIME_LIMIT_S = 600
ADDRESS_SPACE_LIMIT = 1 << 30


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def first_failure(mutant: dict) -> str | None:
    """The node id of the first tier-1 test that fails with the mutant
    applied, None when every test passes."""
    with tempfile.TemporaryDirectory(prefix="locfactor-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / mutant["file"]
        text = target.read_text()
        if text.count(mutant["source"]) != 1:
            return "source text does not occur exactly once"
        target.write_text(text.replace(mutant["source"], mutant["replacement"]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"],
                cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                capture_output=True, text=True, timeout=TIME_LIMIT_S,
                preexec_fn=_limit_address_space,
            )
        except subprocess.TimeoutExpired:
            return f"timeout after {TIME_LIMIT_S} s"
    if proc.returncode == 0:
        return None
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit code {proc.returncode}"


def main(names: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text())
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    as_listed = True
    for mutant in mutants:
        if names and mutant["name"] not in names:
            continue
        killer = first_failure(mutant)
        expected = mutant["killed_by"]
        mark = "ok" if killer == expected else "DIFFERS"
        as_listed &= killer == expected
        print(f"{mutant['name']}: {killer or 'survived'} (listed: {expected or 'survives'}) {mark}", flush=True)
    return 0 if as_listed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
