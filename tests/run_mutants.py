"""Apply each mutant of `tests/mutants.py` and run the tests that should
kill it.

    python tests/run_mutants.py

Each mutant is applied in a fresh temporary copy of ``src/``, ``tests/``
and ``perfbench/`` (which ``tests/test_certificates.py`` reads), where its
tests run with ``pytest -x -q``.  One line per mutant says whether it was
killed or survived, with the time its tests took; the equivalent mutants
are listed with their reasons and not run.  First, every test named runs
once on an unmutated copy, where it must pass, so that a kill is the
mutant's doing.  Exits 1 when that run fails, when a mutant survives, or
when its snippet is not found once or its tests cannot run (pytest
exiting with neither 0 nor 1).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import EQUIVALENT, MUTANTS

ROOT = Path(__file__).resolve().parents[1]
_COPIED = ("src", "tests", "perfbench")


def _run(tests, mutant=None):
    """pytest's exit code on the tests, with the mutant applied if one is
    given, their time in seconds and their output."""
    with tempfile.TemporaryDirectory(prefix="qrc1-mutant-") as work:
        for name in _COPIED:
            shutil.copytree(ROOT / name, Path(work, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        if mutant is not None:
            target = Path(work, "src", "qrc1", mutant.file)
            text = target.read_text()
            if text.count(mutant.snippet) != 1:
                raise SystemExit(f"{mutant.name}: the snippet does not occur exactly once "
                                 f"in src/qrc1/{mutant.file}")
            target.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(Path(work, "src")), "PYTHONDONTWRITEBYTECODE": "1"}
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return out.returncode, time.monotonic() - started, out.stdout


def main():
    code, seconds, output = _run(sorted({t for m in MUTANTS for t in m.tests}))
    print(f"{'unmutated':<10} {seconds:6.1f} s  pytest exited {code}", flush=True)
    if code != 0:
        print(output)
        return 1
    failed = []
    for mutant in MUTANTS:
        code, seconds, output = _run(mutant.tests, mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exited {code})")
        print(f"{verdict:<10} {seconds:6.1f} s  {mutant.name}", flush=True)
        if code != 1:
            failed.append(mutant.name)
            if code != 0:
                print(output)
    for mutant in EQUIVALENT:
        print(f"{'equivalent':<10} {'':8}  {mutant.name}: {mutant.reason}")
    if failed:
        print(f"not killed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
