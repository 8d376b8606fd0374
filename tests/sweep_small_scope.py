"""Decide every sequent of size at most 4 over P/1 and c, and print how
each size ends, as a Markdown table.

    PYTHONPATH=src python tests/sweep_small_scope.py

The sequents are the 11,664 pairs of the 108 formulas of
`small_formulas(4)` (T, P(x) and P(c) with &, <> and A x); a sequent's
size is the larger of its two formulas' sizes.  Each is decided at the
default bounds with a deadline of 0.25 s, as `qrc1 decide --timeout 0.25`
does.  The script has no verdict of its own, and pytest does not collect
it.
"""

from __future__ import annotations

import time
from collections import Counter

from conftest import small_formulas

from qrc1 import Proved, Refuted, SearchBounds, Sequent, decide, signature

COLUMNS = ("Proved", "Refuted", "deadline reached", "no proof, no countermodel",
           "refutable past the world bound")


def _ending(out) -> str:
    if isinstance(out, (Proved, Refuted)):
        return type(out).__name__
    if out.reason == "deadline reached":
        return COLUMNS[2]
    return COLUMNS[3] if out.reason.startswith("no proof") else COLUMNS[4]


def main() -> None:
    sig = signature(["c"], {"P": 1})
    bounds = SearchBounds(deadline=0.25)
    formulas = small_formulas(4)
    size = {f: n for n in (4, 3, 2, 1) for f in small_formulas(n)}  # the least n
    counts: dict[int, Counter] = {n: Counter() for n in range(1, 5)}
    start = time.monotonic()
    for ante in formulas:
        for cons in formulas:
            out = decide(Sequent(ante, cons), sig, bounds)
            counts[max(size[ante], size[cons])][_ending(out)] += 1
    took = time.monotonic() - start
    print("Sequents of size at most 4 over P/1 and c, deadline 0.25 s, "
          f"{took:.0f} s:\n")
    print("| size | sequents | " + " | ".join(COLUMNS) + " |")
    print("|---:" * (len(COLUMNS) + 2) + "|")
    for n, row in counts.items():
        cells = [sum(row.values()), *(row[c] for c in COLUMNS)]
        print(f"| {n} | " + " | ".join(map(str, cells)) + " |")


if __name__ == "__main__":
    main()
