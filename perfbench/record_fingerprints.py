"""Rewrite fingerprints.json from the current generators.

    python3 perfbench/record_fingerprints.py

Run it only after an intended change of a workload's inputs, and measure
the baseline again afterwards: every benchmark run compares its inputs
against this table.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

SEEDS = range(21)


def main() -> None:
    table = {"canary": {}, "seeds": {}}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as workdir:
        for name, cls in workloads.WORKLOADS.items():
            table["canary"][name] = workloads.canary_fingerprint(name, workdir)
            table["seeds"][name] = {str(s): cls(s, workdir).fingerprint() for s in SEEDS}
    with open(BENCH / "fingerprints.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
