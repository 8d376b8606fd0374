"""The machine's speed, sampled between items with a fixed probe.

On a shared machine the speed available to one process moves by half
and more within seconds, as other tenants' load comes and goes, and a
run that falls in a fast or slow stretch would read as a change of the
program.  The probe is a fixed piece of pure-Python work of the kind
the package does (small tuples, dict and set lookups, calls), made of
the benchmark's own code so no change to the package can move it.  A
probe runs after every item; an item's time is divided by the
*slowness* around it, the median probe time of the nearest samples over
`REFERENCE_S`, which gives its time at the reference speed: the speed
at which one probe takes exactly `REFERENCE_S` of CPU time.  Wall times
are kept in each run's results file.

Anything that slows the process as a whole (a thread the package leaves
running, say) slows the probe too and is partly divided out.
"""

from __future__ import annotations

import statistics
import time

# probe time at the reference speed, by definition
REFERENCE_S = 0.001
# samples on each side of an item that make up its slowness
HALF_WINDOW = 4
# samples on each side of a single long measurement, such as set-up
BRACKET = 8
_ROUNDS = 700


def _step(table: dict, seen: set, key: tuple) -> int:
    seen.add(key)
    return table.get(key[1:], 1) + len(key)


def _work() -> int:
    table: dict = {}
    seen: set = set()
    acc = 0
    for i in range(_ROUNDS):
        key = (i % 5, i % 11, i % 3)
        acc += _step(table, seen, key)
        table[key[1:]] = acc % 13
        if key in seen and not i % 7:
            acc ^= hash(frozenset(key))
    return acc


def probe() -> float:
    """CPU seconds one run of the probe takes now."""
    t0 = time.process_time()
    _work()
    return time.process_time() - t0


class Gauge:
    """Probe samples in the order taken."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> int:
        """Take `count` samples; the index of the last one."""
        for _ in range(count):
            self.samples.append(probe())
        return len(self.samples) - 1

    def current(self) -> float:
        """Slowness from the latest samples (before the next item)."""
        return statistics.median(self.samples[-2 * HALF_WINDOW:]) / REFERENCE_S

    def around(self, index: int) -> float:
        """Slowness from the samples on both sides of sample `index`."""
        lo = max(0, index - HALF_WINDOW)
        return statistics.median(self.samples[lo:index + HALF_WINDOW + 1]) / REFERENCE_S

    def bracket(self, index: int) -> float:
        """Slowness over the BRACKET samples up to sample `index` and as
        many taken now, for one long measurement made in between."""
        self.sample(BRACKET)
        return statistics.median(self.samples[max(0, index - BRACKET + 1):]) / REFERENCE_S
