"""Spans around calls into the package's layers, recorded from outside.

While a `Tracer` is installed, the public functions the workloads reach
are replaced on their modules by wrappers that record a span each:
name, start, end, parent span and item id, kept in memory until the run
writes them out.  The CLI looks these functions up on their modules at
call time, so calls made inside `qrc1.cli.main` are seen too.  Calls a
module makes through its own imported names (for example `search`
calling `calculus.check`) stay inside the caller's span; the `language`
layer has no spans of its own.  `syntax.parse_formula` is not wrapped:
`calculus.load_proof` calls it once per formula of a proof file, and a
span that often costs more than the parse it measures.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from functools import wraps

from qrc1 import calculus, search, semantics, syntax

WRAPPED = (
    (syntax, "parse_problem"),
    (syntax, "format_sequent"),
    (search, "decide"),
    (calculus, "load_proof"),
    (calculus, "check"),
    (calculus, "dump_proof"),
    (semantics, "load_model"),
    (semantics, "check_adequacy"),
    (semantics, "sat"),
    (semantics, "dump_model"),
)


class Tracer:
    """Spans kept in memory as columns of arrays, so that recording them
    allocates no objects the garbage collector has to walk."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.items = array("l")
        self.stack: list[int] = []
        self.item = -1
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span named `name`."""
        return self._wrapper(name, fn)(*args, **kwargs)

    def install(self) -> None:
        for module, attr in WRAPPED:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))

    def _wrapper(self, name: str, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        names, start, end = self.name, self.start, self.end
        parent, items, stack = self.parent, self.items, self.stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            items.append(self.item)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
        return traced

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self, slowness: list[float]) -> dict[str, float]:
        """Seconds per span name, each span less the time its children
        cover, divided by its item's slowness."""
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.name):
            out[self.names[name]] += ((self.end[i] - self.start[i] - child[i])
                                      / slowness[self.items[i]])
        return out

    def durations(self, name: str, slowness: list[float]) -> dict[int, float]:
        """Total seconds of the named spans per item, divided by the
        item's slowness."""
        out: dict[int, float] = defaultdict(float)
        wanted = self.name_ids.get(name)
        for i, n in enumerate(self.name):
            if n == wanted:
                item = self.items[i]
                out[item] += (self.end[i] - self.start[i]) / slowness[item]
        return out

    def count(self, name: str) -> int:
        wanted = self.name_ids.get(name)
        return sum(1 for n in self.name if n == wanted)

    def columns(self) -> dict:
        """The spans as JSON-ready columns."""
        return {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "item": self.items.tolist()}
