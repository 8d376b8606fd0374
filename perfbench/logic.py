"""The benchmark's own logic, independent of the package under test.

Formulas are plain tuples so they hash and compare structurally:

    ("T",)                      verum
    ("P", name, (term, ...))    predicate atom; a term is ("v", name) or ("c", name)
    ("&", left, right)          conjunction
    ("<>", body)                diamond
    ("A", var, body)            universal quantifier over a variable name

Variables are kept as their spelled names, so `fmt` prints exactly what
the package prints for a file or sequent that uses those names.  The
evaluator and the adequacy check read the JSON model format from the
package README, never the package's own model objects.
"""

from __future__ import annotations

import re
from functools import lru_cache

TOP = ("T",)


def var(name: str) -> tuple:
    return ("v", name)


def const(name: str) -> tuple:
    return ("c", name)


def atom(name: str, *args: tuple) -> tuple:
    return ("P", name, tuple(args))


def conj(a: tuple, b: tuple) -> tuple:
    return ("&", a, b)


def diam(a: tuple) -> tuple:
    return ("<>", a)


def forall(x: str, a: tuple) -> tuple:
    return ("A", x, a)


# -- printing, the grammar of the package README ---------------------


@lru_cache(maxsize=1 << 16)
def fmt(f: tuple, unary: bool = False) -> str:
    """Print a formula; a conjunction under a unary connective or as the
    right operand of `&` is parenthesised, as the package prints it."""
    tag = f[0]
    if tag == "T":
        return "T"
    if tag == "P":
        return f"{f[1]}({', '.join(t[1] for t in f[2])})" if f[2] else f[1]
    if tag == "<>":
        return "<> " + fmt(f[1], True)
    if tag == "A":
        return f"A {f[1]} . " + fmt(f[2], True)
    text = fmt(f[1]) + " & " + fmt(f[2], True)
    return f"({text})" if unary else text


def fmt_sequent(ante: tuple, cons: tuple) -> str:
    return f"{fmt(ante)} ~> {fmt(cons)}"


def header(constants, predicates) -> str:
    """`const c. pred P/1.` declarations for a problem text."""
    parts = [f"const {c}." for c in sorted(constants)]
    parts += [f"pred {p}/{n}." for p, n in sorted(predicates.items())]
    return " ".join(parts)


# -- parsing, for the hand-written corpus -----------------------------

_TOKEN = re.compile(r"\s*(<>|~>|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[()&,./])")


def parse_problem(text: str) -> tuple[frozenset, dict, tuple, tuple]:
    """Parse `const`/`pred` declarations and a sequent; returns
    (constants, predicates, ante, cons)."""
    toks = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad character at {pos} in {text!r}")
        toks.append(m.group(1))
        pos = m.end()
    toks.append("")
    i = 0
    consts: set[str] = set()
    preds: dict[str, int] = {}
    while toks[i] in ("const", "pred"):
        if toks[i] == "const":
            consts.add(toks[i + 1])
            i += 3
        else:
            preds[toks[i + 1]] = int(toks[i + 3])
            i += 5

    def formula() -> tuple:
        nonlocal i
        left = unary()
        while toks[i] == "&":
            i += 1
            left = conj(left, unary())
        return left

    def unary() -> tuple:
        nonlocal i
        if toks[i] == "<>":
            i += 1
            return diam(unary())
        if toks[i] == "A":
            x = toks[i + 1]
            i += 3
            return forall(x, unary())
        if toks[i] == "(":
            i += 1
            inner = formula()
            i += 1
            return inner
        name = toks[i]
        i += 1
        if name == "T":
            return TOP
        args = []
        if toks[i] == "(":
            i += 1
            while toks[i] != ")":
                t = toks[i]
                args.append(const(t) if t in consts else var(t))
                i += 2 if toks[i + 1] == "," else 1
            i += 1
        return atom(name, *args)

    ante = formula()
    assert toks[i] == "~>", text
    i += 1
    cons = formula()
    assert toks[i] == "", text
    return frozenset(consts), preds, ante, cons


# -- syntax operations, for tracking derivations ----------------------


@lru_cache(maxsize=1 << 16)
def fv(f: tuple) -> frozenset:
    tag = f[0]
    if tag == "P":
        return frozenset(t[1] for t in f[2] if t[0] == "v")
    if tag == "&":
        return fv(f[1]) | fv(f[2])
    if tag == "<>":
        return fv(f[1])
    if tag == "A":
        return fv(f[2]) - {f[1]}
    return frozenset()


@lru_cache(maxsize=1 << 16)
def sub(f: tuple, x: str, t: tuple) -> tuple:
    """Replace free occurrences of variable `x` by term `t`."""
    tag = f[0]
    if tag == "P":
        return ("P", f[1], tuple(t if a == ("v", x) else a for a in f[2]))
    if tag == "&":
        return ("&", sub(f[1], x, t), sub(f[2], x, t))
    if tag == "<>":
        return ("<>", sub(f[1], x, t))
    if tag == "A":
        return f if f[1] == x else ("A", f[1], sub(f[2], x, t))
    return f


@lru_cache(maxsize=1 << 16)
def freefor(f: tuple, x: str, t: tuple) -> bool:
    """No free `x` in `f` sits under a binder of the variable of `t`."""
    if x not in fv(f):
        return True
    tag = f[0]
    if tag == "&":
        return freefor(f[1], x, t) and freefor(f[2], x, t)
    if tag == "<>":
        return freefor(f[1], x, t)
    if tag == "A":
        return not (t[0] == "v" and t[1] == f[1]) and freefor(f[2], x, t)
    return True


@lru_cache(maxsize=1 << 16)
def consts_in(f: tuple) -> frozenset:
    tag = f[0]
    if tag == "P":
        return frozenset(t[1] for t in f[2] if t[0] == "c")
    if tag == "&":
        return consts_in(f[1]) | consts_in(f[2])
    if tag in ("<>", "A"):
        return consts_in(f[-1])
    return frozenset()


@lru_cache(maxsize=1 << 16)
def size(f: tuple) -> int:
    tag = f[0]
    if tag == "&":
        return 1 + size(f[1]) + size(f[2])
    if tag in ("<>", "A"):
        return 1 + size(f[-1])
    return 1


def modal_depth(f: tuple) -> int:
    tag = f[0]
    if tag == "&":
        return max(modal_depth(f[1]), modal_depth(f[2]))
    if tag == "<>":
        return 1 + modal_depth(f[1])
    if tag == "A":
        return modal_depth(f[2])
    return 0


def quant_depth(f: tuple) -> int:
    tag = f[0]
    if tag == "&":
        return max(quant_depth(f[1]), quant_depth(f[2]))
    if tag == "<>":
        return quant_depth(f[1])
    if tag == "A":
        return 1 + quant_depth(f[2])
    return 0


# -- evaluation in a JSON model, the model-file format ----------------


class JsonModel:
    """A `.qkm` document with its tables turned into sets for lookup."""

    def __init__(self, doc: dict):
        self.worlds = doc["worlds"]
        self.rel = {tuple(p) for p in doc["rel"]}
        self.succ = [[u for u in range(self.worlds) if (w, u) in self.rel]
                     for w in range(self.worlds)]
        self.domains = doc["domains"]
        self.eta = doc["eta"]
        self.consts = doc["constInterp"]
        self.preds = [{name: {tuple(t) for t in tuples} for name, tuples in pi.items()}
                      for pi in doc["predInterp"]]

    def sat(self, w: int, default: int, values: dict, f: tuple) -> bool:
        """Truth at world `w` of `f` under the assignment sending each
        variable in `values` to its value and every other one to `default`."""
        tag = f[0]
        if tag == "T":
            return True
        if tag == "P":
            tup = tuple(values.get(t[1], default) if t[0] == "v" else self.consts[w][t[1]]
                        for t in f[2])
            return tup in self.preds[w].get(f[1], ())
        if tag == "&":
            return self.sat(w, default, values, f[1]) and self.sat(w, default, values, f[2])
        if tag == "<>":
            for u in self.succ[w]:
                row = self.eta[w][u]
                moved = {x: row[v] for x, v in values.items()}
                if self.sat(u, row[default], moved, f[1]):
                    return True
            return False
        return all(self.sat(w, default, {**values, f[1]: d}, f[2])
                   for d in range(self.domains[w]))

    def adequate(self) -> bool:
        """Transitive relation; eta the identity on each world, composing
        along related chains, and carrying every constant along the relation."""
        eta = self.eta
        for w in range(self.worlds):
            if list(eta[w][w]) != list(range(self.domains[w])):
                return False
        for (w, u) in self.rel:
            for c, d in self.consts[w].items():
                if self.consts[u][c] != eta[w][u][d]:
                    return False
            for v in self.succ[u]:
                if (w, v) not in self.rel:
                    return False
                if any(eta[w][v][d] != eta[u][v][eta[w][u][d]]
                       for d in range(self.domains[w])):
                    return False
        return True


@lru_cache(maxsize=1 << 16)
def generalize(f: tuple, t: tuple, x: str) -> tuple:
    """Replace free occurrences of the term `t` by the variable `x`."""
    tag = f[0]
    if tag == "P":
        return ("P", f[1], tuple(("v", x) if a == t else a for a in f[2]))
    if tag == "&":
        return ("&", generalize(f[1], t, x), generalize(f[2], t, x))
    if tag == "<>":
        return ("<>", generalize(f[1], t, x))
    if tag == "A":
        return f if t == ("v", f[1]) else ("A", f[1], generalize(f[2], t, x))
    return f


def clear_caches() -> None:
    for f in (fmt, fv, sub, freefor, generalize, consts_in, size):
        f.cache_clear()
