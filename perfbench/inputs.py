"""Seeded inputs for the four workloads, built without the package.

Sequents and proof files are generated here from the benchmark's own
logic (`logic.py`), and every derivation carries the sequent it proves,
tracked rule by rule, so the package's verdicts can be checked against
an expectation it had no part in.  Model files are the exception: they
come from `qrc1.generate` (see `workloads.py`), and the input
fingerprint is what guards them.

Predicate arity is capped at 2 everywhere.  At domain 3 an arity-3
predicate makes the countermodel enumerator materialise `range(2**27)`
per predicate slot (about 5 GB) before its first deadline poll, which
would exhaust the machine rather than measure it.  Widen the cap once
that enumeration no longer materialises its mask ranges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from logic import (
    TOP, atom, conj, const, consts_in, diam, fmt, fmt_sequent, forall, freefor,
    fv, generalize, header, modal_depth, parse_problem, quant_depth, size, sub, var,
)

MAX_ARITY = 2

# -- the pinned, hand-checked corpus ----------------------------------
#
# Each verdict was derived by hand from the semantics (constant-domain
# irreflexive transitive models suffice for a refutation), not taken
# from the program.  Reasons are given as one-line arguments.

_BATTERY_SIG = "const c. pred P/1. pred Q/1. pred S/2."
_SMOKE_SIG = "const c. pred P/1. pred Q/1."

PINNED: tuple[tuple[str, str, str], ...] = (
    # the 14-item battery of tests/test_search.py
    (_BATTERY_SIG, "<> (P(x) & Q(x)) ~> <> P(x) & <> Q(x)", "Proved"),  # one witness serves both
    (_BATTERY_SIG, "<> P(x) & <> Q(x) ~> <> (P(x) & Q(x))", "Refuted"),  # P and Q at two different successors
    (_BATTERY_SIG, "A x . (P(x) & Q(x)) ~> A x . P(x) & A x . Q(x)", "Proved"),
    (_BATTERY_SIG, "A x . P(x) & A x . Q(x) ~> A x . (P(x) & Q(x))", "Proved"),
    (_BATTERY_SIG, "T ~> A x . T", "Proved"),
    (_BATTERY_SIG, "<> A x . P(x) ~> A x . <> P(x)", "Proved"),  # the successor serves every x
    (_BATTERY_SIG, "A x . <> P(x) ~> <> A x . P(x)", "Refuted"),  # domain {0,1}, successor k has P = {k}
    (_BATTERY_SIG, "A x . P(x) ~> A y . P(y)", "Proved"),
    (_BATTERY_SIG, "P(c) ~> A x . P(x)", "Refuted"),  # domain {0,1}, P = {c} = {0}
    (_BATTERY_SIG, "A x . P(x) ~> P(y)", "Proved"),
    (_BATTERY_SIG, "<> <> <> <> P(x) ~> <> P(x)", "Proved"),  # transitivity, three times
    (_BATTERY_SIG, "S(x, y) ~> S(y, x)", "Refuted"),  # S = {(0,1)}, x=0, y=1
    (_BATTERY_SIG, "A x . S(x, x) ~> S(y, y)", "Proved"),
    (_BATTERY_SIG, "P(x) ~> <> P(x)", "Refuted"),  # one world, no successor
    # the four criterion-6 cases of tests/test_acceptance.py
    (_SMOKE_SIG, "<> <> P(x) ~> <> P(x)", "Proved"),
    (_SMOKE_SIG, "A x . P(x) ~> P(c)", "Proved"),
    (_SMOKE_SIG, "<> P(x) ~> <> <> P(x)", "Refuted"),  # 0 -> 1 with P at 1; nothing two steps out
    (_SMOKE_SIG, "P(x) & Q(x) ~> Q(x) & P(x)", "Proved"),
    # ROADMAP baseline: for each x a successor where S(x, .) is full and
    # S(x', .) empty, at domain 2 no single successor serves both x
    ("pred S/2.", "A x . <> A y . S(x,y) ~> <> A y . A x . S(x,y)", "Refuted"),
)


@dataclass
class Problem:
    """One sequent for `decide`, with its expected verdict if known."""

    decl: str  # the `const`/`pred` declarations
    ante: tuple
    cons: tuple
    expected: str | None  # "Proved" / "Refuted" or None when unknown
    arity: int
    proof_nodes: int = 0  # nodes of the generating derivation, if any

    @property
    def sequent_text(self) -> str:
        return fmt_sequent(self.ante, self.cons)

    @property
    def text(self) -> str:
        """Declarations and sequent, as the CLI takes them."""
        return f"{self.decl} {self.sequent_text}"

    def props(self) -> dict:
        return {
            "size": size(self.ante) + size(self.cons),
            "modal_depth": max(modal_depth(self.ante), modal_depth(self.cons)),
            "quant_depth": max(quant_depth(self.ante), quant_depth(self.cons)),
            "arity": self.arity,
            "signature": self.decl,
            "proof_nodes": self.proof_nodes,
        }


def pinned_problems() -> list[Problem]:
    out = []
    for decl, seq, verdict in PINNED:
        consts, preds, ante, cons = parse_problem(f"{decl} {seq}")
        out.append(Problem(decl, ante, cons, verdict,
                           max(preds.values())))
    return out


# -- random sequents ----------------------------------------------------

_VARS = ("x", "y")


def _random_signature(rng: random.Random) -> tuple[list[str], dict[str, int]]:
    consts = ["c"][: rng.randint(0, 1)]
    names = ["P", "S"][: rng.randint(1, 2)]
    return consts, {name: rng.randint(1, MAX_ARITY) for name in names}


def _random_formula(rng: random.Random, consts, preds, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.15:
            return TOP
        name = rng.choice(sorted(preds))
        return atom(name, *(const(rng.choice(consts)) if consts and rng.random() < 0.3
                            else var(rng.choice(_VARS)) for _ in range(preds[name])))
    r = rng.random()
    if r < 0.35:
        return conj(_random_formula(rng, consts, preds, depth - 1),
                    _random_formula(rng, consts, preds, depth - 1))
    if r < 0.6:
        return diam(_random_formula(rng, consts, preds, depth - 1))
    return forall(rng.choice(_VARS), _random_formula(rng, consts, preds, depth - 1))


def random_problems(seed: int, start: int, count: int) -> list[Problem]:
    """Random sequents `start` to `start + count - 1`: at most one
    constant, at most two predicates of arity at most 2, formula depth 1
    to 3 on each side, with the nine depth pairs taken in turn."""
    out = []
    for i in range(start, start + count):
        rng = random.Random(f"decide-mix/{seed}/{i}")
        consts, preds = _random_signature(rng)
        ante = _random_formula(rng, consts, preds, 1 + i % 3)
        cons = _random_formula(rng, consts, preds, 1 + i // 3 % 3)
        out.append(Problem(header(consts, preds), ante, cons, None, max(preds.values())))
    return out


# -- derivations with tracked conclusions -------------------------------


class Deriv:
    """A proof-file node with the sequent it proves and its node count.

    The constructors below check each rule's side conditions with the
    benchmark's own syntax operations; a violation is a generator bug.
    """

    __slots__ = ("node", "ante", "cons", "nodes")

    def __init__(self, rule: str, params: dict, premises: tuple, ante: tuple, cons: tuple):
        nodes = 1
        children = []
        for p in premises:
            nodes += p.nodes
            children.append(p.node)
        self.node = {"rule": rule, "params": params, "premises": children}
        self.ante = ante
        self.cons = cons
        self.nodes = nodes


def ax_top(phi):
    return Deriv("Top", {"phi": fmt(phi)}, (), phi, TOP)


def ax_refl(phi):
    return Deriv("Refl", {"phi": fmt(phi)}, (), phi, phi)


def ax_and_left(phi, psi):
    return Deriv("AndEl", {"phi": fmt(phi), "psi": fmt(psi)}, (), conj(phi, psi), phi)


def ax_and_right(phi, psi):
    return Deriv("AndEr", {"phi": fmt(phi), "psi": fmt(psi)}, (), conj(phi, psi), psi)


def ax_trans(phi):
    return Deriv("Trans", {"phi": fmt(phi)}, (), diam(diam(phi)), diam(phi))


def and_intro(d1, d2):
    assert d1.ante == d2.ante
    return Deriv("AndI", {}, (d1, d2), d1.ante, conj(d1.cons, d2.cons))


def cut(d1, d2):
    assert d1.cons == d2.ante
    return Deriv("Cut", {}, (d1, d2), d1.ante, d2.cons)


def nec(d):
    return Deriv("Nec", {}, (d,), diam(d.ante), diam(d.cons))


def all_intro_right(d, x):
    assert x not in fv(d.ante)
    return Deriv("AllIr", {"x": x}, (d,), d.ante, forall(x, d.cons))


def all_intro_left(phi, x, t, d):
    assert freefor(phi, x, t) and d.ante == sub(phi, x, t)
    return Deriv("AllIl", {"phi": fmt(phi), "x": x, "t": t[1]}, (d,),
                 forall(x, phi), d.cons)


def term_inst(d, x, t):
    assert freefor(d.ante, x, t) and freefor(d.cons, x, t)
    return Deriv("TermI", {"x": x, "t": t[1]}, (d,), sub(d.ante, x, t), sub(d.cons, x, t))


def const_elim(phi, psi, x, c, d):
    k = const(c)
    assert c not in consts_in(phi) and c not in consts_in(psi)
    assert (d.ante, d.cons) == (sub(phi, x, k), sub(psi, x, k))
    return Deriv("ConstE", {"phi": fmt(phi), "psi": fmt(psi), "x": x, "c": c}, (d,), phi, psi)


# the six derived rules, with the same trees as qrc1.calculus builds


def all_commute(phi, x, y):
    d = all_intro_left(phi, y, var(y), ax_refl(phi))
    d = all_intro_left(forall(y, phi), x, var(x), d)
    return all_intro_right(all_intro_right(d, x), y)


def all_instantiate(phi, x, t):
    return all_intro_left(phi, x, t, ax_refl(sub(phi, x, t)))


def diam_over_all(phi, x):
    return all_intro_right(nec(all_intro_left(phi, x, var(x), ax_refl(phi))), x)


def rename_bound(phi, x, y):
    assert y == x or y not in fv(phi)
    return all_intro_right(all_instantiate(phi, x, var(y)), y)


def instantiate_consequent(d, x, t):
    assert x not in fv(d.ante)
    return term_inst(d, x, t)


def generalize_constant(d, x, c):
    assert x not in fv(d.ante) and c not in consts_in(d.ante)
    psi = generalize(d.cons, const(c), x)
    assert sub(psi, x, const(c)) == d.cons
    return all_intro_right(const_elim(d.ante, psi, x, c, d), x)


class _Generator:
    """Random derivations over a fixed signature and variable pool."""

    def __init__(self, rng: random.Random, consts, preds, variables):
        self.rng = rng
        self.consts = list(consts)
        self.preds = preds
        self.vars = list(variables)

    def formula(self, depth: int) -> tuple:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.15:
            name = rng.choice(sorted(self.preds))
            return atom(name, *(const(rng.choice(self.consts))
                                if self.consts and rng.random() < 0.25
                                else var(rng.choice(self.vars))
                                for _ in range(self.preds[name])))
        r = rng.random()
        if r < 0.3:
            return conj(self.formula(depth - 1), self.formula(depth - 1))
        if r < 0.6:
            return diam(self.formula(depth - 1))
        return forall(rng.choice(self.vars), self.formula(depth - 1))

    def fresh(self, used: frozenset) -> str | None:
        """A random variable of the pool outside `used`."""
        free = [v for v in self.vars if v not in used]
        return self.rng.choice(free) if free else None

    def leaf(self, phi: tuple, shrink: bool = False) -> Deriv:
        """A derived-rule or axiom step out of `phi`."""
        rng = self.rng
        moves = []
        tag = phi[0]
        if tag == "&":
            # projections count twice, so conjunctions do not pile up
            moves += [lambda: ax_and_left(phi[1], phi[2]), lambda: ax_and_right(phi[1], phi[2])] * 2
        if tag == "<>" and phi[1][0] == "<>":
            moves.append(lambda: ax_trans(phi[1][1]))
        if tag == "<>" and phi[1][0] == "A":
            moves.append(lambda: diam_over_all(phi[1][2], phi[1][1]))
        if tag == "<>" and not shrink:
            moves.append(lambda: nec(self.leaf(phi[1])))
        if tag == "A":
            x, body = phi[1], phi[2]
            terms = [var(v) for v in self.vars] + [const(c) for c in self.consts]
            terms = [t for t in terms if freefor(body, x, t)]
            if terms:
                moves.append(lambda: all_instantiate(body, x, rng.choice(terms)))
            if body[0] == "A" and not shrink:
                moves.append(lambda: all_commute(body[2], x, body[1]))
            ys = [y for y in self.vars
                  if freefor(body, x, var(y)) and (y == x or y not in fv(body))]
            if ys and not shrink:
                moves.append(lambda: rename_bound(body, x, rng.choice(ys)))
            spare = [c for c in self.consts if c not in consts_in(phi)]
            zc = self.fresh(fv(phi))
            if spare and zc is not None and not shrink:
                def gen():
                    c = rng.choice(spare)
                    d = all_instantiate(body, x, const(c))
                    psi = generalize(d.cons, const(c), zc)
                    if sub(psi, zc, const(c)) != d.cons:
                        return d  # an occurrence of c sits under a binder of zc
                    return generalize_constant(d, zc, c)
                moves.append(gen)
            if terms and not shrink:
                def inst():
                    z2 = self.fresh(fv(phi) | fv(body))
                    if z2 is None or not freefor(body, x, var(z2)):
                        return all_instantiate(body, x, terms[0])
                    d = all_instantiate(body, x, var(z2))
                    good = [t for t in terms if freefor(d.cons, z2, t)]
                    return instantiate_consequent(d, z2, rng.choice(good)) if good else d
                moves.append(inst)
        if not shrink:
            z = self.fresh(fv(phi))
            if z is not None:
                moves.append(lambda: all_intro_right(ax_refl(phi), z))
            moves.append(lambda: and_intro(ax_refl(phi), ax_top(phi)))
        if not moves:
            moves.append(lambda: ax_refl(phi))
        return rng.choice(moves)()

    def derive(self, phi: tuple, depth: int) -> Deriv:
        """A derivation out of `phi` composing leaves with cut, and_intro
        and nec, with composition depth at most `depth`."""
        if depth <= 1:
            return self.leaf(phi)
        r = self.rng.random()
        if r < 0.3:
            return and_intro(self.derive(phi, depth - 1), self.derive(phi, depth - 1))
        if r < 0.5 and phi[0] == "<>":
            return nec(self.derive(phi[1], depth - 1))
        if r < 0.9:
            first = self.derive(phi, depth - 1)
            return cut(first, self.derive(first.cons, depth - 1))
        return self.leaf(phi)

    def chain(self, phi: tuple, leaves: int, cap: int, allow_and: bool = True) -> Deriv:
        """A balanced cut tree over `leaves` steps, with and_intro at some
        small subtrees; formulas stay near `cap` in size."""
        if leaves <= 1:
            return self.leaf(phi, shrink=size(phi) > cap)
        half = leaves // 2
        if allow_and and leaves <= 8 and self.rng.random() < 0.3:
            return and_intro(self.chain(phi, half, cap, False),
                             self.chain(phi, leaves - half, cap, False))
        first = self.chain(phi, half, cap, allow_and)
        return cut(first, self.chain(first.cons, leaves - half, cap, allow_and))


_VALID_SIG = (("c",), {"P": 1, "Q": 1, "S": 2})


# Composition depths taken in turn.  Depths 1 and 2 repeat so that the
# median item falls among them, where item times are tight; deeper ones
# need proof depths whose cost comes in steps of whole model slices.
VALID_DEPTHS = (1, 1, 2, 2, 3, 4, 5)


def valid_problems(seed: int, start: int, count: int) -> list[Problem]:
    """Conclusions of random derivations; item i has composition depth
    VALID_DEPTHS[i % 7] over a formula of depth 1 + i // 7 % 3."""
    consts, preds = _VALID_SIG
    decl = header(consts, preds)
    out = []
    for i in range(start, start + count):
        rng = random.Random(f"decide-valid/{seed}/{i}")
        b = _Generator(rng, consts, preds, ("x", "y"))
        while True:
            d = b.derive(b.formula(1 + i // 7 % 3), VALID_DEPTHS[i % 7])
            if size(d.cons) <= 24:
                break
        out.append(Problem(decl, d.ante, d.cons, "Proved", MAX_ARITY, d.nodes))
    return out


@dataclass
class ProofFile:
    """One `.qpf` document and what `check --json` must print for it."""

    doc: dict
    expected: dict  # {"ok": True, "sequent": ...} or {"ok": False, "path": [...]}
    nodes: int
    depth: int
    size: int  # formula size of the proved sequent


# Node counts cycle through this ladder so every run sees the same mix of
# sizes.  The middle size and the largest repeat, so the median item and
# the tail item (tenth from the top once a run has 66 or more items) fall
# inside a group of equal sizes rather than between two sizes.
PROOF_SIZES = (5500, 11000, 1000, 7000, 3000, 5500, 9000, 2000, 11000, 4000, 5500, 8000)


def _tree_depth(node: dict) -> int:
    depth, level = 0, [node]
    while level:
        depth += 1
        level = [p for n in level for p in n["premises"]]
    return depth


def _all_il_paths(node: dict, path=()):
    stack = [(node, path)]
    while stack:
        n, p = stack.pop()
        if n["rule"] == "AllIl":
            yield n, p
        stack.extend((c, p + (i,)) for i, c in enumerate(n["premises"]))


def proof_file(seed: int, index: int) -> ProofFile:
    """The `index`-th proof file of a run; every tenth one carries one
    corrupted parameter and must be rejected at that node."""
    rng = random.Random(f"check-proofs/{seed}/{index}")
    consts, preds = ("c", "d"), {"P": 1, "Q": 1, "S": 2}
    b = _Generator(rng, consts, preds, ("x", "y", "z", "u"))
    target = PROOF_SIZES[index % len(PROOF_SIZES)] * rng.uniform(0.98, 1.02)
    phi = b.formula(3)
    d = b.chain(phi, max(1, int(target / 3.2)), cap=14)
    doc = {"signature": {"constants": sorted(consts), "predicates": dict(sorted(preds.items()))},
           "proof": d.node}
    expected = {"ok": True, "sequent": fmt_sequent(d.ante, d.cons)}
    if index % 10 == 9:
        # AllIl checks that its premise's antecedent is phi[x:=t]; widening
        # phi to phi & T breaks exactly that, and nothing else
        candidates = list(_all_il_paths(d.node))
        if candidates:
            node, path = rng.choice(candidates)
            node["params"] = {**node["params"], "phi": f"{node['params']['phi']} & T"}
            expected = {"ok": False, "path": list(path), "reason": "premise-mismatch"}
    return ProofFile(doc, expected, d.nodes, _tree_depth(d.node), size(d.ante) + size(d.cons))
