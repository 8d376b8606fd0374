"""Bounded proof search, exhaustive countermodel search, and the
interleaved decision procedure.

Countermodels are sought in the class that suffices for refutation:
constant domain, identity compatibility functions, and an irreflexive
transitive relation.  Candidates are enumerated in a fixed order, by
increasing (world count, domain size), then relation bitmask, then
constant values, then predicate-table bitmasks with the rightmost slot
varying fastest, so any witness found is a reproducible golden output.
In this class a valuation of the variables is the same at every world,
so each candidate is checked on world bitmasks: a formula denotes the
set of worlds where it holds, conjunction is bitwise and, a diamond is a
lookup in a per-frame table, and a quantifier ands its body's sets over
the domain.  That check is as untrusted as the rest of search: a hit is
built as a `RawModel`, validated, and re-verified with `sat`.

Before enumerating, `_no_countermodel` may show that no model of the
class with at most `max_domain` elements refutes the sequent, whatever
its world count.  The argument:

- Strictly positive formulas move forward along any map h between two
  models of the class with the same domain and valuation that is the
  identity on elements and sends edges to edges and atoms to atoms.  By
  induction on the formula: an atom by the last clause, a conjunction at
  once, a diamond's witness u at t goes to the successor h(u) of h(t),
  and a quantifier ranges over the same elements on both sides.
- Fix a domain size d and a valuation v of the sequent's free variables
  and constants.  The antecedent's tree has a root, one fresh child per
  diamond instance, each quantifier expanded over all d elements, only
  the atoms the antecedent asserts, and the transitive closure of the
  edges.  It is a model of the class, and the antecedent holds at its
  root.
- Let M refute the sequent at world w under v.  Send the root to w, and
  each child, made for a diamond whose body holds in M at the image of
  its parent, to a successor there where that body holds; one exists
  because the antecedent holds at w.  Each tree edge lands on an edge of
  M, so each edge of the closure lands on a path, which is an edge by
  transitivity, and each asserted atom holds in M where it lands.  So
  the consequent, false at w, is false at the tree's root.
- Copying an element e (adding e' with the atoms of e, read as e)
  preserves every formula, by induction, a quantifier ranging over e in
  place of e'.  So a countermodel with d elements gives one with d + 1
  elements and the same valuation: refutability only grows with d.
- Put the other way round: if the consequent holds at the root of every
  such tree for d = max_domain, no countermodel exists within
  `max_domain` elements at any world count.  Renaming the elements is
  an isomorphism, so v is needed only up to relabelling: one valuation
  per set partition of the names into at most d blocks.

The check yields no certificate; it only lets `decide` and `refute`
stop enumerating.

Proof search runs backward over the ten rules with iterative deepening.
It is best effort: cut formulas are drawn from the goal's subformulas,
instantiation terms from the sequent's own terms plus two fresh
variables, and constants for the constant-elimination move from the
names ``k0``, ``k1``, ... that the signature does not declare.  Whatever
it returns is re-checked by the kernel.

Each half is a resumable stream, `_proofs` or `_refutations`, that
returns its certificate or None; `_run` pulls one to its end or to a
pause, and `decide` takes turns between the two.
"""

from __future__ import annotations

import math
import time
from itertools import chain, count, islice, product

from .calculus import (
    Derivation,
    all_intro_left,
    all_intro_right,
    and_intro,
    ax_and_left,
    ax_and_right,
    ax_refl,
    ax_top,
    ax_trans,
    check,
    conclusion,
    const_elim,
    cut as cut_rule,
    nec,
    term_inst,
    used_signature,
)
from .language import (
    All,
    And,
    Const,
    Diam,
    Formula,
    Pred,
    Sequent,
    Signature,
    Term,
    TOP,
    Var,
    _Value,
    all_vars,
    consts_of,
    freefor,
    fv,
    generalize,
    sub,
    subformulas,
    terms_of,
)
from .semantics import (
    Assignment,
    InternalError,
    Model,
    RawFrame,
    RawModel,
    _sat,
    validate_model,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import random
    from typing import Any, Generator, Iterable, Iterator


class SearchBounds(_Value):
    max_worlds: int = 4
    max_domain: int = 3
    max_proof_depth: int = 8
    deadline: float | None = None  # wall-clock seconds for the whole call

    def __post_init__(self) -> None:
        if min(self.max_worlds, self.max_domain, self.max_proof_depth) < 1:
            raise ValueError("bounds must be positive")
        if self.deadline is not None and not 0 < self.deadline < math.inf:
            raise ValueError("deadline must be positive and finite")


class Proved(_Value):
    derivation: Derivation


class Refuted(_Value):
    model: Model
    world: int
    assignment: Assignment


class Exhausted(_Value):
    reason: str


SearchOutcome = Proved | Refuted | Exhausted


class _Deadline(Exception):
    pass


def _stop_at(bounds: SearchBounds) -> float | None:
    return time.monotonic() + bounds.deadline if bounds.deadline else None


# -- soundness property harness ---------------------------------------


def soundness_check(
    d: Derivation,
    models: Iterable[Model],
    samples_per_model: int = 8,
    rng: random.Random | None = None,
) -> tuple[Model, int, Assignment] | None:
    """Look for a world and assignment where the derivation's conclusion
    fails, over every world of every supplied model with randomly sampled
    assignments.  A hit would indicate a kernel bug.
    """
    import random

    rng = rng or random.Random(0)
    seq = conclusion(d)
    variables = sorted(fv(seq.ante) | fv(seq.cons))
    for m in models:
        raw = m.raw
        for w in range(raw.frame.worlds):
            size = raw.frame.domains[w]
            if size == 0:
                continue
            for _ in range(samples_per_model):
                g = Assignment(
                    w, rng.randrange(size), {x: rng.randrange(size) for x in variables}
                )
                if _sat(raw, w, g, seq.ante) and not _sat(raw, w, g, seq.cons):
                    return m, w, g
    return None


# -- countermodel enumeration ------------------------------------------


def _frames(n: int, keep: list) -> Iterator[tuple[frozenset[tuple[int, int]], list[int]]]:
    """All irreflexive transitive relations on n worlds, by ascending
    bitmask over the off-diagonal pairs in row-major order, each with its
    diamond table: ``diam[s]`` is the set of worlds with a successor in
    the set ``s``, both as world bitmasks.  Each pair is appended to
    ``keep`` as it is yielded.  Lazy: the filtering cost between yields
    stays interruptible for the callers that poll a deadline per
    candidate."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for mask in range(1 << len(pairs)):
        rel = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        if all(
            (a, c) in rel
            for (a, b) in rel
            for (b2, c) in rel
            if b2 == b
        ):
            before = [0] * n  # before[u]: the worlds related to u
            for a, b in rel:
                before[b] |= 1 << a
            diam = [0] * (1 << n)
            for s in range(1, 1 << n):
                low = s & -s
                diam[s] = diam[s ^ low] | before[low.bit_length() - 1]
            keep.append((rel, diam))
            yield rel, diam


def _candidates(
    sig: Signature, seq: Sequent, bounds: SearchBounds, stop_at: float | None = None
) -> Iterator[tuple[RawModel, int, Assignment] | None]:
    """One item per candidate model, in enumeration order: None, or the
    model with the first world, then the first valuation of the free
    variables in `product` order (default element 0), where the
    antecedent holds and the consequent fails.  Raises `_Deadline` once
    the clock passes `stop_at`, read before every valuation, since one
    candidate has `size ** len(variables)` of them.

    A candidate has a constant domain and identity eta, so a valuation is
    the same at every world, and a formula under it denotes the set of
    worlds where it holds: `holds` computes that set as a bitmask.  The
    predicate tables of a candidate are read off one counter, and a
    `RawModel` is built only for a hit.
    """
    pred_names = sorted(
        {f.name for f in chain(subformulas(seq.ante), subformulas(seq.cons))
         if isinstance(f, Pred)}
    )
    const_names = sorted(consts_of(seq.ante) | consts_of(seq.cons))
    other_preds = [p for p in sig.predicates if p not in pred_names]
    other_consts = [c for c in sig.constants if c not in const_names]
    variables = sorted(fv(seq.ante) | fv(seq.cons))

    # reads the current candidate's size, full, diam, cmap and tables
    def holds(phi: Formula, env: dict[int, int]) -> int:
        kind = type(phi)
        if kind is Pred:
            i = 0  # the index of the argument tuple in `product` order
            for a in phi.args:
                i = i * size + (env[a.id] if type(a) is Var else cmap[a.name])
            return tables[phi.name][i]
        # each case stops as soon as no world can be left in the set
        if kind is And:
            bits = holds(phi.left, env)
            return bits and bits & holds(phi.right, env)
        if kind is Diam:
            return diam[full] and diam[holds(phi.body, env)]
        if kind is All:
            bits = full
            for d in range(size):
                bits &= holds(phi.body, {**env, phi.var: d})
                if not bits:
                    break
            return bits
        return full  # Top

    for n in range(1, bounds.max_worlds + 1):
        full = (1 << n) - 1
        seen: list[tuple[frozenset[tuple[int, int]], list[int]]] = []
        for size in range(1, bounds.max_domain + 1):
            ident = tuple(range(size))
            eta = tuple(tuple(ident for _ in range(n)) for _ in range(n))
            domains = (size,) * n
            pools = {
                name: tuple(product(range(size), repeat=sig.predicates[name]))
                for name in pred_names
            }
            # tables[name][i]: the worlds where pool[i] is in name.  Bit k of
            # the counter owns one (world, tuple) entry, the last slot taking
            # the lowest bits, so counting up runs through the tables in
            # `product` order with the rightmost slot fastest.  Each count
            # toggles the entries of the bits it flips; the tables start as
            # all ones, the state just before a count from 0.
            slots = [(w, name) for w in range(n) for name in pred_names]
            tables = {name: [full] * len(pool) for name, pool in pools.items()}
            owner = [
                (tables[name], i, 1 << w)
                for w, name in reversed(slots)
                for i in range(len(pools[name]))
            ]
            last = (1 << len(owner)) - 1
            # the first size walks the relations lazily and keeps them for the rest
            for rel, diam in _frames(n, seen) if size == 1 else seen:
                for cvals in product(range(size), repeat=len(const_names)):
                    cmap = dict(zip(const_names, cvals))
                    cmap.update({c: 0 for c in other_consts})
                    for counter in range(1 << len(owner)):
                        # counting up flips a run of low bits
                        for row, i, bit in owner[:(counter ^ last).bit_length()]:
                            row[i] ^= bit
                        last = counter
                        hit: tuple[int, dict[int, int]] | None = None
                        for values in product(range(size), repeat=len(variables)):
                            if stop_at is not None and time.monotonic() > stop_at:
                                raise _Deadline
                            env = dict(zip(variables, values))
                            bad = holds(seq.ante, env)
                            if bad:
                                bad &= ~holds(seq.cons, env)
                            if bad:
                                first = (bad & -bad).bit_length() - 1
                                if hit is None or first < hit[0]:
                                    hit = (first, env)
                                    if first == 0:
                                        break
                        if hit is None:
                            yield None
                            continue
                        preds: list[dict[str, frozenset[tuple[int, ...]]]] = [
                            {p: frozenset() for p in other_preds} for _ in range(n)
                        ]
                        for w, name in slots:
                            preds[w][name] = frozenset(
                                t for t, worlds in zip(pools[name], tables[name]) if worlds >> w & 1
                            )
                        frame = RawFrame(n, rel, domains, eta)
                        raw = RawModel(sig, frame, (cmap,) * n, tuple(preds))
                        yield raw, hit[0], Assignment(hit[0], 0, hit[1])


def _labellings(k: int, d: int) -> Iterator[list[int]]:
    """The valuations of k names in d elements up to relabelling: one per
    set partition of the names into at most d blocks, as restricted
    growth strings (each name takes an element at most one past the
    largest so far) in lexicographic order.  The one list is reused."""
    labels = [0] * k
    top = [0] * k  # top[i]: the largest of labels[: i + 1]
    while True:
        yield labels
        i = k - 1
        while i > 0 and (labels[i] == d - 1 or labels[i] > top[i - 1]):
            i -= 1
        if i <= 0:
            return
        labels[i] += 1
        top[i] = max(top[i - 1], labels[i])
        for j in range(i + 1, k):
            labels[j] = 0
            top[j] = top[i]


_BITS = bytes.maketrans(b"\0\1", b"01")  # 0/1 flags to binary digits


def _no_countermodel(
    seq: Sequent, bounds: SearchBounds, stop_at: float | None
) -> Generator[None, None, bool]:
    """Yields None every 64 tree nodes, then returns True when the
    antecedent's trees with `bounds.max_domain` elements show that no
    countermodel has at most that many (see the module docstring), or
    False at the first valuation whose tree refutes the sequent.  Raises
    `_Deadline` once the clock passes `stop_at`, read where it yields,
    after each valuation and before each diamond of the consequent.

    A tree's worlds are numbered in creation order from the root 0, and
    `parent[u]` is the world whose diamond made u (-1 for the root), so
    a tree of W worlds takes O(W) memory.  Variables and constants share
    one valuation dict, keyed by variable id and by constant name.
    """
    names: list[int | str] = [
        *sorted(fv(seq.ante) | fv(seq.cons)),
        *sorted(consts_of(seq.ante) | consts_of(seq.cons)),
    ]

    # the worlds where phi holds; reads the current size, atoms, parent
    # and full
    def holds(phi: Formula, env: dict) -> int:
        kind = type(phi)
        if kind is Pred:
            return atoms.get(
                (phi.name, tuple(env[a.id] if type(a) is Var else env[a.name] for a in phi.args)), 0
            )
        if kind is And:
            bits = holds(phi.left, env)
            return bits and bits & holds(phi.right, env)
        if kind is Diam:
            # the proper ancestors of the worlds in inner, in time linear
            # in the tree: each is marked once, and a marked world's
            # ancestors are marked already
            if stop_at is not None and time.monotonic() > stop_at:
                raise _Deadline
            inner = format(holds(phi.body, env), "b")[::-1]
            marks = bytearray(len(parent))
            u = inner.find("1")
            while u >= 0:
                p = parent[u]
                while p >= 0 and not marks[p]:
                    marks[p] = 1
                    p = parent[p]
                u = inner.find("1", u + 1)
            return int(marks[::-1].translate(_BITS), 2)
        if kind is All:
            bits = full
            for e in range(size):
                bits &= holds(phi.body, {**env, phi.var: e})
                if not bits:
                    break
            return bits
        return full  # Top

    size = bounds.max_domain
    steps = 0
    for labels in _labellings(len(names), size):
        env = dict(zip(names, labels))
        atoms: dict[tuple[str, tuple[int, ...]], int] = {}
        parent = [-1]
        todo: list[tuple[Formula, int, dict]] = [(seq.ante, 0, env)]
        while todo:
            steps += 1
            if steps % 64 == 0:
                if stop_at is not None and time.monotonic() > stop_at:
                    raise _Deadline
                yield None
            phi, w, local = todo.pop()
            kind = type(phi)
            if kind is Pred:
                args = tuple(local[a.id] if type(a) is Var else local[a.name] for a in phi.args)
                key = (phi.name, args)
                atoms[key] = atoms.get(key, 0) | 1 << w
            elif kind is And:
                todo.append((phi.right, w, local))
                todo.append((phi.left, w, local))
            elif kind is Diam:
                parent.append(w)
                todo.append((phi.body, len(parent) - 1, local))
            elif kind is All:
                todo.extend((phi.body, w, {**local, phi.var: e}) for e in range(size))
        full = (1 << len(parent)) - 1
        if not holds(seq.cons, env) & 1:
            return False
        if stop_at is not None and time.monotonic() > stop_at:
            raise _Deadline
    return True


def _verify_refutation(model: Model, w: int, g: Assignment, seq: Sequent) -> None:
    frame = model.frame
    if any(a == b for (a, b) in frame.rel):
        raise InternalError("refutation witness is not irreflexive")
    if len(set(frame.domains)) != 1:
        raise InternalError("refutation witness is not constant domain")
    ident = tuple(range(frame.domains[0]))
    if any(row != ident for block in frame.eta for row in block):
        raise InternalError("refutation witness eta is not the identity")
    if not (_sat(model.raw, w, g, seq.ante) and not _sat(model.raw, w, g, seq.cons)):
        raise InternalError("refutation witness does not refute the sequent")


def _refutation(hit: tuple[RawModel, int, Assignment], seq: Sequent) -> Refuted:
    """A hit of `_candidates`, validated and re-verified with `sat`."""
    raw, w, g = hit
    model = validate_model(raw)
    _verify_refutation(model, w, g, seq)
    return Refuted(model, w, g)


def _refutations(
    sig: Signature, seq: Sequent, bounds: SearchBounds, stop_at: float | None
) -> Generator[None, None, Refuted | None]:
    """The refutation half as a stream: the antecedent's tree check, then,
    unless it shows that the bounds hold no countermodel, one step per
    candidate up to the first hit.  Returns that hit, or None."""
    if (yield from _no_countermodel(seq, bounds, stop_at)):
        return None
    for hit in _candidates(sig, seq, bounds, stop_at):
        if hit is not None:
            return _refutation(hit, seq)
        yield None


def _run(steps: Generator[None, None, Any], pause_at: float | None = None) -> Any:
    """Pull a stream to its end and return its value, or (with
    `pause_at`) until the clock passes it, after at least one step, and
    return None then.  A stream that has ended returns None at once."""
    try:
        while True:
            next(steps)
            if pause_at is not None and time.monotonic() > pause_at:
                return None
    except StopIteration as done:
        return done.value


def refute(
    sig: Signature, seq: Sequent, bounds: SearchBounds = SearchBounds()
) -> Refuted | Exhausted:
    """The first constant-domain irreflexive countermodel in enumeration
    order, or Exhausted, saying whether the bounds or the deadline ended
    the search.  Enumeration is skipped when the antecedent's tree shows
    that the bounds hold no countermodel."""
    try:
        found = _run(_refutations(sig, seq, bounds, _stop_at(bounds)))
    except _Deadline:
        return Exhausted("deadline reached")
    return found or Exhausted("no countermodel within bounds")


def enumerate_countermodels(
    sig: Signature, seq: Sequent, bounds: SearchBounds = SearchBounds()
) -> tuple[Model, int, Assignment] | None:
    """`refute`'s countermodel, world and assignment, or None when the
    bounded space has none (or the deadline ran out)."""
    out = refute(sig, seq, bounds)
    return (out.model, out.world, out.assignment) if isinstance(out, Refuted) else None


# -- backward proof search ---------------------------------------------


class _ProofSearch:
    """Fresh variables and reserved constants are drawn lazily, in order,
    so a large depth bound costs nothing until search gets that far."""

    def __init__(self, seq: Sequent, sig: Signature, stop_at: float | None):
        self.sig = sig
        self.stop_at = stop_at
        self.nodes = 0
        self.memo: dict[tuple[Formula, Formula], int] = {}
        self.used_vars = all_vars(seq.ante) | all_vars(seq.cons)
        # the sequent's own terms, each once, in order of first occurrence
        self.terms = list(dict.fromkeys(chain(terms_of(seq.ante), terms_of(seq.cons))))

    def candidates(self) -> Iterator[Term]:
        """The sequent's own terms, then two variables new to it."""
        fresh = (Var(v) for v in count() if v not in self.used_vars)
        return chain(self.terms, islice(fresh, 2))

    def tick(self) -> None:
        self.nodes += 1
        if self.stop_at is not None and self.nodes % 64 == 0:
            if time.monotonic() > self.stop_at:
                raise _Deadline

    def dfs(self, ante: Formula, cons: Formula, depth: int, path: set) -> Derivation | None:
        self.tick()
        leaf = _axiom_leaf(ante, cons)
        if leaf is not None:
            return leaf
        if depth <= 1:
            return None
        goal = (ante, cons)
        if goal in path:
            return None
        if self.memo.get(goal, 0) >= depth:
            return None
        path.add(goal)
        try:
            found = self._moves(ante, cons, depth, path)
        finally:
            path.discard(goal)
        if found is None:
            self.memo[goal] = depth
        return found

    def _moves(self, ante: Formula, cons: Formula, depth: int, path: set) -> Derivation | None:
        if isinstance(cons, And):
            left = self.dfs(ante, cons.left, depth - 1, path)
            if left is not None:
                right = self.dfs(ante, cons.right, depth - 1, path)
                if right is not None:
                    return and_intro(left, right)
        if isinstance(ante, Diam) and isinstance(cons, Diam):
            p = self.dfs(ante.body, cons.body, depth - 1, path)
            if p is not None:
                return nec(p)
        if isinstance(cons, All) and cons.var not in fv(ante):
            p = self.dfs(ante, cons.body, depth - 1, path)
            if p is not None:
                return all_intro_right(p, cons.var)
        if isinstance(ante, All):
            for t in self.candidates():
                if freefor(ante.body, ante.var, t):
                    p = self.dfs(sub(ante.body, ante.var, t), cons, depth - 1, path)
                    if p is not None:
                        return all_intro_left(ante.body, ante.var, t, p)
        for middle in _cut_candidates(ante, cons):
            first = self.dfs(ante, middle, depth - 1, path)
            if first is not None:
                second = self.dfs(middle, cons, depth - 1, path)
                if second is not None:
                    return cut_rule(first, second)
        # generalize a constant away, then instantiate it back
        goal_consts = sorted(consts_of(ante) | consts_of(cons))
        if goal_consts:
            x = _fresh_var(ante, cons)
            for c in goal_consts:
                p = self.dfs(
                    generalize(ante, Const(c), x),
                    generalize(cons, Const(c), x),
                    depth - 1,
                    path,
                )
                if p is not None:
                    return term_inst(p, x, Const(c))
        # freeze a free variable as a reserved constant
        variables = sorted(fv(ante) | fv(cons))
        if variables:
            c = self._fresh_const(ante, cons)
            for x in variables:
                p = self.dfs(sub(ante, x, Const(c)), sub(cons, x, Const(c)), depth - 1, path)
                if p is not None:
                    return const_elim(ante, cons, x, c, p)
        return None

    def _fresh_const(self, ante: Formula, cons: Formula) -> str:
        """The first of ``k0``, ``k1``, ... that neither the signature nor
        the goal names.  Only this move adds one to a goal, so a goal
        frozen below depth n holds at most n - 2 of them, and the name is
        among the first n that the signature does not declare."""
        used = consts_of(ante) | consts_of(cons) | self.sig.constants
        return next(name for name in (f"k{i}" for i in count()) if name not in used)


def _axiom_leaf(ante: Formula, cons: Formula) -> Derivation | None:
    if cons == TOP:
        return ax_top(ante)
    if ante == cons:
        return ax_refl(ante)
    if isinstance(ante, And):
        if ante.left == cons:
            return ax_and_left(ante.left, ante.right)
        if ante.right == cons:
            return ax_and_right(ante.left, ante.right)
    if (
        isinstance(ante, Diam)
        and isinstance(ante.body, Diam)
        and isinstance(cons, Diam)
        and ante.body.body == cons.body
    ):
        return ax_trans(cons.body)
    return None


def _cut_candidates(ante: Formula, cons: Formula) -> list[Formula]:
    out: list[Formula] = []
    seen = {ante, cons}
    for f in chain(subformulas(ante), subformulas(cons)):
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def _fresh_var(ante: Formula, cons: Formula) -> int:
    used = all_vars(ante) | all_vars(cons)
    v = 0
    while v in used:
        v += 1
    return v


def _proofs(
    seq: Sequent, sig: Signature, bounds: SearchBounds, stop_at: float | None
) -> Generator[None, None, Derivation | None]:
    """The proof half as a stream: iterative deepening, one depth per
    step.  Returns the first derivation found, re-checked, or None."""
    state = _ProofSearch(seq, sig, stop_at)
    for depth in range(1, bounds.max_proof_depth + 1):
        d = state.dfs(seq.ante, seq.cons, depth, set())
        if d is not None:
            return _rechecked(d, seq, sig)
        yield None


def proof_search(
    seq: Sequent, sig: Signature, bounds: SearchBounds = SearchBounds()
) -> Derivation | None:
    """Iterative-deepening backward search; any result re-checks to the
    goal sequent (under the signature extended with reserved constants)."""
    try:
        return _run(_proofs(seq, sig, bounds, _stop_at(bounds)))
    except _Deadline:
        return None


def _rechecked(d: Derivation, seq: Sequent, sig: Signature) -> Derivation:
    """`d`, once the kernel re-checks it to `seq` under `sig` extended
    with the constants it names, which are the reserved ones it uses."""
    if check(d, used_signature(sig, d)) != seq:
        raise InternalError("proof search produced a non-checking derivation")
    return d


# -- the decision procedure --------------------------------------------


def decide(
    seq: Sequent, sig: Signature, bounds: SearchBounds = SearchBounds()
) -> SearchOutcome:
    """Take turns between the proof and refutation halves in equal time.

    Each turn runs one proof depth, then the refutation stream (the
    antecedent's tree check, then candidate models unless the check
    clears the sequent) for as long as that depth took, at least one
    step, so neither half waits on the other for more than twice the
    time it spends itself.  Once the depths are spent, the refutation
    stream runs to its end.  Both certificates are re-verified.
    """
    stop_at = _stop_at(bounds)
    proofs = _proofs(seq, sig, bounds, stop_at)
    refutations = _refutations(sig, seq, bounds, stop_at)
    try:
        for _ in range(bounds.max_proof_depth):
            started = time.monotonic()
            d = _run(proofs, started)  # pauses after one step: one depth
            if d is not None:
                return Proved(d)
            refuted = _run(refutations, 2 * time.monotonic() - started)
            if refuted is not None:
                return refuted
        refuted = _run(refutations)
    except _Deadline:
        return Exhausted("deadline reached")
    return refuted or Exhausted(
        f"no proof within depth {bounds.max_proof_depth} and no countermodel "
        f"within {bounds.max_worlds} world(s) and {bounds.max_domain} element(s)"
    )
