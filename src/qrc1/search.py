"""Bounded proof search, exhaustive countermodel search, and the
decision procedure that runs them in order.

Countermodels are sought in the class that suffices for refutation:
constant domain, identity compatibility functions, and an irreflexive
transitive relation.  Candidates are enumerated in a fixed order, by
increasing (world count, domain size), then relation bitmask, then
predicate-table bitmasks with the rightmost slot varying fastest, and
each is checked under the valuations of the sequent's free variables and
constants up to relabelling, as the tree check below values them
(`_labellings`), so any witness found is a reproducible golden output.
In this class a valuation of the variables is the same at every world,
so one evaluator, `_evaluator`, checks candidates and the trees below
alike on world bitmasks: a formula denotes the set of worlds where it
holds, conjunction is bitwise and, a diamond gives the worlds with a
successor in its body's set, and a quantifier ands its body's sets over
the domain.  The evaluator reads the clock at a quantifier's first
element and every 64th, enumeration also before every valuation, and
the tree check at each tree's first node and every 64th and at each
diamond.  A candidate's check is as untrusted as the rest of search: a
hit is built as a `RawModel`, validated, and re-verified with `sat`.

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
  and constants.  The antecedent's tree, built by `_tree`, has a root,
  one fresh child per diamond instance, each quantifier expanded over
  all d elements, only the atoms the antecedent asserts, and the
  transitive closure of the edges.  It is a model of the class, and the
  antecedent holds at its root.
- Let M refute the sequent at world w under v.  Send the root to w, and
  each child, made for a diamond whose body holds in M at the image of
  its parent, to a successor there where that body holds; one exists
  because the antecedent holds at w.  Each tree edge lands on an edge of
  M, so each edge of the closure lands on a path, which is an edge by
  transitivity, and each asserted atom holds in M where it lands.  So
  the consequent, false at w, is false at the tree's root.
- A quantifier whose variable is not free in its body would make d
  copies of one subtree; the tree makes one.  Folding the copies onto it
  and including it among them are both maps as in the first point, so
  the verdict is the same.
- Copying an element e (adding e' with the atoms of e, read as e)
  preserves every formula, by induction, a quantifier ranging over e in
  place of e'.  So a countermodel with d elements gives one with d + 1
  elements and the same valuation: refutability only grows with d.
- Put the other way round: if the consequent holds at the root of every
  such tree for d = max_domain, no countermodel exists within
  `max_domain` elements at any world count.  Renaming the elements is
  an isomorphism, so v is needed only up to relabelling: one valuation
  per set partition of the names into at most d blocks.

The check yields no certificate, but its verdict settles which half
of the search can succeed.  A tree that clears the sequent lets
`decide` and `refute` skip enumeration.  A tree that refutes it is an
adequate model where the sequent fails, so by soundness no derivation
exists, and `decide` skips proof search.

The two-element check, `_clears`, builds these trees at two elements
(one when `max_domain` is 1) and only under the valuations that set at
most one name apart (`_one_apart`): k + 1 trees for k names, where every
two-element valuation would be 2^(k-1).  `decide` and `refute` run it on
the root, and proof search on the goals it meets: a goal that a tree
refutes has no derivation, so search never expands it and finds the
proof it would find without the check.  Each goal below the root is
checked once, when first met with more than two levels of depth left
(with two, its expansion is axiom tests alone, cheaper than the check).

Proof search runs backward over the ten rules with iterative deepening.
It is best effort: cut formulas are drawn from the goal's subformulas,
instantiation terms from the sequent's own terms plus two fresh
variables, and constants for the constant-elimination move from the
names ``k0``, ``k1``, ... that the signature does not declare.  Whatever
it returns is re-checked by the kernel.

`decide` and `refute` share one pipeline, each step run to its end.
`decide` proves an axiom instance at once, and `refute` answers that it
has no countermodel; otherwise both run the two-element check on the
root, and `decide` runs proof search on a root that it clears.  Both end
in one refutation step, `_refutation`: a root that the check cleared goes
to the tree check at `max_domain`, and a root that either check refutes
to enumeration, which returns its first hit.  A two-element refutation
gives one with `max_domain` elements, by the copying argument above, and
no derivation, by soundness.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from itertools import chain, count, islice

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
    sat as _sat,
    validate_model,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import random
    from typing import Callable, Iterable, Iterator


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
    seq: Sequent,
    models: Iterable[Model],
    samples_per_model: int = 8,
    rng: random.Random | None = None,
) -> tuple[Model, int, Assignment] | None:
    """Look for a world and assignment where the sequent fails (its
    antecedent holds and its consequent does not), over every world of
    every supplied model with randomly sampled assignments.  For the
    conclusion of a checked derivation, a hit would indicate a kernel bug.
    """
    import random

    rng = rng or random.Random(0)
    variables = sorted(fv(seq.ante) | fv(seq.cons))
    for m in models:
        for w in range(m.frame.worlds):
            size = m.frame.domains[w]
            if size == 0:
                continue
            for _ in range(samples_per_model):
                g = Assignment(
                    w, rng.randrange(size), {x: rng.randrange(size) for x in variables}
                )
                if _sat(m, w, g, seq.ante) and not _sat(m, w, g, seq.cons):
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


def _evaluator(size: int, full: int, tables: dict,
               diamond: Callable[[int], int] | None,
               stop_at: float | None) -> Callable[[Formula, dict], int]:
    """`holds(phi, env)`: the worlds of `full` where phi holds under `env`,
    which maps variable ids and constant names to elements, with `size`
    elements, ``tables[name][i]`` the worlds where the i-th tuple in
    `product` order is in `name`, and `diamond(bits)` the worlds with a
    successor in `bits` (None if no world has one: a diamond's body then
    goes unevaluated).  Raises `_Deadline` once the clock passes
    `stop_at`, read before a quantifier's first element and every 64th."""

    def holds(phi: Formula, env: dict[int | str, int]) -> int:
        kind = type(phi)
        if kind is Pred:
            i = 0
            for a in phi.args:
                i = i * size + env[a.id if type(a) is Var else a.name]
            return tables[phi.name][i]
        # each case stops as soon as no world can be left in the set
        if kind is And:
            bits = holds(phi.left, env)
            return bits and bits & holds(phi.right, env)
        if kind is Diam:
            return diamond(holds(phi.body, env)) if diamond else 0
        if kind is All:
            bits = full
            for e in range(size):
                if not e & 63 and stop_at is not None and time.monotonic() > stop_at:
                    raise _Deadline
                bits &= holds(phi.body, {**env, phi.var: e})
                if not bits:
                    break
            return bits
        return full  # Top

    return holds


def _first_countermodel(
    sig: Signature, seq: Sequent, bounds: SearchBounds, stop_at: float | None = None
) -> tuple[RawModel, int, Assignment] | None:
    """The first candidate model in enumeration order with a world where
    the antecedent holds and the consequent fails, with the first such
    world and the first valuation of the sequent's names there, or None.
    Raises `_Deadline` once the clock passes `stop_at`, read before every
    valuation and by `_evaluator`.

    The names are valued up to relabelling only, by `_labellings`.  At a
    fixed world count, domain size and relation, the counter below runs
    through every predicate table, and renaming the elements turns any
    countermodel into one whose valuation is a restricted growth string;
    constants that the sequent does not name take element 0.  So the
    first (world count, domain size, relation) with a countermodel is the
    first with a hit.  A `RawModel` is built only for a hit.
    """
    pred_names = sorted(
        {f.name for f in chain(subformulas(seq.ante), subformulas(seq.cons))
         if isinstance(f, Pred)}
    )
    other_preds = [p for p in sig.predicates if p not in pred_names]
    names = _names(seq)
    for n in range(1, bounds.max_worlds + 1):
        full = (1 << n) - 1
        slots = [(w, name) for w in range(n) for name in pred_names]
        seen: list[tuple[frozenset[tuple[int, int]], list[int]]] = []
        for size in range(1, bounds.max_domain + 1):
            # the first size walks the relations lazily and keeps them for the rest
            for rel, diam in _frames(n, seen) if size == 1 else seen:
                # tables[name][i]: the worlds where the i-th tuple is in name.
                # Bit k of the counter owns one (table, index, world bit) entry,
                # the last slot taking the lowest bits, so counting up from the
                # empty tables runs through them in `product` order with the
                # rightmost slot fastest.  Each count toggles the entries of the
                # bits it flips, each listed when first flipped.
                tables = {name: defaultdict(int) for name in pred_names}
                entries = ((tables[name], i, 1 << w) for w, name in reversed(slots)
                           for i in range(size ** sig.predicates[name]))
                owner: list[tuple[defaultdict[int, int], int, int]] = []
                holds = _evaluator(size, full, tables, diam.__getitem__ if rel else None, stop_at)
                last = 0
                for counter in count():
                    flips = (counter ^ last).bit_length()  # a run of low bits
                    if flips > len(owner):
                        owner.extend(islice(entries, 1))
                        if flips > len(owner):
                            break  # past the last tables
                    for row, i, bit in owner[:flips]:
                        row[i] ^= bit
                    last = counter
                    hit: tuple[int, dict[int | str, int]] | None = None
                    for labels in _labellings(len(names), size):
                        if stop_at is not None and time.monotonic() > stop_at:
                            raise _Deadline
                        env = dict(zip(names, labels))
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
                        continue
                    w, env = hit
                    preds: list[dict[str, frozenset[tuple[int, ...]]]] = [
                        {p: frozenset() for p in other_preds} for _ in range(n)
                    ]
                    for u, name in slots:  # each tuple decoded from its index
                        digits = range(sig.predicates[name] - 1, -1, -1)
                        preds[u][name] = frozenset(
                            tuple(i // size ** j % size for j in digits)
                            for i, worlds in tables[name].items() if worlds >> u & 1
                        )
                    frame = RawFrame(n, rel, (size,) * n, ((tuple(range(size)),) * n,) * n)
                    cmap = {c: env.get(c, 0) for c in sig.constants}
                    raw = RawModel(sig, frame, (cmap,) * n, tuple(preds))
                    return raw, w, Assignment(w, 0, {x: env[x] for x in names if type(x) is int})
    return None


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


def _one_apart(k: int, d: int) -> Iterator[list[int]]:
    """The valuations of k names in at most two of the d elements that
    set at most one name apart: all names equal, then, when d >= 2, each
    name alone, as restricted growth strings without repeats: k + 1 of
    them for k >= 3, where for k <= 2 setting the first name apart
    repeats another."""
    yield [0] * k
    if d > 1:
        for i in range(0 if k > 2 else 1, k):
            yield [int((j == i) != (i == 0)) for j in range(k)]


class _Asserted(dict):
    """One predicate's atoms in a tree: the worlds asserting each tuple,
    listed under its index in `product` order, and read as a bitmask
    built anew each time (one bitmask kept per atom would take memory
    quadratic in the tree)."""

    __slots__ = ()

    def __getitem__(self, i: int) -> int:
        worlds = self.get(i)
        if worlds is None:
            return 0
        marks = bytearray(max(worlds) + 1)
        for w in worlds:
            marks[w] = 1
        return int(marks[::-1].translate(_BITS), 2)


def _names(seq: Sequent) -> list[int | str]:
    """The keys of a valuation: free variable ids, then constant names, each sorted."""
    ante, cons = seq.ante, seq.cons
    return [*sorted(fv(ante) | fv(cons)), *sorted(consts_of(ante) | consts_of(cons))]


def _tree(seq: Sequent, size: int, env: dict, stop_at: float | None) -> tuple[list[int], dict]:
    """The antecedent's tree with `size` elements under `env`: `parent[u]`
    is the world whose diamond made u, in creation order from the root 0
    (parent -1), and the tables list each atom's worlds (`_Asserted`).
    One pending element per open quantifier keeps its memory linear in its
    worlds and atoms, none up front for a large `size`.  Raises `_Deadline`
    once the clock passes `stop_at`, read at the first node and every 64th."""
    tables: defaultdict[str, _Asserted] = defaultdict(_Asserted)
    parent = [-1]
    # e: the element that a quantifier binds next
    todo: list[tuple[Formula, int, dict, int]] = [(seq.ante, 0, env, 0)]
    steps = 0
    while todo:
        if not steps & 63 and stop_at is not None and time.monotonic() > stop_at:
            raise _Deadline
        steps += 1
        phi, w, local, e = todo.pop()
        kind = type(phi)
        if kind is Pred:
            i = 0
            for a in phi.args:
                i = i * size + (local[a.id] if type(a) is Var else local[a.name])
            tables[phi.name].setdefault(i, []).append(w)
        elif kind is And:
            todo.append((phi.right, w, local, 0))
            todo.append((phi.left, w, local, 0))
        elif kind is Diam:
            parent.append(w)
            todo.append((phi.body, len(parent) - 1, local, 0))
        elif kind is All:
            # one element at a time; where the variable is not free in
            # the body, every element makes the same subtree, made once
            if e + 1 < size and phi.var in fv(phi.body):
                todo.append((phi, w, local, e + 1))
            todo.append((phi.body, w, {**local, phi.var: e}, 0))
    return parent, tables


def _no_countermodel(
    seq: Sequent, size: int, stop_at: float | None,
    valuations: Callable[[int, int], Iterable[list[int]]] = _labellings,
) -> bool:
    """True when the consequent holds at the root of the antecedent's
    `_tree` with `size` elements under each valuation that
    `valuations(k, size)` gives the sequent's k names, or False at the
    first valuation whose tree refutes the sequent.  Under every
    valuation up to relabelling (the default, `_labellings`), True shows
    that no countermodel has at most `size` elements (see the module
    docstring).  Raises `_Deadline` once the clock passes `stop_at`, read
    by `_tree` at each tree's first node and every 64th, before each
    diamond of the consequent and by `_evaluator`."""
    names = _names(seq)

    def diamond(bits: int) -> int:
        # the proper ancestors of the worlds in bits, each marked once: a
        # marked world's ancestors are marked already, so linear in the tree
        if stop_at is not None and time.monotonic() > stop_at:
            raise _Deadline
        inner = format(bits, "b")[::-1]
        marks = bytearray(len(parent))
        u = inner.find("1")
        while u >= 0:
            p = parent[u]
            while p >= 0 and not marks[p]:
                marks[p] = 1
                p = parent[p]
            u = inner.find("1", u + 1)
        return int(marks[::-1].translate(_BITS), 2)

    for labels in valuations(len(names), size):
        env = dict(zip(names, labels))
        parent, tables = _tree(seq, size, env, stop_at)
        holds = _evaluator(size, (1 << len(parent)) - 1, tables,
                           diamond if len(parent) > 1 else None, stop_at)
        if not holds(seq.cons, env) & 1:
            return False
    return True


# Neither the two elements nor the valuations are a setting.  On the first
# 3000 sequents of the benchmark's decide-valid inputs (seed 1), pruning
# with every valuation left 516k search nodes at one element, 362k at two
# and 358k at three, and three elements walk every partition of the names
# into three blocks (41 valuations for 5 names, against 16 at two).  Of the
# goals that some two-element valuation refutes, 99.8% fall at one of
# these k + 1 for k names.  All 2^(k-1) of them cost more than the search
# they save on goals with many names: a 12-name sequent went from proved
# in 0.3 s to past a 2 s deadline.
def _clears(seq: Sequent, stop_at: float | None, max_domain: int = 2) -> bool:
    """The two-element check: the antecedent's trees at two elements (one
    when `max_domain` is 1), under `_one_apart`.  False shows a
    countermodel within `max_domain` elements, since refutability only
    grows with the domain size, and by soundness that no derivation
    exists.  Proof search, which needs only the latter, keeps the default."""
    return _no_countermodel(seq, min(2, max_domain), stop_at, _one_apart)


def _verify_refutation(model: Model, w: int, g: Assignment, seq: Sequent) -> None:
    frame = model.frame
    if any(a == b for (a, b) in frame.rel):
        raise InternalError("refutation witness is not irreflexive")
    if len(set(frame.domains)) != 1:
        raise InternalError("refutation witness is not constant domain")
    ident = tuple(range(frame.domains[0]))
    if any(row != ident for block in frame.eta for row in block):
        raise InternalError("refutation witness eta is not the identity")
    if not (_sat(model, w, g, seq.ante) and not _sat(model, w, g, seq.cons)):
        raise InternalError("refutation witness does not refute the sequent")


def _refutation(
    sig: Signature, seq: Sequent, bounds: SearchBounds, stop_at: float | None, cleared: bool
) -> Refuted | Exhausted | None:
    """The refutation step, given the two-element check's verdict.  A
    sequent that it cleared goes to the tree check at `max_domain`, and
    None means that this check cleared it too.  Otherwise a tree has
    refuted the sequent, and the step returns `_first_countermodel`'s
    hit, validated and re-verified with `sat`, or Exhausted if every
    countermodel needs more worlds than the bounds allow."""
    if cleared and _no_countermodel(seq, bounds.max_domain, stop_at):
        return None
    hit = _first_countermodel(sig, seq, bounds, stop_at)
    if hit is None:
        return Exhausted(
            f"refutable, but every countermodel with at most {bounds.max_domain} "
            f"element(s) needs more than {bounds.max_worlds} world(s)"
        )
    raw, w, g = hit
    model = validate_model(raw)
    _verify_refutation(model, w, g, seq)
    return Refuted(model, w, g)


def refute(
    sig: Signature, seq: Sequent, bounds: SearchBounds = SearchBounds()
) -> Refuted | Exhausted:
    """The first constant-domain irreflexive countermodel in enumeration
    order, its names valued up to relabelling, or Exhausted, saying what
    ended the search: the deadline, a tree showing that no countermodel
    has at most `bounds.max_domain` elements (then enumeration is
    skipped), or, when a tree refutes the sequent, a world bound too small
    for any countermodel.  An axiom instance, which by soundness has none,
    is answered before any tree; otherwise it runs the two-element check,
    then the refutation step."""
    if _axiom_leaf(seq.ante, seq.cons) is not None:
        return Exhausted("no countermodel within bounds")
    stop_at = _stop_at(bounds)
    try:
        found = _refutation(sig, seq, bounds, stop_at, _clears(seq, stop_at, bounds.max_domain))
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
    so a large depth bound costs nothing until search gets that far.
    A goal that the two-element check refutes (see the module docstring) is
    recorded as failed at every depth; `pruned` counts them."""

    def __init__(self, seq: Sequent, sig: Signature, stop_at: float | None):
        self.sig = sig
        self.stop_at = stop_at
        self.nodes = 0
        self.pruned = 0
        self.memo: dict[tuple[Formula, Formula], float] = {}
        self.cleared: set[tuple[Formula, Formula]] = set()
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
        # with two levels left a goal expands into axiom tests alone, which
        # cost less than the check; one met there is checked when met deeper
        if depth > 2 and path and goal not in self.cleared:
            if not _clears(Sequent(ante, cons), self.stop_at):
                self.memo[goal] = math.inf
                self.pruned += 1
                return None
            self.cleared.add(goal)
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
        """The first of ``k0``, ``k1``, ... that neither the goal nor the
        signature names, as a constant or a predicate.  Only this move adds
        one to a goal, so a goal frozen below depth n holds at most n - 2 of
        them, and the name is among the first n that the signature does not."""
        used = consts_of(ante) | consts_of(cons) | self.sig.constants | self.sig.predicates.keys()
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
) -> Derivation | None:
    """Iterative deepening: the first derivation found, re-checked, or
    None.  Raises `_Deadline` once the clock passes `stop_at`."""
    state = _ProofSearch(seq, sig, stop_at)
    for depth in range(1, bounds.max_proof_depth + 1):
        d = state.dfs(seq.ante, seq.cons, depth, set())
        if d is not None:
            return _rechecked(d, seq, sig)
    return None


def proof_search(
    seq: Sequent, sig: Signature, bounds: SearchBounds = SearchBounds()
) -> Derivation | None:
    """Iterative-deepening backward search; any result re-checks to the
    goal sequent (under the signature extended with reserved constants)."""
    try:
        return _proofs(seq, sig, bounds, _stop_at(bounds))
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
    """Prove an axiom instance at once, its one-step proof re-checked;
    otherwise run the two-element check on the root, proof search if it
    clears the root, and the refutation step that `refute` ends in.

    A tree that refutes the root is an adequate model where the sequent
    fails, so by soundness no derivation exists and proof search is
    skipped.  With no proof, the refutation step's tree check at
    `max_domain` may clear the sequent, which shows that the bounds hold
    no countermodel either.  Both certificates are re-verified.
    """
    leaf = _axiom_leaf(seq.ante, seq.cons)
    if leaf is not None:
        return Proved(_rechecked(leaf, seq, sig))
    stop_at = _stop_at(bounds)
    try:
        cleared = _clears(seq, stop_at, bounds.max_domain)
        if cleared:
            d = _proofs(seq, sig, bounds, stop_at)
            if d is not None:
                return Proved(d)
        found = _refutation(sig, seq, bounds, stop_at, cleared)
    except _Deadline:
        return Exhausted("deadline reached")
    return found or Exhausted(
        f"no proof within depth {bounds.max_proof_depth} and no countermodel "
        f"within {bounds.max_worlds} world(s) and {bounds.max_domain} element(s)"
    )
