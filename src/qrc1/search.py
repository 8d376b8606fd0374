"""Bounded proof search, exhaustive countermodel search, and the
interleaved decision procedure.

Countermodels are sought in the class that suffices for refutation:
constant domain, identity compatibility functions, and an irreflexive
transitive relation.  Candidates are enumerated in a fixed order, by
increasing (world count, domain size), then relation bitmask, then
constant values, then predicate-table bitmasks with the rightmost slot
varying fastest, so any witness found is a reproducible golden output.

Proof search runs backward over the ten rules with iterative deepening.
It is best effort: cut formulas are drawn from the goal's subformulas,
instantiation terms from the sequent's own terms plus a few fresh
variables, and constants for the constant-elimination move from a
reserved namespace.  Whatever it returns is re-checked by the kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Iterator

import random

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


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int = 4
    max_domain: int = 3
    max_proof_depth: int = 8
    max_candidate_terms: int = 2
    deadline: float | None = None  # wall-clock seconds for the whole call

    def __post_init__(self) -> None:
        if (
            min(
                self.max_worlds,
                self.max_domain,
                self.max_proof_depth,
                self.max_candidate_terms,
            )
            < 1
        ):
            raise ValueError("bounds must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")


@dataclass(frozen=True)
class Proved:
    derivation: Derivation


@dataclass(frozen=True)
class Refuted:
    model: Model
    world: int
    assignment: Assignment


@dataclass(frozen=True)
class Exhausted:
    reason: str


SearchOutcome = Proved | Refuted | Exhausted


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


def _irreflexive_transitive(n: int) -> Iterator[frozenset[tuple[int, int]]]:
    """All irreflexive transitive relations on n worlds, by ascending
    bitmask over the off-diagonal pairs in row-major order.  Lazy: the
    filtering cost between yields stays interruptible for the callers
    that poll a deadline per candidate."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for mask in range(1 << len(pairs)):
        rel = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        if all(
            (a, c) in rel
            for (a, b) in rel
            for (b2, c) in rel
            if b2 == b
        ):
            yield rel


def _candidate_models(sig: Signature, seq: Sequent, bounds: SearchBounds) -> Iterator[RawModel]:
    pred_names = sorted(
        {f.name for f in chain(subformulas(seq.ante), subformulas(seq.cons))
         if isinstance(f, Pred)}
    )
    const_names = sorted(consts_of(seq.ante) | consts_of(seq.cons))
    other_preds = [p for p in sig.predicates if p not in pred_names]
    other_consts = [c for c in sig.constants if c not in const_names]
    for n in range(1, bounds.max_worlds + 1):
        for size in range(1, bounds.max_domain + 1):
            ident = tuple(range(size))
            eta = tuple(tuple(ident for _ in range(n)) for _ in range(n))
            domains = (size,) * n
            pools = {
                name: tuple(product(range(size), repeat=sig.predicates[name]))
                for name in pred_names
            }
            slots = [(w, name) for w in range(n) for name in pred_names]
            mask_ranges = [range(1 << len(pools[name])) for (_, name) in slots]
            for rel in _irreflexive_transitive(n):
                frame = RawFrame(n, rel, domains, eta)
                for cvals in product(range(size), repeat=len(const_names)):
                    cmap = dict(zip(const_names, cvals))
                    cmap.update({c: 0 for c in other_consts})
                    const_interp = (cmap,) * n
                    for masks in product(*mask_ranges):
                        preds: list[dict[str, frozenset[tuple[int, ...]]]] = [
                            {p: frozenset() for p in other_preds} for _ in range(n)
                        ]
                        for (w, name), mask in zip(slots, masks):
                            pool = pools[name]
                            preds[w][name] = frozenset(
                                pool[i] for i in range(len(pool)) if mask >> i & 1
                            )
                        yield RawModel(sig, frame, const_interp, tuple(preds))


def _scan(raw: RawModel, seq: Sequent, variables: list[int]) -> tuple[int, Assignment] | None:
    size = raw.frame.domains[0]
    for w in range(raw.frame.worlds):
        for values in product(range(size), repeat=len(variables)):
            g = Assignment(w, 0, dict(zip(variables, values)))
            if _sat(raw, w, g, seq.ante) and not _sat(raw, w, g, seq.cons):
                return w, g
    return None


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


def enumerate_countermodels(
    sig: Signature, seq: Sequent, bounds: SearchBounds = SearchBounds()
) -> tuple[Model, int, Assignment] | None:
    """First constant-domain irreflexive countermodel in enumeration
    order, or None when the bounded space has none (or the deadline ran
    out)."""
    stop_at = time.monotonic() + bounds.deadline if bounds.deadline else None
    variables = sorted(fv(seq.ante) | fv(seq.cons))
    for raw in _candidate_models(sig, seq, bounds):
        hit = _scan(raw, seq, variables)
        if hit is not None:
            w, g = hit
            model = validate_model(raw)
            _verify_refutation(model, w, g, seq)
            return model, w, g
        if stop_at is not None and time.monotonic() > stop_at:
            return None
    return None


# -- backward proof search ---------------------------------------------


class _Deadline(Exception):
    pass


class _ProofSearch:
    def __init__(self, seq: Sequent, sig: Signature, bounds: SearchBounds, stop_at: float | None):
        self.bounds = bounds
        self.stop_at = stop_at
        self.nodes = 0
        self.memo: dict[tuple[Formula, Formula], int] = {}

        used_vars = all_vars(seq.ante) | all_vars(seq.cons)
        fresh: list[Term] = []
        v = 0
        while len(fresh) < bounds.max_candidate_terms:
            if v not in used_vars:
                fresh.append(Var(v))
            v += 1
        seen: set[Term] = set()
        pool: list[Term] = []
        for t in chain(terms_of(seq.ante), terms_of(seq.cons)):
            if t not in seen:
                seen.add(t)
                pool.append(t)
        self.candidates: tuple[Term, ...] = tuple(pool + fresh)

        self.reserved: list[str] = []
        i = 0
        while len(self.reserved) < bounds.max_proof_depth:
            name = f"k{i}"
            if name not in sig.constants:
                self.reserved.append(name)
            i += 1
        self.sig_ext = Signature(
            sig.constants | frozenset(self.reserved), dict(sig.predicates)
        )

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
            for t in self.candidates:
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
            if c is not None:
                for x in variables:
                    p = self.dfs(
                        sub(ante, x, Const(c)), sub(cons, x, Const(c)), depth - 1, path
                    )
                    if p is not None:
                        return const_elim(ante, cons, x, c, p)
        return None

    def _fresh_const(self, ante: Formula, cons: Formula) -> str | None:
        used = consts_of(ante) | consts_of(cons)
        for name in self.reserved:
            if name not in used:
                return name
        return None


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


def proof_search(
    seq: Sequent, sig: Signature, bounds: SearchBounds = SearchBounds()
) -> Derivation | None:
    """Iterative-deepening backward search; any result re-checks to the
    goal sequent (under the signature extended with reserved constants)."""
    stop_at = time.monotonic() + bounds.deadline if bounds.deadline else None
    state = _ProofSearch(seq, sig, bounds, stop_at)
    for depth in range(1, bounds.max_proof_depth + 1):
        try:
            d = state.dfs(seq.ante, seq.cons, depth, set())
        except _Deadline:
            return None
        if d is not None:
            if check(d, state.sig_ext) != seq:
                raise InternalError("proof search produced a non-checking derivation")
            return d
    return None


# -- the decision procedure --------------------------------------------

_MODEL_SLICE = 512


def decide(
    seq: Sequent, sig: Signature, bounds: SearchBounds = SearchBounds()
) -> SearchOutcome:
    """Interleave proof search and countermodel enumeration.

    Proof depths and batches of candidate models alternate until one side
    succeeds or both spaces are exhausted within the bounds.  Proved and
    Refuted outcomes are re-verified before being returned.
    """
    stop_at = time.monotonic() + bounds.deadline if bounds.deadline else None
    state = _ProofSearch(seq, sig, bounds, stop_at)
    candidates = _candidate_models(sig, seq, bounds)
    variables = sorted(fv(seq.ante) | fv(seq.cons))

    depth = 1
    proof_done = False
    models_done = False
    while not (proof_done and models_done):
        if stop_at is not None and time.monotonic() > stop_at:
            return Exhausted("deadline reached")
        if not proof_done:
            try:
                d = state.dfs(seq.ante, seq.cons, depth, set())
            except _Deadline:
                return Exhausted("deadline reached")
            if d is not None:
                if check(d, state.sig_ext) != seq:
                    raise InternalError("proof search produced a non-checking derivation")
                return Proved(d)
            depth += 1
            proof_done = depth > bounds.max_proof_depth
        if not models_done:
            pulled = 0
            exhausted_now = True
            for raw in candidates:
                hit = _scan(raw, seq, variables)
                if hit is not None:
                    w, g = hit
                    model = validate_model(raw)
                    _verify_refutation(model, w, g, seq)
                    return Refuted(model, w, g)
                pulled += 1
                if stop_at is not None and time.monotonic() > stop_at:
                    return Exhausted("deadline reached")
                if pulled >= _MODEL_SLICE and not proof_done:
                    exhausted_now = False
                    break
            models_done = exhausted_now
    return Exhausted(
        f"no proof within depth {bounds.max_proof_depth} and no countermodel "
        f"within {bounds.max_worlds} world(s) and {bounds.max_domain} element(s)"
    )
