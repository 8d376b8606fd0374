"""Shared strategies, model builders, and test-side oracles."""

from __future__ import annotations

from itertools import product

import hypothesis.strategies as st

from qrc1 import (
    All,
    And,
    Assignment,
    Const,
    Diam,
    Pred,
    RawFrame,
    RawModel,
    Signature,
    TOP,
    Var,
    eta_compose,
    sat,
    signature,
    xaltern_support,
)

SIG = signature(["c", "d"], {"P": 1, "S": 2, "R": 0})

variables = st.integers(min_value=0, max_value=4)

terms = st.one_of(
    variables.map(Var),
    st.sampled_from([Const("c"), Const("d")]),
)

atoms = st.one_of(
    st.just(TOP),
    st.just(Pred("R", ())),
    st.builds(lambda a: Pred("P", (a,)), terms),
    st.builds(lambda a, b: Pred("S", (a, b)), terms, terms),
)

formulas = st.recursive(
    atoms,
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Diam, kids),
        st.builds(All, variables, kids),
    ),
    max_leaves=12,
)


def identity_eta(domains: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    n = len(domains)
    return tuple(
        tuple(tuple(range(domains[w])) for _ in range(n)) for w in range(n)
    )


def single_world_model(
    sig: Signature = SIG, size: int = 1, preds: dict | None = None
) -> RawModel:
    frame = RawFrame(1, frozenset(), (size,), identity_eta((size,)))
    pred_interp = {name: frozenset() for name in sig.predicates}
    pred_interp.update(preds or {})
    return RawModel(
        sig,
        frame,
        ({c: 0 for c in sig.constants},),
        (pred_interp,),
    )


def two_world_chain(sig: Signature, pred_at_1: dict | None = None) -> RawModel:
    """Worlds 0 R 1, singleton domains, identity eta."""
    frame = RawFrame(2, frozenset({(0, 1)}), (1, 1), identity_eta((1, 1)))
    empty = {name: frozenset() for name in sig.predicates}
    at1 = dict(empty)
    at1.update(pred_at_1 or {})
    consts = {c: 0 for c in sig.constants}
    return RawModel(sig, frame, (consts, consts), (empty, at1))


def sat_reference(raw: RawModel, w: int, g: Assignment, phi) -> bool:
    """Oracle for `sat`: the evaluator it replaced, which builds a new
    `Assignment` per diamond step (`eta_compose`) and per quantifier value
    (`Assignment.with_value`) and scans every world for successors."""
    if isinstance(phi, Pred):
        ci = raw.const_interp[w]
        tup = tuple(
            g(a.id) if isinstance(a, Var) else ci[a.name] for a in phi.args
        )
        return tup in raw.pred_interp[w].get(phi.name, frozenset())
    if isinstance(phi, And):
        return sat_reference(raw, w, g, phi.left) and sat_reference(raw, w, g, phi.right)
    if isinstance(phi, Diam):
        frame = raw.frame
        for u in range(frame.worlds):
            if (w, u) in frame.rel and sat_reference(
                raw, u, eta_compose(raw, w, u, g), phi.body
            ):
                return True
        return False
    if isinstance(phi, All):
        return all(
            sat_reference(raw, w, g.with_value(phi.var, d), phi.body)
            for d in range(raw.frame.domains[w])
        )
    return True  # Top


def sat_alt(raw: RawModel, w: int, g: Assignment, phi, var_pool: tuple[int, ...]):
    """Independent satisfaction oracle whose universal-quantifier clause
    quantifies over alternative assignments rather than domain elements.

    ``A x . body`` holds under g iff body holds under every finitely
    represented assignment h (overrides drawn from var_pool, default and
    values from the world's domain) that agrees with g outside {x}.
    The caller must keep g's overrides inside var_pool, or no h at all
    may qualify and the clause would be vacuous.
    """
    if isinstance(phi, Pred):
        return sat(raw, w, g, phi)
    if isinstance(phi, And):
        return sat_alt(raw, w, g, phi.left, var_pool) and sat_alt(
            raw, w, g, phi.right, var_pool
        )
    if isinstance(phi, Diam):
        return any(
            (w, u) in raw.frame.rel
            and sat_alt(raw, u, eta_compose(raw, w, u, g), phi.body, var_pool)
            for u in range(raw.frame.worlds)
        )
    if isinstance(phi, All):
        size = raw.frame.domains[w]
        for h in _assignments(w, size, var_pool):
            if xaltern_support(h, g, {phi.var}) and not sat_alt(
                raw, w, h, phi.body, var_pool
            ):
                return False
        return True
    return True  # Top


def _assignments(w: int, size: int, var_pool: tuple[int, ...]):
    """Every assignment representation over the pool at a world."""
    for default in range(size):
        for values in product(range(size), repeat=len(var_pool)):
            yield Assignment(w, default, dict(zip(var_pool, values)))
