"""Seeded random generation of adequate models, formulas, and signatures.

Two model families keep adequacy easy to guarantee by construction:

(a) constant domain: all worlds share one domain, every eta is the
    identity, and the relation is the transitive closure of a random
    edge set; constants are uniform across relation components.

(b) tree relation: the relation is the ancestor relation of a random
    forest, eta is drawn at random on tree edges and composed along the
    unique tree paths (so it composes over related chains by
    construction), eta on unrelated pairs is the constant map onto
    element 0, ``eta[w][w]`` is the identity, and constants are chosen
    at the roots and propagated downward.

Arbitrary transitive relations with varying domains are not generated:
eta composition would then be a global consistency problem rather than a
local construction.
"""

from __future__ import annotations

from itertools import product

from .language import All, And, Diam, Formula, Const, Pred, Signature, Term, TOP, Var, _Value
from .semantics import (
    Model,
    RawFrame,
    RawModel,
    validate_model,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import random
    from typing import Iterator, Sequence


class GenBounds(_Value):
    """Size caps for generated models."""

    max_worlds: int = 4
    max_domain: int = 3

    def __post_init__(self) -> None:
        if self.max_worlds < 1 or self.max_domain < 1:
            raise ValueError("bounds must be positive")


def _transitive_closure(n: int, edges: set[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    reach = [[(a, b) in edges for b in range(n)] for a in range(n)]
    for k in range(n):
        for a in range(n):
            if reach[a][k]:
                row_k = reach[k]
                row_a = reach[a]
                for b in range(n):
                    if row_k[b]:
                        row_a[b] = True
    return frozenset((a, b) for a in range(n) for b in range(n) if reach[a][b])


def _random_preds(
    rng: random.Random, sig: Signature, size: int
) -> dict[str, frozenset[tuple[int, ...]]]:
    out: dict[str, frozenset[tuple[int, ...]]] = {}
    for name in sorted(sig.predicates):
        arity = sig.predicates[name]
        tuples = [t for t in product(range(size), repeat=arity) if rng.random() < 0.5]
        out[name] = frozenset(tuples)
    return out


def _constant_domain_model(sig: Signature, bounds: GenBounds, rng: random.Random) -> Model:
    n = rng.randint(1, bounds.max_worlds)
    size = rng.randint(1, bounds.max_domain)
    edges = {
        (a, b)
        for a in range(n)
        for b in range(n)
        if rng.random() < 0.35
    }
    rel = _transitive_closure(n, edges)
    ident = tuple(range(size))
    frame = RawFrame(n, rel, (size,) * n, tuple(tuple(ident for _ in range(n)) for _ in range(n)))

    # constants must agree along the relation; color relation components
    color = list(range(n))

    def find(a: int) -> int:
        while color[a] != a:
            color[a] = color[color[a]]
            a = color[a]
        return a

    for a, b in sorted(rel):
        ra, rb = find(a), find(b)
        if ra != rb:
            color[rb] = ra
    values: dict[int, dict[str, int]] = {}
    const_interp = []
    for w in range(n):
        root = find(w)
        if root not in values:
            values[root] = {c: rng.randrange(size) for c in sorted(sig.constants)}
        const_interp.append(dict(values[root]))
    pred_interp = tuple(_random_preds(rng, sig, size) for _ in range(n))
    return validate_model(RawModel(sig, frame, tuple(const_interp), pred_interp))


def _tree_model(sig: Signature, bounds: GenBounds, rng: random.Random) -> Model:
    n = rng.randint(1, bounds.max_worlds)
    parent: list[int | None] = [None]
    for w in range(1, n):
        parent.append(rng.randrange(w) if rng.random() < 0.7 else None)
    domains = tuple(rng.randint(1, bounds.max_domain) for _ in range(n))

    ancestors: list[list[int]] = []
    for w in range(n):
        chain = []
        p = parent[w]
        while p is not None:
            chain.append(p)
            p = parent[p]
        ancestors.append(chain)
    rel = frozenset((a, w) for w in range(n) for a in ancestors[w])

    # eta on tree edges is random; along longer ancestor paths it is the
    # composition, elsewhere the constant map onto element 0
    eta = [[None] * n for _ in range(n)]
    for w in range(n):
        eta[w][w] = tuple(range(domains[w]))
    for w in range(1, n):
        p = parent[w]
        if p is None:
            continue
        edge = tuple(rng.randrange(domains[w]) for _ in range(domains[p]))
        eta[p][w] = edge
        for a in ancestors[w]:
            if a != p:
                eta[a][w] = tuple(edge[v] for v in eta[a][p])
    for a in range(n):
        for b in range(n):
            if eta[a][b] is None:
                eta[a][b] = (0,) * domains[a]
    frame = RawFrame(n, rel, domains, tuple(tuple(block) for block in eta))

    const_interp: list[dict[str, int]] = [dict() for _ in range(n)]
    for w in range(n):
        if parent[w] is None:
            const_interp[w] = {c: rng.randrange(domains[w]) for c in sorted(sig.constants)}
    for w in range(1, n):
        p = parent[w]
        if p is not None:
            const_interp[w] = {
                c: frame.eta[p][w][const_interp[p][c]] for c in const_interp[p]
            }
    pred_interp = tuple(_random_preds(rng, sig, domains[w]) for w in range(n))
    return validate_model(RawModel(sig, frame, tuple(const_interp), pred_interp))


def generate_models(
    sig: Signature, bounds: GenBounds = GenBounds(), seed: int = 0
) -> Iterator[Model]:
    """Endless stream of adequate models, alternating the two families."""
    import random

    rng = random.Random(seed)
    while True:
        yield _constant_domain_model(sig, bounds, rng)
        yield _tree_model(sig, bounds, rng)


def random_formula(
    rng: random.Random, sig: Signature, variables: Sequence[int], depth: int
) -> Formula:
    """Random formula of the given connective depth over a variable pool."""
    if depth <= 0 or rng.random() < 0.2:
        return _random_atom(rng, sig, variables)
    r = rng.random()
    if r < 0.35:
        return And(
            random_formula(rng, sig, variables, depth - 1),
            random_formula(rng, sig, variables, depth - 1),
        )
    if r < 0.6:
        return Diam(random_formula(rng, sig, variables, depth - 1))
    return All(rng.choice(list(variables)), random_formula(rng, sig, variables, depth - 1))


def _random_atom(rng: random.Random, sig: Signature, variables: Sequence[int]) -> Formula:
    names = sorted(sig.predicates)
    if not names or rng.random() < 0.15:
        return TOP
    name = rng.choice(names)
    consts = sorted(sig.constants)
    args: list[Term] = []
    for _ in range(sig.predicates[name]):
        if consts and rng.random() < 0.3:
            args.append(Const(rng.choice(consts)))
        else:
            args.append(Var(rng.choice(list(variables))))
    return Pred(name, tuple(args))
