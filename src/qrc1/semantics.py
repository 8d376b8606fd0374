"""Finite Kripke models with varying domains and compatibility functions.

A raw frame is a finite set of worlds, an accessibility relation, one
finite domain per world, and a total compatibility function between the
domains of every ordered pair of worlds (not only related ones).  A raw
model adds per-world interpretations of the signature's constants and
predicates.  Adequacy, checked by `check_adequacy`, asks for a transitive
relation, compatibility functions that compose along related chains and
are identities on a world, and constant interpretations carried along the
relation by the compatibility functions.  `validate_model` returns a raw
model that passes as a `Model`, a subtype with no fields of its own whose
type says it is adequate, so every function here takes either.

Worlds and domain elements are small integer indices throughout and the
eta tables are dense, so everything can be enumerated exhaustively.
Satisfaction (`sat`) is defined on raw models; adequacy is only assumed
by the lemmas proved about it, never by the evaluator itself.

Assignments are total maps from variables to a world's domain,
represented as a default element plus finitely many overrides.
"""

from __future__ import annotations

import json

from .language import (
    All,
    And,
    Diam,
    Formula,
    Pred,
    Signature,
    Term,
    Var,
    _Value,
    fresh,
    fv,
)
from .syntax import document_from_json, signature_to_json

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Iterable, Mapping


class InternalError(Exception):
    """An internal invariant was violated; signals a bug, never expected."""


class InadequateModelError(ValueError):
    """A model failed adequacy validation; carries the failing report."""

    def __init__(self, report: AdequacyReport):
        self.report = report
        super().__init__(f"model is not adequate: {report.summary()}")


class ModelFormatError(ValueError):
    """Malformed model file contents."""


class RawFrame(_Value):
    """Worlds 0..worlds-1, relation, domain sizes, and eta tables.

    ``domains[w]`` is the size of world w's domain, whose elements are
    0..size-1.  ``eta[w][u]`` maps each element of w's domain to an
    element of u's domain, and is present for every ordered pair.
    ``succ[w]``, not a field, lists the worlds related to w in ascending
    order, and ``steps[w]`` pairs each such u with ``eta[w][u]``, or with
    None where that row is the identity, so `sat` passes an assignment
    through it unchanged.
    """

    __slots__ = ("succ", "steps")

    worlds: int
    rel: frozenset[tuple[int, int]]
    domains: tuple[int, ...]
    eta: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if self.worlds < 1:
            raise ValueError("a frame needs at least one world")
        if len(self.domains) != self.worlds or any(d < 0 for d in self.domains):
            raise ValueError("bad domain sizes")
        for w, u in self.rel:
            if not (0 <= w < self.worlds and 0 <= u < self.worlds):
                raise ValueError(f"relation edge {(w, u)} out of range")
        if len(self.eta) != self.worlds:
            raise ValueError("eta must have one row block per world")
        for w, block in enumerate(self.eta):
            if len(block) != self.worlds:
                raise ValueError("eta must cover every ordered pair of worlds")
            for u, row in enumerate(block):
                if len(row) != self.domains[w]:
                    raise ValueError(f"eta[{w}][{u}] has wrong source size")
                if any(not 0 <= v < self.domains[u] for v in row):
                    raise ValueError(f"eta[{w}][{u}] maps outside the target domain")
        rows: list[list[int]] = [[] for _ in range(self.worlds)]
        for w, u in sorted(self.rel):
            rows[w].append(u)
        object.__setattr__(self, "succ", tuple(tuple(row) for row in rows))
        idents = [tuple(range(d)) for d in self.domains]
        object.__setattr__(self, "steps", tuple(
            tuple([(u, None if block[u] == ident else block[u]) for u in row])
            for row, block, ident in zip(rows, self.eta, idents)
        ))


class RawModel(_Value):
    """A raw frame plus constant and predicate interpretations per world."""

    sig: Signature
    frame: RawFrame
    const_interp: tuple[Mapping[str, int], ...]
    pred_interp: tuple[Mapping[str, frozenset[tuple[int, ...]]], ...]

    def __post_init__(self) -> None:
        n = self.frame.worlds
        if len(self.const_interp) != n or len(self.pred_interp) != n:
            raise ValueError("interpretations must cover every world")


def _validate_interps(m: RawModel) -> None:
    """Deep well-formedness of interpretations against the signature."""
    for w in range(m.frame.worlds):
        size = m.frame.domains[w]
        ci = m.const_interp[w]
        for c in m.sig.constants:
            if c not in ci:
                raise ModelFormatError(f"world {w}: constant {c!r} uninterpreted")
            if not 0 <= ci[c] < size:
                raise ModelFormatError(f"world {w}: constant {c!r} outside the domain")
        for c in ci:
            if c not in m.sig.constants:
                raise ModelFormatError(f"world {w}: undeclared constant {c!r}")
        pi = m.pred_interp[w]
        for name in pi:
            if name not in m.sig.predicates:
                raise ModelFormatError(f"world {w}: undeclared predicate {name!r}")
        for name, arity in m.sig.predicates.items():
            for tup in pi.get(name, frozenset()):
                if len(tup) != arity:
                    raise ModelFormatError(
                        f"world {w}: tuple of wrong arity for predicate {name!r}"
                    )
                if any(not 0 <= v < size for v in tup):
                    raise ModelFormatError(
                        f"world {w}: tuple outside the domain for predicate {name!r}"
                    )


class AdequacyReport(_Value):
    """Outcome of the four adequacy checks: each passes when its witness
    is None, and otherwise the witness is the first failure found.

    Witnesses: ``(w, u, v)`` for a missing transitive edge, ``(w, u, v, d)``
    for an eta composition mismatch, ``(w, d)`` for a non-identity
    ``eta[w][w]``, and ``(w, u, c)`` for a constant broken along an edge.
    """

    transitive_witness: tuple[int, int, int] | None = None
    eta_functorial_witness: tuple[int, int, int, int] | None = None
    eta_identity_witness: tuple[int, int] | None = None
    concordant_witness: tuple[int, int, str] | None = None

    @property
    def ok(self) -> bool:
        return all(witness is None for _, _, witness in self.checks)

    @property
    def checks(self) -> tuple[tuple[str, bool, tuple | None], ...]:
        """``(label, ok, witness)`` per check, in report order, under the
        labels `summary` and ``qrc1 adequate`` print."""
        return tuple(
            (label, witness is None, witness)
            for label, witness in (
                ("transitiveR", self.transitive_witness),
                ("etaFunctorial", self.eta_functorial_witness),
                ("etaIdentity", self.eta_identity_witness),
                ("concordant", self.concordant_witness),
            )
        )

    def summary(self) -> str:
        return " ".join(
            f"{label}={'ok' if good else f'FAIL{witness}'}"
            for label, good, witness in self.checks
        )


class Model(RawModel):
    """A raw model that passed `check_adequacy`, so its type says it is
    adequate; build it with `validate_model`.  It has no fields of its own,
    and whatever takes a `RawModel` takes it as it is."""

    @property
    def raw(self) -> RawModel:
        """The same four fields as a plain `RawModel`."""
        return RawModel(self.sig, self.frame, self.const_interp, self.pred_interp)


def check_adequacy(raw: RawModel) -> AdequacyReport:
    """Exhaustively check the four adequacy conditions.

    Triples of worlds for transitivity and eta composition, every world
    for eta identities, and every related pair times every constant for
    concordance.  The first failure of each kind is witnessed, searching
    edges in sorted order, successors, elements and constants ascending.
    """
    frame = raw.frame
    rel, succ, eta = frame.rel, frame.succ, frame.eta
    edges = sorted(rel)
    ci = raw.const_interp
    return AdequacyReport(
        next(((w, u, v) for w, u in edges for v in succ[u] if (w, v) not in rel), None),
        next((
            (w, u, v, d)
            for w, u in edges for v in succ[u] for d in range(frame.domains[w])
            if eta[w][v][d] != eta[u][v][eta[w][u][d]]
        ), None),
        next((
            (w, d)
            for w in range(frame.worlds) for d in range(frame.domains[w])
            if eta[w][w][d] != d
        ), None),
        next((
            (w, u, c)
            for w, u in edges for c in sorted(raw.sig.constants)
            if ci[u][c] != eta[w][u][ci[w][c]]
        ), None),
    )


def validate_model(raw: RawModel) -> Model:
    """Check a raw model's interpretations, then its adequacy, and return it
    as a `Model`; raises `ModelFormatError` naming an ill-formed
    interpretation, or `InadequateModelError` with the failing report."""
    _validate_interps(raw)
    report = check_adequacy(raw)
    if not report.ok:
        raise InadequateModelError(report)
    return Model(raw.sig, raw.frame, raw.const_interp, raw.pred_interp)


# -- assignments -----------------------------------------------------


class Assignment(_Value):
    """Total valuation of variables at a world: default plus overrides."""

    world: int
    default: int
    overrides: Mapping[int, int] = fresh(dict)

    def __call__(self, x: int) -> int:
        return self.overrides.get(x, self.default)

    def with_value(self, x: int, d: int) -> Assignment:
        return Assignment(self.world, self.default, {**self.overrides, x: d})


def assignment(
    m: RawModel,
    w: int,
    default: int,
    overrides: Mapping[int, int] | None = None,
) -> Assignment:
    """Validated constructor; the domain of ``w`` must be nonempty."""
    frame = m.frame
    if not 0 <= w < frame.worlds:
        raise ValueError(f"no world {w}")
    size = frame.domains[w]
    if not 0 <= default < size:
        if size == 0:
            raise ValueError(f"world {w} has an empty domain, no assignment exists")
        raise ValueError("default element outside the domain")
    env = {}
    for x, d in (overrides or {}).items():
        if x < 0 or not 0 <= d < size:
            raise ValueError(f"override {x}={d} outside the domain")
        env[x] = d
    return Assignment(w, default, env)


def assign_term(m: RawModel, g: Assignment, t: Term) -> int:
    """Value of a term: the assignment on variables, the world's constant
    interpretation on constants."""
    if isinstance(t, Var):
        return g(t.id)
    try:
        return m.const_interp[g.world][t.name]
    except KeyError:
        raise ValueError(f"undeclared constant {t.name!r}") from None


def eta_compose(m: RawModel, w: int, u: int, g: Assignment) -> Assignment:
    """Push a w-assignment to u through eta[w][u], pointwise."""
    row = m.frame.eta[w][u]
    return Assignment(u, row[g.default], {x: row[v] for x, v in g.overrides.items()})


def xeq(g: Assignment, h: Assignment, gamma: Iterable[int]) -> bool:
    """Agreement on every variable in gamma."""
    return all(g(x) == h(x) for x in gamma)


def xaltern_support(
    g: Assignment, h: Assignment, gamma: frozenset[int] | set[int]
) -> bool:
    """Extensional agreement outside gamma, over all (infinitely many)
    variables, decided through the finite representation: the defaults
    must match and every override key outside gamma must agree."""
    if g.default != h.default:
        return False
    keys = set(g.overrides) | set(h.overrides)
    return all(g(x) == h(x) for x in keys if x not in gamma)


# -- satisfaction ----------------------------------------------------


def sat(m: RawModel, w: int, g: Assignment, phi: Formula) -> bool:
    """Truth of a formula at a world under an assignment.

    Verum is true; a predicate atom holds when the tuple of term values
    is in the world's interpretation; conjunction is truth of both parts;
    a diamond asks for a related world where the body holds under the
    eta-composed assignment; the universal quantifier enumerates the
    world's (finite) domain.  Adequacy is not required.  The caller's
    assignment is left as it was, also when `sat` raises.  A constant the
    model does not interpret raises `ValueError`, as in `assign_term`.
    """
    env = dict(g.overrides)
    try:
        return _holds(m, w, g.default, env, phi)
    except KeyError as e:  # a constant's, the one lookup in `_holds` that can miss
        raise ValueError(f"undeclared constant {e.args[0]!r}") from None


_NO_TUPLES: frozenset[tuple[int, ...]] = frozenset()


def _holds(raw: RawModel, w: int, default: int, env: dict[int, int], phi: Formula) -> bool:
    """`sat` with the assignment unpacked into its default and overrides,
    so that no `Assignment` is built per diamond step or quantifier value.

    A diamond pushes both through ``eta[w][u]`` exactly as `eta_compose`
    does, into a new dict, or passes them on as they are where that row
    is the identity (`RawFrame.steps`).  A quantifier binds its variable
    in ``env`` itself, one element at a time, and restores the old
    binding, or its absence, before it returns, so ``env`` must be
    private to one `sat` call.  By the coincidence lemma truth reads only
    the free variables, so a quantifier whose variable is not free in its
    body evaluates the body once: every world reached from a world with
    a nonempty domain has a nonempty domain too (each eta row maps into
    it), and an empty domain makes the quantifier true."""
    kind = type(phi)
    if kind is Pred:
        tup = ()
        for a in phi.args:
            tup += (env.get(a.id, default) if type(a) is Var else raw.const_interp[w][a.name],)
        return tup in raw.pred_interp[w].get(phi.name, _NO_TUPLES)
    if kind is And:
        return _holds(raw, w, default, env, phi.left) and _holds(
            raw, w, default, env, phi.right
        )
    if kind is Diam:
        body = phi.body
        for u, row in raw.frame.steps[w]:
            if row is None:
                if _holds(raw, u, default, env, body):
                    return True
            elif _holds(raw, u, row[default], {x: row[v] for x, v in env.items()}, body):
                return True
        return False
    if kind is All:
        x, body = phi.var, phi.body
        size = raw.frame.domains[w]
        if x not in fv(body):
            return not size or _holds(raw, w, default, env, body)
        old = env.get(x)
        try:
            for d in range(size):
                env[x] = d
                if not _holds(raw, w, default, env, body):
                    return False
            return True
        finally:
            if old is None:
                env.pop(x, None)
            else:
                env[x] = old
    return True  # Top


# -- model surgery ---------------------------------------------------


def replace_interp(raw: RawModel, w: int, c: str, d: int) -> RawModel:
    """Reinterpret constant ``c`` as ``d`` at ``w`` and as ``eta[w][u](d)``
    at every other world ``u``; all else unchanged.

    The result is raw: it is generally not concordant unless ``w`` can
    reach every other world, which `restrict_to_cone` arranges.
    """
    if c not in raw.sig.constants:
        raise ValueError(f"undeclared constant {c!r}")
    if not 0 <= d < raw.frame.domains[w]:
        raise ValueError("element outside the domain of the world")
    new_ci = tuple(
        {**raw.const_interp[u], c: raw.frame.eta[w][u][d]}
        for u in range(raw.frame.worlds)
    )
    return RawModel(raw.sig, raw.frame, new_ci, raw.pred_interp)


def cone_worlds(m: RawModel, w: int) -> list[int]:
    """The world and its successors, in ascending index order."""
    return sorted({w, *m.frame.succ[w]})


def restrict_to_cone(raw: RawModel, w: int) -> RawModel:
    """Drop every world other than ``w`` and its successors, reindexing
    the survivors in ascending order."""
    keep = cone_worlds(raw, w)
    index = {old: new for new, old in enumerate(keep)}
    frame = RawFrame(
        worlds=len(keep),
        rel=frozenset(
            (index[a], index[b]) for (a, b) in raw.frame.rel if a in index and b in index
        ),
        domains=tuple(raw.frame.domains[o] for o in keep),
        eta=tuple(
            tuple(raw.frame.eta[a][b] for b in keep) for a in keep
        ),
    )
    return RawModel(
        raw.sig,
        frame,
        tuple(raw.const_interp[o] for o in keep),
        tuple(raw.pred_interp[o] for o in keep),
    )


def restrict_replace(m: RawModel, w: int, c: str, d: int) -> Model:
    """Reinterpret ``c`` as ``d`` at ``w`` and restrict to ``w``'s cone.

    A raw input that is not a `Model` is validated first.  For an adequate
    input the result is adequate again; revalidation failing indicates an
    implementation bug.
    """
    if not isinstance(m, Model):
        m = validate_model(m)
    try:
        return validate_model(restrict_to_cone(replace_interp(m, w, c, d), w))
    except InadequateModelError as e:
        raise InternalError(
            f"restriction after constant replacement lost adequacy: {e.report.summary()}"
        ) from None


# -- model file format -----------------------------------------------


def dump_model(raw: RawModel) -> dict[str, Any]:
    """Serialize to the JSON model-file structure."""
    return {
        "signature": signature_to_json(raw.sig),
        "worlds": raw.frame.worlds,
        "rel": [list(p) for p in sorted(raw.frame.rel)],
        "domains": list(raw.frame.domains),
        "eta": [
            [list(row) for row in block] for block in raw.frame.eta
        ],
        "constInterp": [
            {c: ci[c] for c in sorted(ci)} for ci in raw.const_interp
        ],
        "predInterp": [
            {name: sorted(list(t) for t in pi.get(name, frozenset()))
             for name in sorted(raw.sig.predicates)}
            for pi in raw.pred_interp
        ],
    }


def dumps_model(m: RawModel) -> str:
    return json.dumps(dump_model(m), indent=2)


def _ints(value: Any, depth: int, what: str) -> Any:
    """A JSON integer under `depth` levels of lists, as nested tuples;
    `what` names the field in the error for anything else."""
    if depth == 0:
        if type(value) is not int:
            raise ModelFormatError(f"missing or malformed {what!r}: {value!r} is not an integer")
        return value
    if not isinstance(value, list):
        raise ModelFormatError(f"missing or malformed {what!r}: expected a list")
    return tuple([_ints(v, depth - 1, what) for v in value])


def _objects(value: Any, what: str) -> list[dict[str, Any]]:
    """A JSON list of objects, one per world."""
    if not isinstance(value, list) or not all(isinstance(o, dict) for o in value):
        raise ModelFormatError(f"missing or malformed {what!r}: expected a list of objects")
    return value


def load_model(data: str | dict[str, Any]) -> RawModel:
    """Parse the JSON model-file structure; the inverse of `dump_model`.
    Counts, elements and tuples are JSON integers, never other numbers."""
    data, sig = document_from_json(data, "model", ModelFormatError)
    worlds = _ints(data.get("worlds"), 0, "worlds")
    rel = _ints(data.get("rel"), 2, "rel")
    if any(len(edge) != 2 for edge in rel):
        raise ModelFormatError("malformed 'rel': every edge is a pair of worlds")
    domains = _ints(data.get("domains"), 1, "domains")
    eta = _ints(data.get("eta"), 3, "eta")
    const_interp = tuple(
        {c: _ints(v, 0, "constInterp") for c, v in ci.items()}
        for ci in _objects(data.get("constInterp"), "constInterp")
    )
    pred_interp = tuple(
        {name: frozenset(_ints(tuples, 2, "predInterp")) for name, tuples in pi.items()}
        for pi in _objects(data.get("predInterp"), "predInterp")
    )
    try:
        raw = RawModel(sig, RawFrame(worlds, frozenset(rel), domains, eta), const_interp,
                       pred_interp)
    except ValueError as e:
        raise ModelFormatError(str(e)) from e
    _validate_interps(raw)
    return raw
