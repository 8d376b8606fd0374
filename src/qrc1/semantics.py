"""Finite Kripke models with varying domains and compatibility functions.

A raw frame is a finite set of worlds, an accessibility relation, one
finite domain per world, and a total compatibility function between the
domains of every ordered pair of worlds (not only related ones).  A raw
model adds per-world interpretations of the signature's constants and
predicates.  Adequacy, checked by `check_adequacy`, asks for a transitive
relation, compatibility functions that compose along related chains and
are identities on a world, and constant interpretations carried along the
relation by the compatibility functions.

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
)
from .syntax import signature_from_json, signature_to_json

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
    ``succ[w]``, not a field, lists the worlds related to w in ascending order.
    """

    __slots__ = ("succ",)

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


class Model(_Value):
    """A raw model that passed `check_adequacy`; build it with
    `validate_model`."""

    raw: RawModel

    @property
    def sig(self) -> Signature:
        return self.raw.sig

    @property
    def frame(self) -> RawFrame:
        return self.raw.frame

    @property
    def const_interp(self) -> tuple[Mapping[str, int], ...]:
        return self.raw.const_interp

    @property
    def pred_interp(self) -> tuple[Mapping[str, frozenset[tuple[int, ...]]], ...]:
        return self.raw.pred_interp


def _raw(m: Model | RawModel) -> RawModel:
    return m.raw if isinstance(m, Model) else m


def check_adequacy(m: Model | RawModel) -> AdequacyReport:
    """Exhaustively check the four adequacy conditions.

    Triples of worlds for transitivity and eta composition, every world
    for eta identities, and every related pair times every constant for
    concordance.  The first failure of each kind is witnessed, searching
    edges in sorted order, successors, elements and constants ascending.
    """
    raw = _raw(m)
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
    """Check a raw model's adequacy and return it as a `Model`; raises
    `InadequateModelError` with the failing report if it is not adequate."""
    report = check_adequacy(raw)
    if not report.ok:
        raise InadequateModelError(report)
    return Model(raw)


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
    m: Model | RawModel,
    w: int,
    default: int,
    overrides: Mapping[int, int] | None = None,
) -> Assignment:
    """Validated constructor; the domain of ``w`` must be nonempty."""
    raw = _raw(m)
    if not 0 <= w < raw.frame.worlds:
        raise ValueError(f"no world {w}")
    size = raw.frame.domains[w]
    if size == 0:
        raise ValueError(f"world {w} has an empty domain, no assignment exists")
    if not 0 <= default < size:
        raise ValueError("default element outside the domain")
    overrides = dict(overrides or {})
    for x, d in overrides.items():
        if x < 0 or not 0 <= d < size:
            raise ValueError(f"override {x}={d} outside the domain")
    return Assignment(w, default, overrides)


def assign_term(m: Model | RawModel, g: Assignment, t: Term) -> int:
    """Value of a term: the assignment on variables, the world's constant
    interpretation on constants."""
    if isinstance(t, Var):
        return g(t.id)
    raw = _raw(m)
    try:
        return raw.const_interp[g.world][t.name]
    except KeyError:
        raise ValueError(f"undeclared constant {t.name!r}") from None


def eta_compose(m: Model | RawModel, w: int, u: int, g: Assignment) -> Assignment:
    """Push a w-assignment to u through eta[w][u], pointwise."""
    row = _raw(m).frame.eta[w][u]
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


def sat(m: Model | RawModel, w: int, g: Assignment, phi: Formula) -> bool:
    """Truth of a formula at a world under an assignment.

    Verum is true; a predicate atom holds when the tuple of term values
    is in the world's interpretation; conjunction is truth of both parts;
    a diamond asks for a related world where the body holds under the
    eta-composed assignment; the universal quantifier enumerates the
    world's (finite) domain.  Adequacy is not required.
    """
    return _sat(_raw(m), w, g, phi)


def _sat(raw: RawModel, w: int, g: Assignment, phi: Formula) -> bool:
    return _holds(raw, w, g.default, g.overrides, phi)


_NO_TUPLES: frozenset[tuple[int, ...]] = frozenset()


def _holds(
    raw: RawModel, w: int, default: int, env: Mapping[int, int], phi: Formula
) -> bool:
    """`sat` with the assignment unpacked into its default and overrides,
    so that no `Assignment` is built per diamond step or quantifier value.
    A diamond pushes both through ``eta[w][u]`` exactly as `eta_compose`
    does; a quantifier extends the overrides as `with_value` does."""
    kind = type(phi)
    if kind is Pred:
        ci = raw.const_interp[w]
        tup = tuple([
            env.get(a.id, default) if type(a) is Var else ci[a.name] for a in phi.args
        ])
        return tup in raw.pred_interp[w].get(phi.name, _NO_TUPLES)
    if kind is And:
        return _holds(raw, w, default, env, phi.left) and _holds(
            raw, w, default, env, phi.right
        )
    if kind is Diam:
        body = phi.body
        eta_w = raw.frame.eta[w]
        for u in raw.frame.succ[w]:
            row = eta_w[u]
            if _holds(raw, u, row[default], {x: row[v] for x, v in env.items()}, body):
                return True
        return False
    if kind is All:
        x, body = phi.var, phi.body
        for d in range(raw.frame.domains[w]):
            if not _holds(raw, w, default, {**env, x: d}, body):
                return False
        return True
    return True  # Top


# -- model surgery ---------------------------------------------------


def replace_interp(m: Model | RawModel, w: int, c: str, d: int) -> RawModel:
    """Reinterpret constant ``c`` as ``d`` at ``w`` and as ``eta[w][u](d)``
    at every other world ``u``; all else unchanged.

    The result is raw: it is generally not concordant unless ``w`` can
    reach every other world, which `restrict_to_cone` arranges.
    """
    raw = _raw(m)
    if c not in raw.sig.constants:
        raise ValueError(f"undeclared constant {c!r}")
    if not 0 <= d < raw.frame.domains[w]:
        raise ValueError("element outside the domain of the world")
    new_ci = tuple(
        {**raw.const_interp[u], c: raw.frame.eta[w][u][d]}
        for u in range(raw.frame.worlds)
    )
    return RawModel(raw.sig, raw.frame, new_ci, raw.pred_interp)


def cone_worlds(m: Model | RawModel, w: int) -> list[int]:
    """The world and its successors, in ascending index order."""
    return sorted({w, *_raw(m).frame.succ[w]})


def restrict_to_cone(m: Model | RawModel, w: int) -> RawModel:
    """Drop every world other than ``w`` and its successors, reindexing
    the survivors in ascending order."""
    raw = _raw(m)
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


def restrict_replace(m: Model | RawModel, w: int, c: str, d: int) -> Model:
    """Reinterpret ``c`` as ``d`` at ``w`` and restrict to ``w``'s cone.

    For an adequate input the result is adequate again; revalidation
    failing indicates an implementation bug.
    """
    if isinstance(m, RawModel):
        m = validate_model(m)
    out = restrict_to_cone(replace_interp(m, w, c, d), w)
    report = check_adequacy(out)
    if not report.ok:
        raise InternalError(
            f"restriction after constant replacement lost adequacy: {report.summary()}"
        )
    return Model(out)


# -- model file format -----------------------------------------------


def dump_model(m: Model | RawModel) -> dict[str, Any]:
    """Serialize to the JSON model-file structure."""
    raw = _raw(m)
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


def dumps_model(m: Model | RawModel) -> str:
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
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise ModelFormatError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ModelFormatError("model file must be a JSON object")
    sig = signature_from_json(data.get("signature"), ModelFormatError)
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
