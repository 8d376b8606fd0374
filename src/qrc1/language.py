"""Deep embedding of the strictly positive quantified modal language.

Formulas are built from the verum constant, predicate atoms, conjunction,
diamond, and the universal quantifier; there is no negation, implication,
or box.  Variables are plain natural numbers (the concrete syntax in
`qrc1.syntax` maps identifiers to them).  Everything here is an immutable
value comparing structurally: ``All(0, P(0))`` and ``All(1, P(1))`` are
different formulas, and no alpha-equivalence is provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True)
class Var:
    """Variable term, identified by a natural number."""

    id: int


@dataclass(frozen=True)
class Const:
    """Constant term; the name must be declared in the ambient signature."""

    name: str


Term = Var | Const


@dataclass(frozen=True)
class Signature:
    """Declared constant names and predicate names with their arities.

    The constant and predicate name sets must be disjoint.  One signature
    is fixed per parsing/checking session; mixing signatures is an error.
    """

    constants: frozenset[str]
    predicates: Mapping[str, int]

    def __post_init__(self) -> None:
        clash = self.constants & set(self.predicates)
        if clash:
            raise ValueError(
                f"names declared as both constant and predicate: {sorted(clash)}"
            )
        for name, arity in self.predicates.items():
            if arity < 0:
                raise ValueError(f"predicate {name!r} has negative arity")


def signature(
    constants: Iterable[str] = (),
    predicates: Mapping[str, int] | Iterable[tuple[str, int]] = (),
) -> Signature:
    """Convenience constructor accepting any iterables."""
    return Signature(frozenset(constants), dict(predicates))


@dataclass(frozen=True)
class Top:
    """The verum constant."""


@dataclass(frozen=True)
class Pred:
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class And:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Diam:
    body: Formula


@dataclass(frozen=True)
class All:
    var: int
    body: Formula


Formula = Top | Pred | And | Diam | All

TOP = Top()


@dataclass(frozen=True)
class Sequent:
    """The judgment ``ante ~> cons``: the consequent follows from the antecedent."""

    ante: Formula
    cons: Formula


def fv_term(t: Term) -> frozenset[int]:
    """``{x}`` for a variable, empty for a constant."""
    return frozenset((t.id,)) if isinstance(t, Var) else frozenset()


def fv(phi: Formula) -> frozenset[int]:
    """Free variables of a formula; a quantifier removes its own variable.

    Stored on the formula the first time, as an attribute set the way a
    frozen dataclass sets its own fields, so the answer lives exactly as
    long as the formula and a repeated call hashes nothing.
    """
    out = getattr(phi, "_fv", None)
    if out is not None:
        return out
    if isinstance(phi, Pred):
        out = frozenset(a.id for a in phi.args if isinstance(a, Var))
    elif isinstance(phi, And):
        out = fv(phi.left) | fv(phi.right)
    elif isinstance(phi, Diam):
        out = fv(phi.body)
    elif isinstance(phi, All):
        out = fv(phi.body) - {phi.var}
    else:
        out = frozenset()
    object.__setattr__(phi, "_fv", out)
    return out


def occurs_const(c: str, phi: Formula) -> bool:
    """True iff the constant name appears anywhere in the formula."""
    if isinstance(phi, Pred):
        return any(isinstance(a, Const) and a.name == c for a in phi.args)
    if isinstance(phi, And):
        return occurs_const(c, phi.left) or occurs_const(c, phi.right)
    if isinstance(phi, (Diam, All)):
        return occurs_const(c, phi.body)
    return False


def sub_term(t: Term, x: int, r: Term) -> Term:
    return r if isinstance(t, Var) and t.id == x else t


def sub(phi: Formula, x: int, t: Term) -> Formula:
    """Unguarded substitution of ``t`` for every free occurrence of ``x``.

    Binders for ``x`` shield their scope.  No capture avoidance and no
    renaming is performed; callers that care must check `freefor` first.
    """
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(sub_term(a, x, t) for a in phi.args))
    if isinstance(phi, And):
        return And(sub(phi.left, x, t), sub(phi.right, x, t))
    if isinstance(phi, Diam):
        return Diam(sub(phi.body, x, t))
    if isinstance(phi, All):
        if phi.var == x:
            return phi
        return All(phi.var, sub(phi.body, x, t))
    return phi


def freefor(phi: Formula, x: int, t: Term) -> bool:
    """True iff substituting ``t`` for ``x`` in ``phi`` captures nothing.

    That is, no free occurrence of ``x`` lies below a binder for one of
    the variables of ``t``.  Trivially true when ``x`` is not free in
    ``phi`` or when ``t`` is a constant.
    """
    if x not in fv(phi):
        return True
    if isinstance(phi, And):
        return freefor(phi.left, x, t) and freefor(phi.right, x, t)
    if isinstance(phi, Diam):
        return freefor(phi.body, x, t)
    if isinstance(phi, All):
        if phi.var in fv_term(t):
            return False
        return freefor(phi.body, x, t)
    return True


def well_formed_term(t: Term, sig: Signature) -> bool:
    return not isinstance(t, Const) or t.name in sig.constants


def well_formed(phi: Formula, sig: Signature) -> bool:
    """Every predicate is declared with matching arity, every constant declared."""
    if isinstance(phi, Pred):
        return sig.predicates.get(phi.name) == len(phi.args) and all(
            well_formed_term(a, sig) for a in phi.args
        )
    if isinstance(phi, And):
        return well_formed(phi.left, sig) and well_formed(phi.right, sig)
    if isinstance(phi, (Diam, All)):
        return well_formed(phi.body, sig)
    return True


def well_formed_sequent(seq: Sequent, sig: Signature) -> bool:
    return well_formed(seq.ante, sig) and well_formed(seq.cons, sig)


def subformulas(phi: Formula) -> Iterator[Formula]:
    """All subformulas in preorder, including the formula itself."""
    yield phi
    if isinstance(phi, And):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)
    elif isinstance(phi, (Diam, All)):
        yield from subformulas(phi.body)


def terms_of(phi: Formula) -> Iterator[Term]:
    """All terms occurring in predicate arguments, in preorder."""
    for part in subformulas(phi):
        if isinstance(part, Pred):
            yield from part.args


def all_vars(phi: Formula) -> frozenset[int]:
    """Every variable occurring in the formula, free or bound."""
    out: set[int] = set()
    for part in subformulas(phi):
        if isinstance(part, Pred):
            out.update(a.id for a in part.args if isinstance(a, Var))
        elif isinstance(part, All):
            out.add(part.var)
    return frozenset(out)


def consts_of(phi: Formula) -> frozenset[str]:
    """Every constant name occurring in the formula."""
    return frozenset(
        a.name for a in terms_of(phi) if isinstance(a, Const)
    )


def generalize(phi: Formula, t: Term, x: int) -> Formula:
    """Replace free occurrences of the term ``t`` by the variable ``x``.

    Inverse of `sub` when ``x`` is fresh for ``phi``.  Callers must pick
    ``x`` so that no replaced occurrence ends up bound; the proof kernel
    re-checks any use, so a bad choice is caught rather than silent.
    """
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(Var(x) if a == t else a for a in phi.args))
    if isinstance(phi, And):
        return And(generalize(phi.left, t, x), generalize(phi.right, t, x))
    if isinstance(phi, Diam):
        return Diam(generalize(phi.body, t, x))
    if isinstance(phi, All):
        if isinstance(t, Var) and phi.var == t.id:
            return phi
        return All(phi.var, generalize(phi.body, t, x))
    return phi
