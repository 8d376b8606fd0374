"""Deep embedding of the strictly positive quantified modal language.

Formulas are built from the verum constant, predicate atoms, conjunction,
diamond, and the universal quantifier; there is no negation, implication,
or box.  Variables are plain natural numbers (the concrete syntax in
`qrc1.syntax` maps identifiers to them).  Everything here is an immutable
value comparing structurally: ``All(0, P(0))`` and ``All(1, P(1))`` are
different formulas, and no alpha-equivalence is provided.

A formula stores a few facts about itself the first time they are asked
for, in slots set past the refusing `__setattr__`: its hash, its free
variables (`fv`), all its variables (`all_vars`) and its constants
(`consts_of`).  So a repeated question costs one attribute read instead
of a walk over the whole formula, and each answer lives exactly as long
as its formula.  The stored hash is the hash of the tuple of the fields,
the one every value class computes (see `_ValueType`), so storing it
changes no equality, hash, `repr` or set order.  The stored sets are shared
wherever they can be: a node whose set adds nothing to a child's stores
the child's, and every empty set is one frozenset.  No tuple of
subformulas is stored: one per formula costs more memory than the walks
it saves (`subformulas` walks afresh each time).  The stored values hold
for the running process only, and pickling a formula drops them.

The value classes of the package are built by `_ValueType`, not by the
standard library's generator of such classes: importing that module loads
`inspect`, `ast` and `dis`, and it takes about a millisecond per class,
which together was about a third of the start-up time of a one-shot
``qrc1 decide``.
"""

from __future__ import annotations

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Callable, Iterable, Iterator, Mapping


class fresh:
    """A field default made anew for each instance by calling `make`."""

    def __init__(self, make: Callable[[], Any]) -> None:
        self.make = make


class _ValueType(type):
    """Builds a value class with slots.  The names annotated in the class
    body are its fields, in order, and a value given to one is its default.
    The class gets a slot per field, `__match_args__` naming the fields, an
    `__init__` that calls `__post_init__` when the class has one, `==` by
    exact type and the tuple of the fields, and the hash of that tuple,
    which a class with a `_hash` slot computes once and stores there.  The
    three are compiled from straight-line source per class, since a loop
    over the fields makes `==` more than twice as slow."""

    def __new__(mcs, name: str, bases: tuple, ns: dict) -> type:
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = fields + tuple(ns.get("__slots__", ()))
        ns["__match_args__"] = fields
        cls = super().__new__(mcs, name, bases, ns)
        scope = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
        scope.update({f"_d_{f}": d for f, d in defaults.items()})
        params = ", ".join(f"{f}=_d_{f}" if f in defaults else f for f in fields)
        sets = "".join(
            f" _set_{f}(self, _d_{f}.make() if {f} is _d_{f} else {f})\n"
            if isinstance(defaults.get(f), fresh) else f" _set_{f}(self, {f})\n"
            for f in fields
        )
        post = " self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        # as tuples compare: identity first, then ==
        same = " and ".join(f"(self.{f} is other.{f} or self.{f} == other.{f})" for f in fields)
        key = "(" + "".join(f"self.{f}," for f in fields) + ")"
        if hasattr(cls, "_hash"):
            scope["_set_hash"] = cls._hash.__set__
            hash_body = (" try:\n  return self._hash\n except AttributeError:\n"
                         f"  h = hash({key})\n  _set_hash(self, h)\n  return h\n")
        else:
            hash_body = f" return hash({key})\n"
        exec(
            f"def __init__(self, {params}):\n{sets}{post} pass\n"
            "def __eq__(self, other):\n"
            f" if other.__class__ is self.__class__:\n  return {same or True}\n"
            " return NotImplemented\n"
            f"def __hash__(self):\n{hash_body}",
            scope,
        )
        cls.__init__, cls.__eq__, cls.__hash__ = (
            scope["__init__"], scope["__eq__"], scope["__hash__"])
        return cls


class _Value(metaclass=_ValueType):
    """Base of the value classes (see `_ValueType`): immutable, with the
    `repr` ``Name(field=value, ...)``."""

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__match_args__))

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, f) for f in self.__match_args__])


class Var(_Value):
    """Variable term, identified by a natural number."""

    id: int


class Const(_Value):
    """Constant term; the name must be declared in the ambient signature."""

    name: str


Term = Var | Const


class Signature(_Value):
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


class _Formula(_Value):
    """Base of the formula classes: slots for the stored facts (see the
    module docstring), and weak references."""

    __slots__ = ("_hash", "_fv", "_vars", "_consts", "__weakref__")


class Top(_Formula):
    """The verum constant."""


class Pred(_Formula):
    name: str
    args: tuple[Term, ...]


class And(_Formula):
    left: Formula
    right: Formula


class Diam(_Formula):
    body: Formula


class All(_Formula):
    var: int
    body: Formula


Formula = Top | Pred | And | Diam | All

TOP = Top()


class Sequent(_Value):
    """The judgment ``ante ~> cons``: the consequent follows from the antecedent."""

    ante: Formula
    cons: Formula


def fv_term(t: Term) -> frozenset[int]:
    """``{x}`` for a variable, empty for a constant."""
    return frozenset((t.id,)) if isinstance(t, Var) else frozenset()


_EMPTY: frozenset = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, or ``a`` or ``b`` itself when the other adds nothing."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def fv(phi: Formula) -> frozenset[int]:
    """Free variables of a formula; a quantifier removes its own variable.
    Stored on the formula (see the module docstring)."""
    out = getattr(phi, "_fv", None)
    if out is not None:
        return out
    if isinstance(phi, Pred):
        out = all_vars(phi)
    elif isinstance(phi, And):
        out = _union(fv(phi.left), fv(phi.right))
    elif isinstance(phi, Diam):
        out = fv(phi.body)
    elif isinstance(phi, All):
        out = fv(phi.body)
        if phi.var in out:
            out = out - {phi.var} or _EMPTY
    else:
        out = _EMPTY
    object.__setattr__(phi, "_fv", out)
    return out


def all_vars(phi: Formula) -> frozenset[int]:
    """Every variable occurring in the formula, free or bound.  Stored on
    the formula."""
    out = getattr(phi, "_vars", None)
    if out is not None:
        return out
    if isinstance(phi, Pred):
        out = frozenset(a.id for a in phi.args if isinstance(a, Var)) or _EMPTY
    elif isinstance(phi, And):
        out = _union(all_vars(phi.left), all_vars(phi.right))
    elif isinstance(phi, Diam):
        out = all_vars(phi.body)
    elif isinstance(phi, All):
        out = all_vars(phi.body)
        if phi.var not in out:
            out = out | {phi.var}
    else:
        out = _EMPTY
    object.__setattr__(phi, "_vars", out)
    return out


def consts_of(phi: Formula) -> frozenset[str]:
    """Every constant name occurring in the formula.  Stored on the
    formula."""
    out = getattr(phi, "_consts", None)
    if out is not None:
        return out
    if isinstance(phi, Pred):
        out = frozenset(a.name for a in phi.args if isinstance(a, Const)) or _EMPTY
    elif isinstance(phi, And):
        out = _union(consts_of(phi.left), consts_of(phi.right))
    elif isinstance(phi, (Diam, All)):
        out = consts_of(phi.body)
    else:
        out = _EMPTY
    object.__setattr__(phi, "_consts", out)
    return out


def occurs_const(c: str, phi: Formula) -> bool:
    """True iff the constant name appears anywhere in the formula."""
    return c in consts_of(phi)


def sub_term(t: Term, x: int, r: Term) -> Term:
    return r if isinstance(t, Var) and t.id == x else t


def sub(phi: Formula, x: int, t: Term) -> Formula:
    """Unguarded substitution of ``t`` for every free occurrence of ``x``.

    Binders for ``x`` shield their scope.  No capture avoidance and no
    renaming is performed; callers that care must check `freefor` first.
    A part where ``x`` is not free is returned itself, not rebuilt.
    """
    if x not in fv(phi):
        return phi
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(sub_term(a, x, t) for a in phi.args))
    if isinstance(phi, And):
        return And(sub(phi.left, x, t), sub(phi.right, x, t))
    if isinstance(phi, Diam):
        return Diam(sub(phi.body, x, t))
    assert isinstance(phi, All)  # x is not free in Top, nor in an All binding x
    return All(phi.var, sub(phi.body, x, t))


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


def subformulas(phi: Formula) -> Iterator[Formula]:
    """All subformulas in preorder, including the formula itself."""
    todo = [phi]
    while todo:
        phi = todo.pop()
        yield phi
        if isinstance(phi, And):
            todo += (phi.right, phi.left)
        elif isinstance(phi, (Diam, All)):
            todo.append(phi.body)


def terms_of(phi: Formula) -> Iterator[Term]:
    """All terms occurring in predicate arguments, in preorder."""
    for part in subformulas(phi):
        if isinstance(part, Pred):
            yield from part.args


def generalize(phi: Formula, t: Term, x: int) -> Formula:
    """Replace free occurrences of the term ``t`` by the variable ``x``.

    Inverse of `sub` when ``x`` is fresh for ``phi``.  Callers must pick
    ``x`` so that no replaced occurrence ends up bound; the proof kernel
    re-checks any use, so a bad choice is caught rather than silent.
    A part where ``t`` does not occur free is returned itself.
    """
    occurs = t.id in fv(phi) if isinstance(t, Var) else t.name in consts_of(phi)
    if not occurs:
        return phi
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(Var(x) if a == t else a for a in phi.args))
    if isinstance(phi, And):
        return And(generalize(phi.left, t, x), generalize(phi.right, t, x))
    if isinstance(phi, Diam):
        return Diam(generalize(phi.body, t, x))
    assert isinstance(phi, All)  # likewise t
    return All(phi.var, generalize(phi.body, t, x))
