"""Deep embedding of the strictly positive quantified modal language.

Formulas are built from the verum constant, predicate atoms, conjunction,
diamond, and the universal quantifier; there is no negation, implication,
or box.  Variables are plain natural numbers (the concrete syntax in
`qrc1.syntax` maps identifiers to them).  Everything here is an immutable
value comparing structurally: ``All(0, P(0))`` and ``All(1, P(1))`` are
different formulas, and no alpha-equivalence is provided.

A formula stores a few facts about itself the first time one is asked
for, in slots set past the refusing `__setattr__`: its hash, and its free
variables (`fv`), all its variables (`all_vars`) and its constants
(`consts_of`), which one walk, `_facts`, computes together from its parts'
stored sets.  So a repeated question costs one attribute read, and each
answer lives exactly as long as its formula.  The stored hash is the hash
of the tuple of the fields, as every value class computes it (see
`_ValueType`), so storing it changes no equality, hash, `repr` or set
order.  A node whose set adds nothing to a child's stores the child's, and
every empty set is one frozenset.  No tuple of subformulas is stored: one
per formula costs more memory than the walks it saves.  The stored values
hold for the running process only, and pickling a formula drops them.

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
    A value class may extend another, whose fields (not their defaults)
    come first.  The class gets a slot per field of its own,
    `__match_args__` naming all of them, an `__init__` that calls
    `__post_init__` when the class has one, `==` by exact type and the
    tuple of the fields, and the hash of that tuple, which a class with a
    `_hash` slot computes once and stores there.  The three are compiled
    from straight-line source per class, since a loop over the fields
    makes `==` more than twice as slow."""

    def __new__(mcs, name: str, bases: tuple, ns: dict) -> type:
        own = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in own if f in ns}
        ns["__slots__"] = own + tuple(ns.get("__slots__", ()))
        fields = ns["__match_args__"] = (bases[0].__match_args__ if bases else ()) + own
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

    __slots__ = ("_hash", "_facts", "__weakref__")


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


_NO_FACTS = (_EMPTY, _EMPTY, _EMPTY)


def _facts(phi: Formula) -> tuple[frozenset[int], frozenset[int], frozenset[str]]:
    """The formula's free variables, all its variables and its constants,
    from its parts' on first use and stored on it (see the module
    docstring)."""
    facts = getattr(phi, "_facts", None)
    if facts is not None:
        return facts
    kind = type(phi)
    if kind is Pred:
        names = frozenset({a.id for a in phi.args if type(a) is Var}) or _EMPTY
        facts = names, names, frozenset({a.name for a in phi.args if type(a) is Const}) or _EMPTY
    elif kind is And:
        left, right = _facts(phi.left), _facts(phi.right)
        facts = tuple(map(_union, left, right))
    elif kind is Diam:
        facts = _facts(phi.body)
    elif kind is All:
        free, names, consts = _facts(phi.body)
        x = phi.var
        facts = (free - {x} or _EMPTY if x in free else free,
                 names if x in names else names | {x}, consts)
    else:
        facts = _NO_FACTS
    object.__setattr__(phi, "_facts", facts)
    return facts


def fv(phi: Formula) -> frozenset[int]:
    """Free variables of a formula; a quantifier removes its own variable."""
    return _facts(phi)[0]


def all_vars(phi: Formula) -> frozenset[int]:
    """Every variable occurring in the formula, free or bound."""
    return _facts(phi)[1]


def consts_of(phi: Formula) -> frozenset[str]:
    """Every constant name occurring in the formula."""
    return _facts(phi)[2]


def occurs_const(c: str, phi: Formula) -> bool:
    """True iff the constant name appears anywhere in the formula."""
    return c in consts_of(phi)


def _replace(phi: Formula, old: Term, new: Term) -> Formula:
    """Replace every free occurrence of the term ``old`` by ``new``: a
    binder for ``old`` shields its scope, and a part where ``old`` does
    not occur free is returned itself, not rebuilt."""
    if (old.id not in fv(phi)) if type(old) is Var else (old.name not in consts_of(phi)):
        return phi
    kind = type(phi)
    if kind is Pred:
        return Pred(phi.name, tuple(new if a == old else a for a in phi.args))
    if kind is And:
        return And(_replace(phi.left, old, new), _replace(phi.right, old, new))
    if kind is Diam:
        return Diam(_replace(phi.body, old, new))
    assert kind is All  # old is not free in Top, nor in an All binding it
    return All(phi.var, _replace(phi.body, old, new))


def sub(phi: Formula, x: int, t: Term) -> Formula:
    """Unguarded substitution of ``t`` for every free occurrence of ``x``.

    Binders for ``x`` shield their scope.  No capture avoidance and no
    renaming is performed; callers that care must check `freefor` first.
    A part where ``x`` is not free is returned itself, not rebuilt.
    """
    # the kernel's substitutions mostly find x not free: answer those
    # before building the term Var(x)
    return phi if x not in fv(phi) else _replace(phi, Var(x), t)


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
    """Every predicate is declared with matching arity, every constant
    declared.  Walks `subformulas`, so any depth of nesting is checked."""
    for part in subformulas(phi):
        if type(part) is Pred:
            if sig.predicates.get(part.name) != len(part.args):
                return False
            if not all(well_formed_term(a, sig) for a in part.args):
                return False
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
    return _replace(phi, t, Var(x))
