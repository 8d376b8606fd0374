"""Derivation trees and the checking kernel for the ten-rule calculus.

A `Derivation` is an explicit tree: each node carries a rule tag and the
rule's own parameters (formulas, a variable, a term, a constant), so
checking is syntax-directed with no inference or unification.  `check`
walks the tree depth-first, left to right, verifying every side condition
and premise shape, and returns the unique sequent the tree proves.

A tree may share a subtree between several parents, so it is really a
DAG.  `load_proof` builds one: equal subproofs of a proof file (the same
rule, parameter texts and premise objects) load as one `Derivation`.
One walk, `_walk`, visits each distinct node once, in the post-order of
its first occurrence.  The kernel concludes each node there and reports a
failure at the path of that occurrence, so the verdict and the error are
those of the tree written out in full.  `used_signature` and `dump_proof`
read the same walk; the written document shares one object per node.

`check_proof`, behind `qrc1 check`, builds no `Derivation` at all: the
loader hands each node, in post-order, to `_conclude` as it reads it,
and equal nodes (the same rule, parameter texts and premise sequents)
are concluded once.  Its verdict, error path and format errors are
those of `load_proof` followed by `check`.  It asks no parameter
formula or term whether it is well-formed, since the parser vouches for
that: it rejects an undeclared predicate or a wrong arity, and reads a
name in term position as a declared constant or else a variable.  The
constant of ConstE is read as a bare name, so that one is still looked
up in the signature.  `check` keeps every check, for derivations built
by hand.  Loading, checking and writing run on explicit stacks, so none
depends on the recursion limit, and the first two pause the cyclic garbage
collector (`_gc_paused`), since the data they build has no cycles.

The six derived-rule builders at the bottom construct trees out of the
ten primitive rules only; they never extend the trusted kernel.
"""

from __future__ import annotations

import functools
import gc
import json
import operator

from .language import (
    All,
    And,
    Const,
    Diam,
    Formula,
    Sequent,
    Signature,
    Term,
    TOP,
    Var,
    _Value,
    consts_of,
    freefor,
    fresh,
    fv,
    generalize,
    occurs_const,
    sub,
    well_formed,
    well_formed_term,
)
from . import syntax
from .syntax import SymbolTable

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterator, Sequence
    from typing import Any

# premise count, formula-parameter names, and extra parameters per rule tag
_RULES: dict[str, tuple[int, tuple[str, ...], frozenset[str]]] = {
    "Top": (0, ("phi",), frozenset()),
    "Refl": (0, ("phi",), frozenset()),
    "AndEl": (0, ("phi", "psi"), frozenset()),
    "AndEr": (0, ("phi", "psi"), frozenset()),
    "AndI": (2, (), frozenset()),
    "Cut": (2, (), frozenset()),
    "Nec": (1, (), frozenset()),
    "Trans": (0, ("phi",), frozenset()),
    "AllIr": (1, (), frozenset({"var"})),
    "AllIl": (1, ("phi",), frozenset({"var", "term"})),
    "TermI": (1, (), frozenset({"var", "term"})),
    "ConstE": (1, ("phi", "psi"), frozenset({"var", "const"})),
}


def _read_spec(rule: str) -> tuple[Any, ...]:
    """What `_Loader.load` reads of a node with this rule tag: the tag as
    `_RULES` spells it, the number of formula parameters ("phi", then
    "psi"), whether it takes "x", "t" and "c", and a getter of all its
    parameter texts, or None for a rule with no parameters."""
    _, f_names, extras = _RULES[rule]
    x, t, c = "var" in extras, "term" in extras, "const" in extras
    names = f_names + ("x",) * x + ("t",) * t + ("c",) * c
    return rule, len(f_names), x, t, c, operator.itemgetter(*names) if names else None


_READS = {rule: _read_spec(rule) for rule in _RULES}


# closed enumeration of check-failure reasons
ILL_FORMED = "ill-formed"
PREMISE_MISMATCH = "premise-mismatch"
VAR_NOT_FRESH = "var-not-fresh"
NOT_FREE_FOR = "not-free-for"
CONST_OCCURS = "const-occurs"

REASONS = (ILL_FORMED, PREMISE_MISMATCH, VAR_NOT_FRESH, NOT_FREE_FOR, CONST_OCCURS)


class CheckError(Exception):
    """A derivation failed to check.

    `path` is the list of premise indices from the root to the failing
    node, `rule` its tag, and `reason` one of `REASONS`.
    """

    def __init__(self, path: tuple[int, ...], rule: str, reason: str, detail: str = ""):
        assert reason in REASONS
        self.path = path
        self.rule = rule
        self.reason = reason
        self.detail = detail
        at = "root" if not path else "node " + ".".join(map(str, path))
        text = f"{reason} in {rule} at {at}"
        if detail:
            text += f": {detail}"
        super().__init__(text)


class ProofFormatError(ValueError):
    """Malformed proof file contents."""


class Derivation(_Value):
    __slots__ = ("_hash",)

    rule: str
    formulas: tuple[Formula, ...] = ()
    var: int | None = None
    term: Term | None = None
    const: str | None = None
    premises: tuple[Derivation, ...] = ()

    def __post_init__(self) -> None:
        if self.rule not in _RULES:
            raise ValueError(f"unknown rule tag {self.rule!r}")
        n_prem, f_names, extras = _RULES[self.rule]
        if len(self.premises) != n_prem:
            raise ValueError(
                f"{self.rule} takes {n_prem} premise(s), got {len(self.premises)}"
            )
        if len(self.formulas) != len(f_names):
            raise ValueError(
                f"{self.rule} takes {len(f_names)} formula parameter(s), "
                f"got {len(self.formulas)}"
            )
        if ("var" in extras) != (self.var is not None):
            raise ValueError(f"{self.rule}: bad variable parameter")
        if ("term" in extras) != (self.term is not None):
            raise ValueError(f"{self.rule}: bad term parameter")
        if ("const" in extras) != (self.const is not None):
            raise ValueError(f"{self.rule}: bad constant parameter")


# -- constructors for the ten primitive rules ------------------------


def ax_top(phi: Formula) -> Derivation:
    """Axiom: phi ~> T"""
    return Derivation("Top", (phi,))


def ax_refl(phi: Formula) -> Derivation:
    """Axiom: phi ~> phi"""
    return Derivation("Refl", (phi,))


def ax_and_left(phi: Formula, psi: Formula) -> Derivation:
    """Axiom: phi & psi ~> phi"""
    return Derivation("AndEl", (phi, psi))


def ax_and_right(phi: Formula, psi: Formula) -> Derivation:
    """Axiom: phi & psi ~> psi"""
    return Derivation("AndEr", (phi, psi))


def ax_trans(phi: Formula) -> Derivation:
    """Axiom: <> <> phi ~> <> phi"""
    return Derivation("Trans", (phi,))


def and_intro(left: Derivation, right: Derivation) -> Derivation:
    """From phi ~> psi and phi ~> chi conclude phi ~> psi & chi."""
    return Derivation("AndI", premises=(left, right))


def cut(first: Derivation, second: Derivation) -> Derivation:
    """From phi ~> psi and psi ~> chi conclude phi ~> chi."""
    return Derivation("Cut", premises=(first, second))


def nec(premise: Derivation) -> Derivation:
    """From phi ~> psi conclude <> phi ~> <> psi."""
    return Derivation("Nec", premises=(premise,))


def all_intro_right(premise: Derivation, x: int) -> Derivation:
    """From phi ~> psi conclude phi ~> A x . psi, provided x is not free in phi."""
    return Derivation("AllIr", var=x, premises=(premise,))


def all_intro_left(phi: Formula, x: int, t: Term, premise: Derivation) -> Derivation:
    """From phi[x:=t] ~> psi conclude A x . phi ~> psi, provided t is free for x in phi."""
    return Derivation("AllIl", (phi,), var=x, term=t, premises=(premise,))


def term_inst(premise: Derivation, x: int, t: Term) -> Derivation:
    """From phi ~> psi conclude phi[x:=t] ~> psi[x:=t], t free for x in both."""
    return Derivation("TermI", var=x, term=t, premises=(premise,))


def const_elim(phi: Formula, psi: Formula, x: int, c: str, premise: Derivation) -> Derivation:
    """From phi[x:=c] ~> psi[x:=c] conclude phi ~> psi, c occurring in neither."""
    return Derivation("ConstE", (phi, psi), var=x, const=c, premises=(premise,))


# -- the checker -----------------------------------------------------


class _gc_paused:
    """Context manager that turns the cyclic garbage collector off for its
    block and then restores the state the caller had.

    Loading and checking build only acyclic data (JSON values, formulas,
    derivations, sequents), all freed by reference counting, so a cyclic
    collection during them walks everything they keep alive and frees next
    to nothing.  A 10.8k-node proof file keeps ~48k containers alive as it
    loads.  On the first 30 files of the check-proofs benchmark (seed 1,
    CPython 3.11), loading and checking ran ~45 collections per file and
    took 55 ms a file with the collector on, 46 ms with it off.

    A class rather than a `contextlib.contextmanager` generator: leaving
    the generator allocates a `StopIteration` after the collector is back
    on, which starts the very collection the pause put off, while every
    object the block built is still alive.
    """

    __slots__ = ("enabled",)

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self.enabled:
            gc.enable()


def check(d: Derivation, sig: Signature) -> Sequent:
    """Check a derivation and return the sequent it proves.

    Raises `CheckError` on the first violation encountered depth-first,
    left to right; within a node the order is well-formedness of the
    node's own parameters, then side conditions, then premise shape.
    """
    with _gc_paused():
        return _check(d, sig)


def conclusion(d: Derivation) -> Sequent:
    """The sequent a derivation proves, without signature checks."""
    with _gc_paused():
        return _check(d, None)


def _walk(d: Derivation) -> Iterator[tuple[Derivation, list[Derivation | None]]]:
    """Each distinct node of `d` once, after its premises, in the post-order
    of its first occurrence, with the stack `todo` of nodes still to visit.
    On it a None entry marks the node below it as one whose premises are
    being visited, so those nodes are the ancestors of the one yielded."""
    # keyed by id: `d` keeps every node alive, so no id is reused
    seen: set[int] = set()
    todo: list[Derivation | None] = [d]
    while todo:
        node = todo.pop()
        if node is None:
            node = todo.pop()
        elif id(node) in seen:
            continue
        elif node.premises:
            todo += (node, None, *node.premises[::-1])
            continue
        seen.add(id(node))
        yield node, todo


def _check(d: Derivation, sig: Signature | None) -> Sequent:
    """Conclude every node of `_walk(d)` in turn."""
    # both keyed by id: `d` keeps every node and formula alive, so no id is reused
    done: dict[int, Sequent] = {}
    formed: set[int] = set()
    constants = sig.constants if sig is not None else None
    for node, todo in _walk(d):
        try:
            if sig is not None:
                _check_parameters(sig, formed, node)
            done[id(node)] = _conclude(constants, node.rule, node.formulas, node.var,
                                       node.term, node.const, [done[id(p)] for p in node.premises])
        except CheckError as e:
            raise CheckError(_path(todo, node), e.rule, e.reason, e.detail) from None
    return done[id(d)]


def _path(todo: list[Derivation | None], node: Derivation) -> tuple[int, ...]:
    """Premise indices from the root to `node`, read off its ancestors on
    `_walk`'s stack.  Where a premise repeats, the first copy is the one
    being visited: the second is visited only once the first is done."""
    chain = [todo[i - 1] for i, entry in enumerate(todo) if entry is None]
    chain.append(node)
    return tuple(
        next(i for i, p in enumerate(parent.premises) if p is child)
        for parent, child in zip(chain, chain[1:])
    )


def _check_parameters(sig: Signature, formed: set[int], node: Derivation) -> None:
    """Each parameter formula of `node` must be well-formed in `sig`,
    unless `formed` already holds its id, and so must its term."""
    for f in node.formulas:
        if id(f) in formed:
            continue
        if not well_formed(f, sig):
            raise CheckError((), node.rule, ILL_FORMED, "parameter formula not well-formed")
        formed.add(id(f))
    if node.term is not None and not well_formed_term(node.term, sig):
        raise CheckError((), node.rule, ILL_FORMED, "parameter term not well-formed")


def _conclude(
    constants: frozenset[str] | None, rule: str, formulas: tuple[Formula, ...],
    var: int | None, term: Term | None, const: str | None, prem: Sequence[Sequent],
) -> Sequent:
    """The sequent that a node with these fields proves from its premises'
    sequents `prem`, its parameter formulas and term taken as well-formed.
    With `constants`, ConstE's constant must be one of them.  A
    `CheckError` raised here has an empty path, which the caller fills in.
    Cut and AndI, the rules of half the nodes in a typical proof file,
    come first, and the rest roughly by how often proofs use them."""
    if rule == "Cut":
        first, second = prem
        middle = first.cons
        if middle is not second.ante and middle != second.ante:
            raise CheckError((), rule, PREMISE_MISMATCH, "middle formulas differ")
        return Sequent(first.ante, second.cons)
    if rule == "AndI":
        left, right = prem
        if left.ante is not right.ante and left.ante != right.ante:
            raise CheckError((), rule, PREMISE_MISMATCH, "premises have different antecedents")
        return Sequent(left.ante, And(left.cons, right.cons))
    if rule == "Refl":
        return Sequent(formulas[0], formulas[0])
    if rule == "AllIr":
        if var in fv(prem[0].ante):
            raise CheckError((), rule, VAR_NOT_FRESH, "quantified variable free in the antecedent")
        return Sequent(prem[0].ante, All(var, prem[0].cons))
    if rule == "AllIl":
        phi = formulas[0]
        assert var is not None and term is not None
        if not freefor(phi, var, term):
            raise CheckError((), rule, NOT_FREE_FOR, "term not free for the variable")
        if prem[0].ante != sub(phi, var, term):
            raise CheckError((), rule, PREMISE_MISMATCH, "premise antecedent is not the instance")
        return Sequent(All(var, phi), prem[0].cons)
    if rule == "Top":
        return Sequent(formulas[0], TOP)
    if rule == "AndEl":
        phi, psi = formulas
        return Sequent(And(phi, psi), phi)
    if rule == "AndEr":
        phi, psi = formulas
        return Sequent(And(phi, psi), psi)
    if rule == "TermI":
        assert var is not None and term is not None
        if not freefor(prem[0].ante, var, term):
            raise CheckError(
                (), rule, NOT_FREE_FOR, "term not free for the variable in the antecedent"
            )
        if not freefor(prem[0].cons, var, term):
            raise CheckError(
                (), rule, NOT_FREE_FOR, "term not free for the variable in the consequent"
            )
        return Sequent(
            sub(prem[0].ante, var, term), sub(prem[0].cons, var, term)
        )
    if rule == "Nec":
        return Sequent(Diam(prem[0].ante), Diam(prem[0].cons))
    if rule == "Trans":
        phi = formulas[0]
        return Sequent(Diam(Diam(phi)), Diam(phi))
    # ConstE
    phi, psi = formulas
    assert var is not None and const is not None
    if constants is not None and const not in constants:
        raise CheckError((), rule, ILL_FORMED, f"undeclared constant {const!r}")
    if occurs_const(const, phi):
        raise CheckError((), rule, CONST_OCCURS, "constant occurs in the antecedent")
    if occurs_const(const, psi):
        raise CheckError((), rule, CONST_OCCURS, "constant occurs in the consequent")
    c = Const(const)
    if prem[0] != Sequent(sub(phi, var, c), sub(psi, var, c)):
        raise CheckError((), rule, PREMISE_MISMATCH, "premise is not the constant instance")
    return Sequent(phi, psi)


# -- derived rules, built from the primitive ones ---------------------


def all_commute(phi: Formula, x: int, y: int) -> Derivation:
    """A x . A y . phi ~> A y . A x . phi"""
    d = ax_refl(phi)
    d = all_intro_left(phi, y, Var(y), d)
    d = all_intro_left(All(y, phi), x, Var(x), d)
    d = all_intro_right(d, x)
    return all_intro_right(d, y)


def all_instantiate(phi: Formula, x: int, t: Term) -> Derivation:
    """A x . phi ~> phi[x:=t], provided t is free for x in phi."""
    if not freefor(phi, x, t):
        raise ValueError("term is not free for the variable in the formula")
    return all_intro_left(phi, x, t, ax_refl(sub(phi, x, t)))


def diam_over_all(phi: Formula, x: int) -> Derivation:
    """<> A x . phi ~> A x . <> phi"""
    strip = all_intro_left(phi, x, Var(x), ax_refl(phi))
    return all_intro_right(nec(strip), x)


def rename_bound(phi: Formula, x: int, y: int) -> Derivation:
    """A x . phi ~> A y . phi[x:=y], for y free for x in phi and not free in phi.

    The degenerate case y == x is allowed and yields A x . phi ~> A x . phi.
    """
    if not freefor(phi, x, Var(y)):
        raise ValueError("renaming variable is not free for the bound variable")
    if y != x and y in fv(phi):
        raise ValueError("renaming variable occurs free in the formula")
    return all_intro_right(all_instantiate(phi, x, Var(y)), y)


def instantiate_consequent(d: Derivation, x: int, t: Term) -> Derivation:
    """From phi ~> psi build phi ~> psi[x:=t].

    Requires x not free in phi and t free for x in psi.
    """
    seq = conclusion(d)
    if x in fv(seq.ante):
        raise ValueError("variable occurs free in the antecedent")
    if not freefor(seq.cons, x, t):
        raise ValueError("term is not free for the variable in the consequent")
    return term_inst(d, x, t)


def generalize_constant(d: Derivation, x: int, c: str) -> Derivation:
    """From phi ~> psi[x:=c] build phi ~> A x . psi.

    Requires x not free in phi and c occurring in neither phi nor psi;
    psi is recovered from the premise by replacing c with x.
    """
    seq = conclusion(d)
    if x in fv(seq.ante):
        raise ValueError("variable occurs free in the antecedent")
    if occurs_const(c, seq.ante):
        raise ValueError("constant occurs in the antecedent")
    psi = generalize(seq.cons, Const(c), x)
    if sub(psi, x, Const(c)) != seq.cons:
        raise ValueError("premise consequent is not a constant instance")
    step = const_elim(seq.ante, psi, x, c, d)
    return all_intro_right(step, x)


def used_signature(sig: Signature, d: Derivation) -> Signature:
    """`sig` extended with every constant the derivation names, such as
    the reserved constants proof search introduces."""
    used: set[str] = set()
    for node, _ in _walk(d):
        if node.const is not None:
            used.add(node.const)
        for f in node.formulas:
            used |= consts_of(f)
        if isinstance(node.term, Const):
            used.add(node.term.name)
    extra = used - sig.constants
    if not extra:
        return sig
    return Signature(sig.constants | extra, dict(sig.predicates))


# -- proof file format -----------------------------------------------


class LoadedProof(_Value):
    sig: Signature
    derivation: Derivation
    table: SymbolTable = fresh(SymbolTable)


def dump_proof(d: Derivation, sig: Signature, table: SymbolTable | None = None) -> dict[str, Any]:
    """Serialize a derivation to the JSON proof-file structure.  Each
    distinct node becomes one object, which every occurrence shares."""
    table = table or SymbolTable()
    out: dict[int, dict[str, Any]] = {}
    for node, _ in _walk(d):
        params: dict[str, Any] = {name: syntax.format_formula(f, table, sig)
                                  for name, f in zip(_RULES[node.rule][1], node.formulas)}
        if node.var is not None:
            params["x"] = table.name_of(node.var, sig.constants)
        if node.term is not None:
            params["t"] = syntax.format_term(node.term, table, sig)
        if node.const is not None:
            params["c"] = node.const
        out[id(node)] = {"rule": node.rule, "params": params,
                         "premises": [out[id(p)] for p in node.premises]}
    return {"signature": syntax.signature_to_json(sig), "proof": out[id(d)]}


def dumps_proof(d: Derivation, sig: Signature, table: SymbolTable | None = None) -> str:
    return json.dumps(dump_proof(d, sig, table), indent=2)


def load_proof(data: str | dict[str, Any]) -> LoadedProof:
    """Parse the JSON proof-file structure; the inverse of `dump_proof`.

    Equal subproofs (the same rule, parameters and premises) load as one
    shared `Derivation`.
    """
    with _gc_paused():
        data, sig = syntax.document_from_json(data, "proof", ProofFormatError)
        table = SymbolTable()
        d = _Loader(sig, table).load(data.get("proof"), Derivation)
        return LoadedProof(sig, d, table)


class CheckedProof(_Value):
    """A proof file as `check_proof` read it: the proved `sequent`, or the
    kernel's `error`, and the JSON `nodes` read and the deepest nesting,
    `depth` (a lone root node has depth 1)."""

    sig: Signature
    table: SymbolTable
    sequent: Sequent | None
    error: CheckError | None
    nodes: int
    depth: int


def check_proof(data: str | dict[str, Any]) -> CheckedProof:
    """Load and check a proof file in one pass, concluding each node as it
    is read, with no `Derivation` built.  The verdict, the `CheckError`
    and the format errors are those of `load_proof` then `check`: a
    `ProofFormatError` anywhere in the file is raised even after the
    kernel has failed, so the file is read to its end, and a `CheckError`
    is returned, not raised."""
    with _gc_paused():
        data, sig = syntax.document_from_json(data, "proof", ProofFormatError)
        table = SymbolTable()
        loader = _Loader(sig, table)
        seq = loader.load(data.get("proof"), functools.partial(_conclude, sig.constants))
        return CheckedProof(sig, table, seq, loader.failure, loader.nodes, loader.depth)


# on `_Loader.load`'s stack: the premises of the innermost open node are built
_PREMISES_BUILT = object()


class _Loader:
    """One proof file's nodes, read in pre-order on an explicit stack: a
    node's own parameters are read before its premises, and its premise
    count is checked after them.  Each distinct formula, term or variable
    text is parsed once.  Each node is built once its premises are, and
    nodes with the same rule, parameter texts and built premises are built
    once (see `load`)."""

    def __init__(self, sig: Signature, table: SymbolTable):
        self.sig = sig
        self.table = table
        self.formulas: dict[str, Formula] = {}
        self.terms: dict[str, Term] = {}
        self.variables: dict[str, int] = {}
        # keyed by the rule, its parameter texts and the ids of its built
        # premises; every built node is a value here, so no id is reused
        self.shared: dict[tuple[Any, ...], Any] = {}
        # built nodes not yet taken by their parent
        self.built: list[Any] = []
        # nodes whose premises are loading: the node's own fields, then the
        # length of `built` when it was reached, its "base"; a node's index
        # among its parent's premises is its base minus the parent's
        self.open: list[tuple[Any, ...]] = []
        # the first `CheckError` a builder raised, with its node's path
        self.failure: CheckError | None = None
        self.nodes = self.depth = 0

    def load(self, root: Any, build: Callable[..., Any]) -> Any:
        """What `build(rule, formulas, var, term, const, premises)` returns
        for the tree at `root`, called in post-order with the premises as
        built.  Once `build` has raised a `CheckError`, kept in `failure`
        with the node's path, no node is built: each stands as None, so
        only format errors are still found."""
        todo = [root]
        built, open_, shared = self.built, self.open, self.shared
        fmemo, tmemo, vmemo = self.formulas, self.terms, self.variables
        failure = None
        nodes = depth = 0
        while todo:
            obj = todo.pop()
            if obj is _PREMISES_BUILT:
                rule, texts, formulas, var, term, const, base = open_.pop()
                premises = tuple(built[base:])
                del built[base:]
                n = len(premises)  # spelled out for one and two, the rules' counts
                key = ((rule, texts, id(premises[0]), id(premises[1])) if n == 2 else
                       (rule, texts, id(premises[0])) if n == 1 else
                       (rule, texts, *map(id, premises)))
            else:
                # each field read through `_READS` and the memos, where a hit
                # is what `node` would return; a miss or a field of the wrong
                # type (a KeyError or TypeError here, or a failed test) goes
                # through `node`, which parses it or raises the format error
                try:
                    rule, n_form, has_x, has_t, has_c, names = _READS[obj["rule"]]
                    params, raw = obj["params"], obj["premises"]
                    formulas = (() if not n_form else (fmemo[params["phi"]],) if n_form == 1
                                else (fmemo[params["phi"]], fmemo[params["psi"]]))
                    var = vmemo[params["x"]] if has_x else None
                    term = tmemo[params["t"]] if has_t else None
                    const = params["c"] if has_c else None
                    read = (type(obj) is dict and type(params) is dict and type(raw) is list
                            and (not has_c or syntax.is_name(const)))
                except (KeyError, TypeError):
                    read = False
                if not read:
                    rule, formulas, var, term, const, raw = self.node(obj)
                    params = obj.get("params")
                    names = _READS[rule][-1]
                # in the key the parameter texts stand for what they parse
                # to: through the memos, one text gives one object
                texts = names(params) if names else None
                nodes += 1
                base = len(built)
                if raw:
                    open_.append((rule, texts, formulas, var, term, const, base))
                    todo.append(_PREMISES_BUILT)
                    todo += reversed(raw)
                    continue
                if len(open_) >= depth:  # the deepest node is a leaf
                    depth = len(open_) + 1
                premises = ()
                key = (rule, texts)
            out = shared.get(key)
            if out is None:
                n_prem = _RULES[rule][0]
                if len(premises) != n_prem:
                    raise ProofFormatError(f"{self.where(base)}: {rule} takes {n_prem} "
                                           f"premise(s), got {len(premises)}")
                if failure is None:
                    try:
                        out = shared[key] = build(rule, formulas, var, term, const, premises)
                    except CheckError as e:
                        failure = CheckError(self.path(base), e.rule, e.reason, e.detail)
            built.append(out)
        self.failure, self.nodes, self.depth = failure, nodes, depth
        return built[0]

    def path(self, base: int) -> tuple[int, ...]:
        """The premise indices from the root to the node with base `base`,
        below the open nodes."""
        bases = [entry[-1] for entry in self.open]
        bases.append(base)
        return tuple(b - a for a, b in zip(bases, bases[1:]))

    def where(self, base: int) -> str:
        """The JSON path of the node with base `base`, below the open nodes."""
        return "proof" + "".join(f".premises[{i}]" for i in self.path(base))

    def fail(self, message: str) -> ProofFormatError:
        """An error at the node being read."""
        return ProofFormatError(f"{self.where(len(self.built))}: {message}")

    def node(self, obj: Any) -> tuple[Any, ...]:
        """The node's rule and parameters, then its raw premise list."""
        if not isinstance(obj, dict):
            raise self.fail("expected an object")
        rule = obj.get("rule")
        if not isinstance(rule, str) or rule not in _RULES:
            raise self.fail(f"unknown rule tag {rule!r}")
        _, f_names, extras = _RULES[rule]
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise self.fail("'params' must be an object")
        formulas: tuple[Formula, ...] = ()
        for name in f_names:
            formulas += (self.parsed(params, name, rule, self.formulas, syntax.parse_formula),)
        var = self.variable(params, rule) if "var" in extras else None
        term = const = None
        if "term" in extras:
            term = self.parsed(params, "t", rule, self.terms, syntax.parse_term)
        if "const" in extras:
            if "c" not in params:
                raise self.fail(f"{rule} requires parameter 'c'")
            const = params["c"]
            if not syntax.is_name(const):
                raise self.fail("parameter 'c' must be a constant name")
        raw_premises = obj.get("premises", [])
        if not isinstance(raw_premises, list):
            raise self.fail("'premises' must be a list")
        return rule, formulas, var, term, const, raw_premises

    def parsed(self, params: dict[str, Any], key: str, rule: str, memo: dict[str, Any],
               parse: Any) -> Any:
        """Parameter `key` as parsed by `parse` in the file's signature and
        table, through `memo`."""
        text = params.get(key)
        out = memo.get(text) if isinstance(text, str) else None
        if out is None:
            if key not in params:
                raise self.fail(f"{rule} requires parameter {key!r}")
            if not isinstance(text, str):
                raise self.fail(f"parameter {key!r} must be a string")
            try:
                out = memo[text] = parse(text, self.sig, self.table)
            except syntax.ParseError as e:
                raise self.fail(str(e)) from e
        return out

    def variable(self, params: dict[str, Any], rule: str) -> int:
        """Parameter 'x', a name the parser would take as a bound variable."""
        name = params.get("x")
        var = self.variables.get(name) if isinstance(name, str) else None
        if var is None:
            if "x" not in params:
                raise self.fail(f"{rule} requires parameter 'x'")
            if not syntax.is_name(name):
                raise self.fail("parameter 'x' must be a variable name")
            var = self.variables[name] = self.table.intern(name)
        return var
