"""Derivation trees and the checking kernel for the ten-rule calculus.

A `Derivation` is an explicit tree: each node carries a rule tag and the
rule's own parameters (formulas, a variable, a term, a constant), so
checking is syntax-directed with no inference or unification.  `check`
walks the tree depth-first, left to right, verifying every side condition
and premise shape, and returns the unique sequent the tree proves.

A tree may share a subtree between several parents, so it is really a
DAG.  `load_proof` builds one: equal subproofs of a proof file (the same
rule, parameter objects and premise objects) load as one `Derivation`.
The kernel concludes each distinct node once, in the post-order of its
first occurrence, and reports a failure at the path of that occurrence,
so the verdict and the error are those of the tree written out in full.
Loading and checking both run on explicit stacks, so neither depends on
the recursion limit, and both run with the cyclic garbage collector
paused (`_gc_paused`), since the data they build has no cycles.

The six derived-rule builders at the bottom construct trees out of the
ten primitive rules only; they never extend the trusted kernel.
"""

from __future__ import annotations

import gc
import json

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

RULES = tuple(_RULES)

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


def _check(d: Derivation, sig: Signature | None) -> Sequent:
    """Conclude every distinct node of `d` once, in the post-order of its
    first occurrence, on an explicit stack.

    `todo` holds nodes still to visit; a None entry marks the node below it
    as one whose premises are being concluded, so the entries just below
    the Nones are the ancestors of the node at hand.
    """
    # both keyed by id: `d` keeps every node and formula alive, so no id is reused
    done: dict[int, Sequent] = {}
    formed: set[int] = set()
    todo: list[Derivation | None] = [d]
    while todo:
        node = todo.pop()
        if node is None:
            node = todo.pop()
        elif id(node) in done:
            continue
        elif node.premises:
            todo += (node, None, *node.premises[::-1])
            continue
        try:
            done[id(node)] = _conclude(node, [done[id(p)] for p in node.premises], sig, formed)
        except CheckError as e:
            raise CheckError(_path(todo, node), e.rule, e.reason, e.detail) from None
    return done[id(d)]


def _path(todo: list[Derivation | None], node: Derivation) -> tuple[int, ...]:
    """Premise indices from the root to `node`, read off its ancestors on
    `_check`'s stack.  Where a premise repeats, the first copy is the one
    being concluded: the second is visited only once the first is done."""
    chain = [todo[i - 1] for i, entry in enumerate(todo) if entry is None]
    chain.append(node)
    return tuple(
        next(i for i, p in enumerate(parent.premises) if p is child)
        for parent, child in zip(chain, chain[1:])
    )


def _conclude(
    d: Derivation, prem: list[Sequent], sig: Signature | None, formed: set[int]
) -> Sequent:
    """The sequent `d` proves from its premises' sequents `prem`; a
    `CheckError` raised here has an empty path, which `_check` fills in."""
    rule = d.rule
    if sig is not None:
        for f in d.formulas:
            if id(f) in formed:
                continue
            if not well_formed(f, sig):
                raise CheckError((), rule, ILL_FORMED, "parameter formula not well-formed")
            formed.add(id(f))
        if d.term is not None and not well_formed_term(d.term, sig):
            raise CheckError((), rule, ILL_FORMED, "parameter term not well-formed")
        if d.const is not None and d.const not in sig.constants:
            raise CheckError((), rule, ILL_FORMED, f"undeclared constant {d.const!r}")

    if rule == "Top":
        return Sequent(d.formulas[0], TOP)
    if rule == "Refl":
        return Sequent(d.formulas[0], d.formulas[0])
    if rule == "AndEl":
        phi, psi = d.formulas
        return Sequent(And(phi, psi), phi)
    if rule == "AndEr":
        phi, psi = d.formulas
        return Sequent(And(phi, psi), psi)
    if rule == "Trans":
        phi = d.formulas[0]
        return Sequent(Diam(Diam(phi)), Diam(phi))
    if rule == "AndI":
        if prem[0].ante != prem[1].ante:
            raise CheckError((), rule, PREMISE_MISMATCH, "premises have different antecedents")
        return Sequent(prem[0].ante, And(prem[0].cons, prem[1].cons))
    if rule == "Cut":
        if prem[0].cons != prem[1].ante:
            raise CheckError((), rule, PREMISE_MISMATCH, "middle formulas differ")
        return Sequent(prem[0].ante, prem[1].cons)
    if rule == "Nec":
        return Sequent(Diam(prem[0].ante), Diam(prem[0].cons))
    if rule == "AllIr":
        if d.var in fv(prem[0].ante):
            raise CheckError((), rule, VAR_NOT_FRESH, "quantified variable free in the antecedent")
        return Sequent(prem[0].ante, All(d.var, prem[0].cons))
    if rule == "AllIl":
        phi = d.formulas[0]
        assert d.var is not None and d.term is not None
        if not freefor(phi, d.var, d.term):
            raise CheckError((), rule, NOT_FREE_FOR, "term not free for the variable")
        if prem[0].ante != sub(phi, d.var, d.term):
            raise CheckError((), rule, PREMISE_MISMATCH, "premise antecedent is not the instance")
        return Sequent(All(d.var, phi), prem[0].cons)
    if rule == "TermI":
        assert d.var is not None and d.term is not None
        if not freefor(prem[0].ante, d.var, d.term):
            raise CheckError(
                (), rule, NOT_FREE_FOR, "term not free for the variable in the antecedent"
            )
        if not freefor(prem[0].cons, d.var, d.term):
            raise CheckError(
                (), rule, NOT_FREE_FOR, "term not free for the variable in the consequent"
            )
        return Sequent(
            sub(prem[0].ante, d.var, d.term), sub(prem[0].cons, d.var, d.term)
        )
    # ConstE
    phi, psi = d.formulas
    assert d.var is not None and d.const is not None
    if occurs_const(d.const, phi):
        raise CheckError((), rule, CONST_OCCURS, "constant occurs in the antecedent")
    if occurs_const(d.const, psi):
        raise CheckError((), rule, CONST_OCCURS, "constant occurs in the consequent")
    c = Const(d.const)
    if prem[0] != Sequent(sub(phi, d.var, c), sub(psi, d.var, c)):
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
    stack = [d]
    while stack:
        node = stack.pop()
        if node.const is not None:
            used.add(node.const)
        for f in node.formulas:
            used |= consts_of(f)
        if isinstance(node.term, Const):
            used.add(node.term.name)
        stack.extend(node.premises)
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
    """Serialize a derivation to the JSON proof-file structure."""
    table = table or SymbolTable()
    return {
        "signature": syntax.signature_to_json(sig),
        "proof": _dump_node(d, sig, table),
    }


def dumps_proof(d: Derivation, sig: Signature, table: SymbolTable | None = None) -> str:
    return json.dumps(dump_proof(d, sig, table), indent=2)


def _dump_node(d: Derivation, sig: Signature, table: SymbolTable) -> dict[str, Any]:
    _, f_names, _ = _RULES[d.rule]
    params: dict[str, Any] = {
        name: syntax.format_formula(f, table, sig)
        for name, f in zip(f_names, d.formulas)
    }
    if d.var is not None:
        params["x"] = table.name_of(d.var, sig.constants)
    if d.term is not None:
        params["t"] = syntax.format_term(d.term, table, sig)
    if d.const is not None:
        params["c"] = d.const
    return {
        "rule": d.rule,
        "params": params,
        "premises": [_dump_node(p, sig, table) for p in d.premises],
    }


def load_proof(data: str | dict[str, Any]) -> LoadedProof:
    """Parse the JSON proof-file structure; the inverse of `dump_proof`.

    Equal subproofs (the same rule, parameters and premises) load as one
    shared `Derivation`.
    """
    with _gc_paused():
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as e:
                raise ProofFormatError(f"invalid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ProofFormatError("proof file must be a JSON object")
        sig = syntax.signature_from_json(data.get("signature"), ProofFormatError)
        table = SymbolTable()
        d = _Loader(sig, table).load(data.get("proof"))
        return LoadedProof(sig, d, table)


# on `_Loader.load`'s stack: the premises of the innermost open node are built
_PREMISES_BUILT = object()


class _Loader:
    """One proof file's nodes, read in pre-order on an explicit stack: a
    node's own parameters are read before its premises, and its premise
    count is checked after them.  Each distinct formula, term or variable
    text is parsed once, and nodes with the same rule, parameters and
    premises share one `Derivation`."""

    def __init__(self, sig: Signature, table: SymbolTable):
        self.sig = sig
        self.table = table
        self.formulas: dict[str, Formula] = {}
        self.terms: dict[str, Term] = {}
        self.variables: dict[str, int] = {}
        # keyed by the ids of parameters and premises; each value keeps them alive
        self.shared: dict[tuple[Any, ...], Derivation] = {}
        # loaded nodes not yet taken by their parent
        self.built: list[Derivation] = []
        # nodes whose premises are loading: the node's own fields, then the
        # length of `built` when it was reached, its "base"; a node's index
        # among its parent's premises is its base minus the parent's
        self.open: list[tuple[Any, ...]] = []

    def load(self, root: Any) -> Derivation:
        todo = [root]
        built, open_, shared = self.built, self.open, self.shared
        while todo:
            obj = todo.pop()
            if obj is _PREMISES_BUILT:
                rule, formulas, var, term, const, base = open_.pop()
                premises = tuple(built[base:])
                del built[base:]
            else:
                rule, formulas, var, term, const, raw_premises = self.node(obj)
                base = len(built)
                if raw_premises:
                    open_.append((rule, formulas, var, term, const, base))
                    todo.append(_PREMISES_BUILT)
                    todo += reversed(raw_premises)
                    continue
                premises = ()
            key = (rule, var, id(term), const, *map(id, formulas + premises))
            d = shared.get(key)
            if d is None:
                try:
                    d = shared[key] = Derivation(rule, formulas, var, term, const, premises)
                except ValueError as e:
                    raise ProofFormatError(f"{self.where(base)}: {e}") from e
            built.append(d)
        return built[0]

    def where(self, base: int) -> str:
        """The JSON path of the node with base `base`, below the open nodes."""
        bases = [entry[-1] for entry in self.open]
        bases.append(base)
        return "proof" + "".join(f".premises[{b - a}]" for a, b in zip(bases, bases[1:]))

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
