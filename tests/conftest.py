"""Shared strategies, model builders, and test-side oracles."""

from __future__ import annotations

import json
import random
from itertools import chain, product
from typing import Any, Iterable, Iterator

import hypothesis.strategies as st

from qrc1 import (
    All,
    And,
    Assignment,
    Const,
    Diam,
    Pred,
    Proved,
    RawFrame,
    RawModel,
    Refuted,
    Sequent,
    Signature,
    TOP,
    Var,
    eta_compose,
    sat,
    signature,
    xaltern_support,
)
from qrc1 import syntax
from qrc1.calculus import (
    _RULES,
    CONST_OCCURS,
    ILL_FORMED,
    NOT_FREE_FOR,
    PREMISE_MISMATCH,
    VAR_NOT_FRESH,
    CheckError,
    Derivation,
    LoadedProof,
    ProofFormatError,
)
from qrc1.language import (
    consts_of,
    freefor,
    fv,
    occurs_const,
    sub,
    subformulas,
    well_formed,
    well_formed_term,
)
from qrc1.syntax import SymbolTable
from qrc1.search import SearchBounds, _sat

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

# valid, and past proof search's reach (its proof cuts on <> <> Q(x)); with
# 17 free variables one candidate at domain 2 checks 2**17 valuations
MANY_VARIABLES = (
    "pred P/1. pred Q/1. pred R/1. <> (P(x) & <> Q(x)) & "
    + " & ".join(f"R({v})" for v in "abcdefghijklmnop")
    + " ~> <> Q(x)"
)

# sequents and the outcome `decide` gives them within 4 worlds, 3 elements
# and proof depth 8
BATTERY_SIG = signature(["c"], {"P": 1, "Q": 1, "S": 2})
BATTERY = [
    ("<> (P(x) & Q(x)) ~> <> P(x) & <> Q(x)", Proved),
    ("<> P(x) & <> Q(x) ~> <> (P(x) & Q(x))", Refuted),
    ("A x . (P(x) & Q(x)) ~> A x . P(x) & A x . Q(x)", Proved),
    ("A x . P(x) & A x . Q(x) ~> A x . (P(x) & Q(x))", Proved),
    ("T ~> A x . T", Proved),
    ("<> A x . P(x) ~> A x . <> P(x)", Proved),
    ("A x . <> P(x) ~> <> A x . P(x)", Refuted),
    ("A x . P(x) ~> A y . P(y)", Proved),
    ("P(c) ~> A x . P(x)", Refuted),
    ("A x . P(x) ~> P(y)", Proved),
    ("<> <> <> <> P(x) ~> <> P(x)", Proved),
    ("S(x, y) ~> S(y, x)", Refuted),
    ("A x . S(x, x) ~> S(y, y)", Proved),
    ("P(x) ~> <> P(x)", Refuted),
]


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


def check_adequacy_reference(raw: RawModel) -> tuple:
    """Oracle for `check_adequacy`: the flag-and-break loops it replaced.
    Returns the four pass flags, then the four witnesses, in report order."""
    frame = raw.frame
    rel, succ = frame.rel, frame.succ
    edges = sorted(rel)

    transitive, trans_wit = True, None
    for w, u in edges:
        for v in succ[u]:
            if (w, v) not in rel:
                transitive, trans_wit = False, (w, u, v)
                break
        if not transitive:
            break

    functorial, func_wit = True, None
    for w, u in edges:
        for v in succ[u]:
            for d in range(frame.domains[w]):
                if frame.eta[w][v][d] != frame.eta[u][v][frame.eta[w][u][d]]:
                    functorial, func_wit = False, (w, u, v, d)
                    break
            if not functorial:
                break
        if not functorial:
            break

    identity, id_wit = True, None
    for w in range(frame.worlds):
        for d in range(frame.domains[w]):
            if frame.eta[w][w][d] != d:
                identity, id_wit = False, (w, d)
                break
        if not identity:
            break

    concordant, conc_wit = True, None
    for w, u in edges:
        for c in sorted(raw.sig.constants):
            if raw.const_interp[u][c] != frame.eta[w][u][raw.const_interp[w][c]]:
                concordant, conc_wit = False, (w, u, c)
                break
        if not concordant:
            break

    return (
        transitive, functorial, identity, concordant,
        trans_wit, func_wit, id_wit, conc_wit,
    )


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


# -- formula walk oracles ----------------------------------------------------
#
# The walks that `language` replaced with values stored on each formula,
# kept as they were: a recursive generator of the subformulas in preorder,
# and `all_vars` and `consts_of` read off it.


def subformulas_reference(phi) -> Iterator:
    """Oracle for `subformulas`."""
    yield phi
    if isinstance(phi, And):
        yield from subformulas_reference(phi.left)
        yield from subformulas_reference(phi.right)
    elif isinstance(phi, (Diam, All)):
        yield from subformulas_reference(phi.body)


def all_vars_reference(phi) -> frozenset[int]:
    """Oracle for `all_vars`."""
    out: set[int] = set()
    for part in subformulas_reference(phi):
        if isinstance(part, Pred):
            out.update(a.id for a in part.args if isinstance(a, Var))
        elif isinstance(part, All):
            out.add(part.var)
    return frozenset(out)


def consts_of_reference(phi) -> frozenset[str]:
    """Oracle for `consts_of`."""
    return frozenset(
        a.name
        for part in subformulas_reference(phi) if isinstance(part, Pred)
        for a in part.args if isinstance(a, Const)
    )


# -- countermodel enumeration oracle ---------------------------------------
#
# The enumerator that `search._candidates` replaced, kept verbatim: a
# `RawModel` per candidate, scanned one world and valuation at a time through
# `sat`.  `candidates_reference` yields, per candidate, what `_candidates`
# must yield: None, or the model with its first refuting world and assignment.


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


def candidates_reference(
    sig: Signature, seq: Sequent, bounds: SearchBounds
) -> Iterator[tuple[RawModel, int, Assignment] | None]:
    variables = sorted(fv(seq.ante) | fv(seq.cons))
    for raw in _candidate_models(sig, seq, bounds):
        hit = _scan(raw, seq, variables)
        yield None if hit is None else (raw, *hit)


# -- proof loading and checking oracles -------------------------------------
#
# The recursive kernel and loader that `calculus._check` and
# `calculus._Loader` replaced, kept verbatim: a path tuple and a `fail`
# closure per node, every node of the tree concluded (repeats included),
# one `Derivation` per JSON node.  Both recurse, so they serve only inputs
# a few hundred levels deep.  The loader also takes any JSON value as the
# variable `x` or the constant `c`, through `str`, where `load_proof` now
# wants a name, and fails on a rule tag that cannot be hashed: compare them
# only on documents without either.


def check_reference(d: Derivation, sig: Signature | None) -> Sequent:
    """Oracle for `check` (and for `conclusion`, with `sig` None)."""
    return _check(d, sig, (), set())


def _check(
    d: Derivation, sig: Signature | None, path: tuple[int, ...], formed: set[int]
) -> Sequent:
    prem = [_check(p, sig, path + (i,), formed) for i, p in enumerate(d.premises)]

    def fail(reason: str, detail: str = "") -> CheckError:
        return CheckError(path, d.rule, reason, detail)

    if sig is not None:
        for f in d.formulas:
            # keyed by id: `d` keeps every formula alive, so no id is reused
            if id(f) in formed:
                continue
            if not well_formed(f, sig):
                raise fail(ILL_FORMED, "parameter formula not well-formed")
            formed.add(id(f))
        if d.term is not None and not well_formed_term(d.term, sig):
            raise fail(ILL_FORMED, "parameter term not well-formed")
        if d.const is not None and d.const not in sig.constants:
            raise fail(ILL_FORMED, f"undeclared constant {d.const!r}")

    rule = d.rule
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
            raise fail(PREMISE_MISMATCH, "premises have different antecedents")
        return Sequent(prem[0].ante, And(prem[0].cons, prem[1].cons))
    if rule == "Cut":
        if prem[0].cons != prem[1].ante:
            raise fail(PREMISE_MISMATCH, "middle formulas differ")
        return Sequent(prem[0].ante, prem[1].cons)
    if rule == "Nec":
        return Sequent(Diam(prem[0].ante), Diam(prem[0].cons))
    if rule == "AllIr":
        if d.var in fv(prem[0].ante):
            raise fail(VAR_NOT_FRESH, "quantified variable free in the antecedent")
        return Sequent(prem[0].ante, All(d.var, prem[0].cons))
    if rule == "AllIl":
        phi = d.formulas[0]
        assert d.var is not None and d.term is not None
        if not freefor(phi, d.var, d.term):
            raise fail(NOT_FREE_FOR, "term not free for the variable")
        if prem[0].ante != sub(phi, d.var, d.term):
            raise fail(PREMISE_MISMATCH, "premise antecedent is not the instance")
        return Sequent(All(d.var, phi), prem[0].cons)
    if rule == "TermI":
        assert d.var is not None and d.term is not None
        if not freefor(prem[0].ante, d.var, d.term):
            raise fail(NOT_FREE_FOR, "term not free for the variable in the antecedent")
        if not freefor(prem[0].cons, d.var, d.term):
            raise fail(NOT_FREE_FOR, "term not free for the variable in the consequent")
        return Sequent(
            sub(prem[0].ante, d.var, d.term), sub(prem[0].cons, d.var, d.term)
        )
    # ConstE
    phi, psi = d.formulas
    assert d.var is not None and d.const is not None
    if occurs_const(d.const, phi):
        raise fail(CONST_OCCURS, "constant occurs in the antecedent")
    if occurs_const(d.const, psi):
        raise fail(CONST_OCCURS, "constant occurs in the consequent")
    c = Const(d.const)
    if prem[0] != Sequent(sub(phi, d.var, c), sub(psi, d.var, c)):
        raise fail(PREMISE_MISMATCH, "premise is not the constant instance")
    return Sequent(phi, psi)


def load_reference(data: str | dict[str, Any]) -> LoadedProof:
    """Oracle for `load_proof`."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise ProofFormatError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ProofFormatError("proof file must be a JSON object")
    sig_obj = data.get("signature")
    if not isinstance(sig_obj, dict):
        raise ProofFormatError("missing or malformed 'signature'")
    constants = sig_obj.get("constants", [])
    predicates = sig_obj.get("predicates", {})
    if not isinstance(constants, list) or not isinstance(predicates, dict):
        raise ProofFormatError("malformed signature declarations")
    try:
        sig = Signature(frozenset(constants), {k: int(v) for k, v in predicates.items()})
    except (TypeError, ValueError) as e:
        raise ProofFormatError(str(e)) from e
    table = SymbolTable()
    d = _Loader(sig, table).node(data.get("proof"), ())
    return LoadedProof(sig, d, table)


def _where(at: tuple[int, ...]) -> str:
    return "proof" + "".join(f".premises[{i}]" for i in at)


class _Loader:
    """One proof file's nodes, parsing each distinct formula or term text
    once; nodes with the same text share one object."""

    def __init__(self, sig: Signature, table: SymbolTable):
        self.sig = sig
        self.table = table
        self.parsed: dict[tuple[Any, str], Any] = {}

    def param(self, params: dict[str, Any], key: str, rule: str, at: tuple[int, ...],
              parse: Any = None) -> Any:
        """Parameter `key` as a string, or as parsed by `parse` in the file's
        signature and table."""
        if key not in params:
            raise ProofFormatError(f"{_where(at)}: {rule} requires parameter {key!r}")
        text = params[key]
        if parse is None:
            return str(text)
        if not isinstance(text, str):
            raise ProofFormatError(f"{_where(at)}: parameter {key!r} must be a string")
        parsed = self.parsed.get((parse, text))
        if parsed is None:
            try:
                parsed = self.parsed[parse, text] = parse(text, self.sig, self.table)
            except syntax.ParseError as e:
                raise ProofFormatError(f"{_where(at)}: {e}") from e
        return parsed

    def node(self, obj: Any, at: tuple[int, ...]) -> Derivation:
        if not isinstance(obj, dict):
            raise ProofFormatError(f"{_where(at)}: expected an object")
        rule = obj.get("rule")
        if rule not in _RULES:
            raise ProofFormatError(f"{_where(at)}: unknown rule tag {rule!r}")
        _, f_names, extras = _RULES[rule]
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ProofFormatError(f"{_where(at)}: 'params' must be an object")
        formulas = tuple(
            self.param(params, name, rule, at, syntax.parse_formula) for name in f_names
        )
        var = self.table.intern(self.param(params, "x", rule, at)) if "var" in extras else None
        term = self.param(params, "t", rule, at, syntax.parse_term) if "term" in extras else None
        const = self.param(params, "c", rule, at) if "const" in extras else None
        raw_premises = obj.get("premises", [])
        if not isinstance(raw_premises, list):
            raise ProofFormatError(f"{_where(at)}: 'premises' must be a list")
        premises = tuple(self.node(p, at + (i,)) for i, p in enumerate(raw_premises))
        try:
            return Derivation(rule, formulas, var, term, const, premises)
        except ValueError as e:
            raise ProofFormatError(f"{_where(at)}: {e}") from e


# -- helpers only the tests use ----------------------------------------


def parse_signature(text: str) -> Signature:
    """Parse a text consisting only of `const`/`pred` declarations."""
    p = syntax._Parser(text, None, SymbolTable())
    sig = p.declarations()
    p.expect_end()
    return sig


def random_signature(
    rng: random.Random,
    max_constants: int = 2,
    max_predicates: int = 2,
    max_arity: int = 2,
) -> Signature:
    """Small random signature drawn from fixed name pools."""
    consts = ["c", "d", "e", "f"][: rng.randint(0, max_constants)]
    names = ["P", "Q", "R", "S"][: rng.randint(1, max_predicates)]
    preds = {name: rng.randint(1, max_arity) for name in names}
    return Signature(frozenset(consts), preds)


def xaltern(
    g: Assignment, h: Assignment, gamma: frozenset[int] | set[int], probe: Iterable[int]
) -> bool:
    """Agreement on every probed variable outside gamma.

    The probe must cover all variables the caller cares about; use
    `xaltern_support` for the full extensional check.
    """
    return all(g(x) == h(x) for x in probe if x not in gamma)
