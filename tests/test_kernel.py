"""The explicit-stack loader and kernel: agreement with the recursive
references they replaced, sharing of repeated subproofs, depth, and the
pause of the cyclic garbage collector."""

import copy
import gc
import random

import pytest

from qrc1 import (
    TOP,
    And,
    CheckError,
    Diam,
    Pred,
    ProofFormatError,
    Sequent,
    SymbolTable,
    Var,
    and_intro,
    ax_refl,
    ax_top,
    calculus,
    check,
    conclusion,
    cut,
    dump_proof,
    format_sequent,
    load_proof,
    nec,
    parse_sequent,
    proof_search,
    signature,
    used_signature,
)
from qrc1.generate import random_formula
from qrc1.search import SearchBounds

from conftest import BATTERY, BATTERY_SIG, SIG, check_reference, load_reference

BOUNDS = SearchBounds(max_worlds=2, max_domain=2, max_proof_depth=5)


def _found_proofs():
    """(signature, derivation) for what proof search proves among `BATTERY`
    and 150 random sequents."""
    goals = [(BATTERY_SIG, parse_sequent(text, BATTERY_SIG)) for text, _ in BATTERY]
    sig = signature(["c"], {"P": 1, "Q": 1})
    rng = random.Random(7)
    for _ in range(150):
        ante = random_formula(rng, sig, (0, 1), rng.randint(0, 3))
        cons = random_formula(rng, sig, (0, 1), rng.randint(0, 3))
        goals.append((sig, Sequent(ante, cons)))
    found = []
    for sig, goal in goals:
        d = proof_search(goal, sig, BOUNDS)
        if d is not None:
            found.append((used_signature(sig, d), d))
    return found


def _documents():
    """Each found proof, and each one repeated under both premises of an
    `AndI`, as proof-file documents."""
    docs = []
    for sig, d in _found_proofs():
        docs.append(dump_proof(d, sig))
        docs.append(dump_proof(and_intro(d, d), sig))
    return docs


def _nodes(doc):
    stack = [doc["proof"]]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node["premises"])


def _corruptions(doc):
    """Every copy of `doc` with one node changed in one of four ways."""
    for i, node in enumerate(_nodes(doc)):
        edits = [("rule", "Bogus")]
        if "phi" in node["params"]:
            edits.append(("phi", node["params"]["phi"] + " & T"))
        for key in ("phi", "psi", "t"):
            if key in node["params"]:
                edits.append((key, 7))
                break
        if node["premises"]:
            edits.append(("premises", node["premises"][:-1]))
        for key, value in edits:
            bad = copy.deepcopy(doc)
            target = next(n for j, n in enumerate(_nodes(bad)) if j == i)
            if key in ("rule", "premises"):
                target[key] = value
            else:
                target["params"][key] = value
            yield bad


def _outcome(load, check_fn, doc):
    try:
        loaded = load(doc)
    except ProofFormatError as e:
        return "format", str(e)
    try:
        seq = check_fn(loaded.derivation, loaded.sig)
    except CheckError as e:
        return "check", e.path, e.rule, e.reason, e.detail
    return "ok", format_sequent(seq, loaded.table, loaded.sig)


@pytest.fixture(scope="module")
def documents():
    return _documents()


def test_loader_and_kernel_agree_with_the_references(documents):
    outcomes = set()
    for doc in documents:
        for case in (doc, *_corruptions(doc)):
            new = _outcome(load_proof, check, case)
            assert new == _outcome(load_reference, check_reference, case)
            outcomes.add(new[0])
    assert outcomes == {"format", "check", "ok"}


def test_conclusion_agrees_with_the_reference(documents):
    for doc in documents:
        loaded = load_proof(doc)
        assert conclusion(loaded.derivation) == check_reference(loaded.derivation, None)


def test_a_repeated_subproof_loads_as_one_object():
    table = SymbolTable()
    p = Pred("P", (Var(table.intern("x")),))
    # two equal subproofs, built apart and written out twice in the file
    tree = and_intro(cut(ax_refl(p), ax_top(p)), cut(ax_refl(p), ax_top(p)))
    d = load_proof(dump_proof(tree, SIG, table)).derivation
    assert d.premises[0] is d.premises[1]
    assert check(d, SIG) == Sequent(p, And(TOP, TOP))


def test_a_repeated_failing_subproof_fails_at_its_first_occurrence():
    bad = and_intro(ax_refl(TOP), ax_top(Pred("P", (Var(0),))))  # fails at its root
    d = cut(and_intro(ax_refl(TOP), bad), bad)
    for tree in (d, load_proof(dump_proof(d, SIG)).derivation):
        with pytest.raises(CheckError) as e:
            check(tree, SIG)
        assert (e.value.path, e.value.rule) == ((0, 1), "AndI")
    # the same subproof, failing under both premises of its parent
    with pytest.raises(CheckError) as e:
        check(load_proof(dump_proof(nec(and_intro(bad, bad)), SIG)).derivation, SIG)
    assert e.value.path == (0, 0)


def test_a_shared_node_is_concluded_once(monkeypatch):
    calls = 0
    original = calculus._conclude

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(calculus, "_conclude", counting)
    d = ax_refl(TOP)
    for _ in range(20):
        d = and_intro(d, d)
    seq = check(d, SIG)
    assert calls == 21  # not 2**21 - 1
    assert seq.ante == TOP
    cons = seq.cons
    for _ in range(20):  # one conjunction per level, its two sides one object
        assert cons.left is cons.right
        cons = cons.left
    assert cons == TOP


def _diamonds(phi):
    n = 0
    while isinstance(phi, Diam):
        phi, n = phi.body, n + 1
    return n, phi


DEEP = 100_000


def _assert_deep_conclusion(seq):
    # walked here: `==` and printing still recurse on formulas this deep
    assert _diamonds(seq.ante) == (DEEP, TOP)
    assert _diamonds(seq.cons) == (DEEP, TOP)


def test_a_deep_chain_checks_without_recursion():
    d = ax_refl(TOP)
    for _ in range(DEEP):
        d = nec(d)
    _assert_deep_conclusion(check(d, SIG))
    _assert_deep_conclusion(conclusion(d))


def test_a_deep_chain_loads_from_a_dict_without_recursion():
    node = {"rule": "Refl", "params": {"phi": "T"}, "premises": []}
    for _ in range(DEEP):
        node = {"rule": "Nec", "params": {}, "premises": [node]}
    loaded = load_proof({"signature": {"constants": [], "predicates": {}}, "proof": node})
    _assert_deep_conclusion(check(loaded.derivation, loaded.sig))


def test_the_collector_state_is_restored():
    good = ax_refl(TOP)
    bad = and_intro(ax_refl(TOP), ax_top(Pred("P", (Var(0),))))
    runs = [
        (lambda: check(good, SIG), None),
        (lambda: conclusion(good), None),
        (lambda: load_proof(dump_proof(good, SIG)), None),
        (lambda: check(bad, SIG), CheckError),
        (lambda: conclusion(bad), CheckError),
        (lambda: load_proof("{"), ProofFormatError),
        (lambda: load_proof({"signature": {}, "proof": {"rule": "Bogus"}}), ProofFormatError),
    ]
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            for run, error in runs:
                if enabled:
                    gc.enable()
                else:
                    gc.disable()
                if error is None:
                    run()
                else:
                    with pytest.raises(error):
                        run()
                assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()


def _with_x(value):
    return {
        "signature": {"constants": ["c"], "predicates": {"P": 1}},
        "proof": {"rule": "AllIr", "params": {"x": value}, "premises": [
            {"rule": "Top", "params": {"phi": "P(c)"}, "premises": []},
        ]},
    }


@pytest.mark.parametrize("value", [7, None, "T", "A", "x y", " x", "", "x.", ["x"]])
def test_the_variable_parameter_must_be_a_variable_name(value):
    with pytest.raises(ProofFormatError) as e:
        load_proof(_with_x(value))
    assert str(e.value) == "proof: parameter 'x' must be a variable name"


def test_a_variable_name_loads():
    for name in ("x", "y1", "_v"):
        loaded = load_proof(_with_x(name))
        seq = check(loaded.derivation, loaded.sig)
        assert format_sequent(seq, loaded.table, loaded.sig) == f"P(c) ~> A {name} . T"


def _with_c(value):
    return {
        "signature": {"constants": ["k"], "predicates": {"P": 1}},
        "proof": {"rule": "ConstE", "params": {"phi": "P(x)", "psi": "P(x)", "x": "x", "c": value},
                  "premises": [{"rule": "Refl", "params": {"phi": "P(k)"}, "premises": []}]},
    }


@pytest.mark.parametrize("value", [None, 7, "T", "x y", "", ["k"]])
def test_the_constant_parameter_must_be_a_constant_name(value):
    with pytest.raises(ProofFormatError) as e:
        load_proof(_with_c(value))
    assert str(e.value) == "proof: parameter 'c' must be a constant name"


def test_a_constant_name_loads_and_an_undeclared_one_is_ill_formed():
    loaded = load_proof(_with_c("k"))
    seq = check(loaded.derivation, loaded.sig)
    assert format_sequent(seq, loaded.table, loaded.sig) == "P(x) ~> P(x)"
    loaded = load_proof(_with_c("j"))
    with pytest.raises(CheckError) as e:
        check(loaded.derivation, loaded.sig)
    assert e.value.detail == "undeclared constant 'j'"


def test_a_rule_tag_that_is_not_a_string_is_a_format_error():
    for rule in ([], {}, 3, None):
        with pytest.raises(ProofFormatError) as e:
            load_proof({"signature": {}, "proof": {"rule": rule}})
        assert str(e.value) == f"proof: unknown rule tag {rule!r}"
