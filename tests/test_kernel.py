"""The explicit-stack loader and kernel, and `check_proof`, which runs the
kernel as the loader reads: agreement with the recursive references they
replaced, sharing of repeated subproofs, depth, and the pause of the
cyclic garbage collector."""

import gc
import json
import random
import time
from types import MappingProxyType

import pytest

from qrc1 import (
    TOP,
    All,
    And,
    CheckError,
    Const,
    Diam,
    Pred,
    ProofFormatError,
    Sequent,
    SymbolTable,
    Var,
    all_instantiate,
    and_intro,
    ax_refl,
    ax_top,
    calculus,
    check,
    check_proof,
    conclusion,
    cut,
    dump_proof,
    format_sequent,
    generalize_constant,
    instantiate_consequent,
    load_proof,
    nec,
    parse_sequent,
    proof_search,
    signature,
    used_signature,
    well_formed,
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
    # and proofs with the TermI and ConstE nodes that search does not write:
    # A x . P(x) ~> P(c), and A x . P(x) ~> A y . P(y) through P(c)
    table = SymbolTable()
    x, y = table.intern("x"), table.intern("y")
    all_p = All(x, Pred("P", (Var(x),)))
    to_c = instantiate_consequent(all_instantiate(Pred("P", (Var(x),)), x, Var(y)), y, Const("c"))
    found += [(SIG, to_c), (SIG, generalize_constant(to_c, y, "c")),
              (SIG, and_intro(to_c, ax_refl(all_p)))]
    return found


def _documents():
    """Each found proof, and each one repeated under both premises of an
    `AndI`, as proof-file documents."""
    docs = []
    for sig, d in _found_proofs():
        docs.append(dump_proof(d, sig))
        docs.append(dump_proof(and_intro(d, d), sig))
    return docs


def _places(doc):
    """(container, key) for each node of `doc`, a parent before its
    premises: the node is `container[key]`."""
    stack = [(doc, "proof")]
    while stack:
        container, key = stack.pop()
        yield container, key
        premises = container[key]["premises"]
        stack.extend((premises, j) for j in range(len(premises)))


def _nodes(doc):
    for container, key in _places(doc):
        yield container[key]


_DROP = object()  # an edit's value that deletes the key


def _edits(doc):
    """(node index, key, value) for each way to change one node: its rule,
    a parameter, its params or premises replaced or dropped, or the whole
    node replaced (key None) by something that is not an object."""
    for i, node in enumerate(_nodes(doc)):
        params = node["params"]
        yield i, "rule", "Bogus"
        yield i, None, node["rule"]
        yield i, "params", list(params.values())
        yield i, "premises", {}
        if not params:
            yield i, "params", _DROP
        if not node["premises"]:
            yield i, "premises", _DROP
        if "phi" in params:
            yield i, "phi", params["phi"] + " & T"
        for key in ("phi", "psi", "t"):
            if key in params:
                yield i, key, 7
                break
        if "x" in params:
            yield i, "x", [params["x"]]
        if "c" in params:
            yield i, "c", "T"
        if node["premises"]:
            yield i, "premises", node["premises"][:-1]


def _corrupted(doc, edits):
    """A copy of `doc` with `edits` made, each to the node it names in `doc`
    (an edit inside premises that another edit drops is lost).  Copied
    through JSON text, so that, as in a proof file, every occurrence of a
    node that `dump_proof` shares is an object of its own."""
    bad = json.loads(json.dumps(doc))
    places = list(_places(bad))
    nodes = [container[key] for container, key in places]
    for i, key, value in edits:
        if key is None:
            container, at = places[i]
            container[at] = value
            continue
        target = nodes[i] if key in ("rule", "params", "premises") else nodes[i]["params"]
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
    return bad


def _corruptions(doc):
    """Every copy of `doc` with one node changed in one of the ways of
    `_edits`."""
    for edit in _edits(doc):
        yield _corrupted(doc, [edit])


def _outcome(doc):
    """What `load_proof` then `check` make of `doc`, after asserting that the
    recursive references and the one-pass `check_proof` make the same."""
    outcomes = []
    for load, check_fn in ((load_proof, check), (load_reference, check_reference)):
        try:
            loaded = load(doc)
        except ProofFormatError as e:
            outcomes.append(("format", str(e)))
            continue
        try:
            seq = check_fn(loaded.derivation, loaded.sig)
        except CheckError as e:
            outcomes.append(("check", e.path, e.rule, e.reason, e.detail))
            continue
        outcomes.append(("ok", format_sequent(seq, loaded.table, loaded.sig)))
    try:
        checked = check_proof(doc)
    except ProofFormatError as e:
        outcomes.append(("format", str(e)))
    else:
        e = checked.error
        outcomes.append(("ok", format_sequent(checked.sequent, checked.table, checked.sig))
                        if e is None else ("check", e.path, e.rule, e.reason, e.detail))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    return outcomes[0]


@pytest.fixture(scope="module")
def documents():
    return _documents()


def test_loader_and_kernel_agree_with_the_references(documents):
    outcomes = set()
    for doc in documents:
        for case in (doc, *_corruptions(doc)):
            outcomes.add(_outcome(case)[0])
    assert outcomes == {"format", "check", "ok"}


def test_two_faults_agree_with_the_references(documents):
    """Two nodes changed: whichever error comes first, a format error
    anywhere wins over a kernel error, and of two kernel errors the first
    in post-order is the one reported."""
    rng = random.Random(3)
    outcomes = set()
    for doc in documents:
        edits = list(_edits(doc))
        for _ in range(6):
            first, second = rng.sample(edits, 2)
            if first[0] != second[0]:
                outcomes.add(_outcome(_corrupted(doc, [first, second]))[0])
    assert outcomes == {"format", "check", "ok"}


def _refl(phi):
    return {"rule": "Refl", "params": {"phi": phi}, "premises": []}


# a subproof that loads, and that the kernel rejects at its root
NOT_FRESH = {"rule": "AllIr", "params": {"x": "x"}, "premises": [_refl("P(x)")]}


def _file(proof):
    return {"signature": {"constants": ["c"], "predicates": {"P": 1}}, "proof": proof}


@pytest.mark.parametrize("later", [
    ({"rule": "Bogus"}, "proof.premises[1]: unknown rule tag 'Bogus'"),
    ({"rule": "Nec", "params": {}, "premises": []},
     "proof.premises[1]: Nec takes 1 premise(s), got 0"),
    ({"rule": "Nec", "params": {}, "premises": [_refl("P(")]},
     "proof.premises[1].premises[0]: expected a term (at offset 2)"),
])
def test_a_format_error_after_a_kernel_fault_wins(later):
    node, message = later
    doc = _file({"rule": "Cut", "params": {}, "premises": [NOT_FRESH, node]})
    assert _outcome(doc) == ("format", message)


def test_of_two_kernel_faults_the_first_in_post_order_is_reported():
    # the left premise fails at its own root, after its premises, which
    # check; the right one fails deeper, but later in post-order
    mismatch = {"rule": "AndI", "params": {}, "premises": [_refl("P(c)"), _refl("T")]}
    doc = _file({"rule": "AndI", "params": {}, "premises": [
        mismatch, {"rule": "Nec", "params": {}, "premises": [NOT_FRESH]}]})
    assert _outcome(doc) == ("check", (0,), "AndI", "premise-mismatch",
                             "premises have different antecedents")
    # a node that fails and has a failing premise: the premise comes first
    doc = _file({"rule": "AndI", "params": {}, "premises": [
        {"rule": "Nec", "params": {}, "premises": [NOT_FRESH]}, _refl("P(c)")]})
    assert _outcome(doc) == ("check", (0, 0), "AllIr", "var-not-fresh",
                             "quantified variable free in the antecedent")


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
    error = check_proof(dump_proof(d, SIG)).error
    assert (error.path, error.rule) == ((0, 1), "AndI")
    # the same subproof, failing under both premises of its parent
    doc = dump_proof(nec(and_intro(bad, bad)), SIG)
    with pytest.raises(CheckError) as e:
        check(load_proof(doc).derivation, SIG)
    assert e.value.path == (0, 0)
    assert check_proof(doc).error.path == (0, 0)


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
    # written out in full, 2**11 - 1 nodes, read and concluded in one pass
    d = ax_refl(TOP)
    for _ in range(10):
        d = and_intro(d, d)
    calls = 0
    checked = check_proof(dump_proof(d, SIG))
    assert (calls, checked.nodes, checked.depth) == (11, 2**11 - 1, 11)


def test_every_walk_over_a_derivation_visits_each_distinct_node_once(monkeypatch):
    calls = {"_conclude": 0, "consts_of": 0, "format_formula": 0}
    for module, name in ((calculus, "_conclude"), (calculus, "consts_of"),
                         (calculus.syntax, "format_formula")):
        def counting(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counting)
    # 2**13 - 1 occurrences of 13 distinct nodes, with one parameter formula
    d = ax_refl(Pred("P", (Const("c"),)))
    for _ in range(12):
        d = and_intro(d, d)
    check(d, SIG)
    conclusion(d)
    assert used_signature(SIG, d) is SIG
    doc = dump_proof(d, SIG)
    assert calls == {"_conclude": 26, "consts_of": 1, "format_formula": 1}
    # each distinct node is written once, and every occurrence shares it
    assert doc["proof"]["premises"][0] is doc["proof"]["premises"][1]
    assert load_proof(json.loads(json.dumps(doc))).derivation == d
    # at 40 levels, 2**41 - 1 occurrences
    for _ in range(28):
        d = and_intro(d, d)
    for reader in (lambda: check(d, SIG), lambda: conclusion(d),
                   lambda: used_signature(SIG, d), lambda: dump_proof(d, SIG), lambda: hash(d)):
        started = time.perf_counter()
        reader()
        assert time.perf_counter() - started < 0.1


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


def test_a_deep_parameter_formula_checks_without_recursion():
    # well-formedness walks the formula on an explicit stack
    phi, bad = TOP, Pred("Unknown", ())
    for _ in range(10_000):
        phi, bad = Diam(phi), Diam(bad)
    assert well_formed(phi, SIG) and not well_formed(bad, SIG)
    seq = check(ax_refl(phi), SIG)
    assert seq.ante is phi and seq.cons is phi


def test_a_deep_chain_loads_from_a_dict_without_recursion():
    node = {"rule": "Refl", "params": {"phi": "T"}, "premises": []}
    for _ in range(DEEP):
        node = {"rule": "Nec", "params": {}, "premises": [node]}
    doc = {"signature": {"constants": [], "predicates": {}}, "proof": node}
    loaded = load_proof(doc)
    _assert_deep_conclusion(check(loaded.derivation, loaded.sig))
    checked = check_proof(doc)
    _assert_deep_conclusion(checked.sequent)
    assert checked.nodes == checked.depth == DEEP + 1


def test_the_collector_state_is_restored():
    good = ax_refl(TOP)
    bad = and_intro(ax_refl(TOP), ax_top(Pred("P", (Var(0),))))
    runs = [
        (lambda: check(good, SIG), None),
        (lambda: conclusion(good), None),
        (lambda: load_proof(dump_proof(good, SIG)), None),
        (lambda: check_proof(dump_proof(good, SIG)), None),
        (lambda: check_proof(dump_proof(bad, SIG)), None),
        (lambda: check_proof("{"), ProofFormatError),
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
    for read in (load_proof, check_proof):
        with pytest.raises(ProofFormatError) as e:
            read(_with_x(value))
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
    for read in (load_proof, check_proof):
        with pytest.raises(ProofFormatError) as e:
            read(_with_c(value))
        assert str(e.value) == "proof: parameter 'c' must be a constant name"


def test_a_constant_name_loads_and_an_undeclared_one_is_ill_formed():
    loaded = load_proof(_with_c("k"))
    seq = check(loaded.derivation, loaded.sig)
    assert format_sequent(seq, loaded.table, loaded.sig) == "P(x) ~> P(x)"
    checked = check_proof(_with_c("k"))
    assert format_sequent(checked.sequent, checked.table, checked.sig) == "P(x) ~> P(x)"
    # `check_proof` trusts the parser for formulas and terms, but reads `c`
    # as a bare name, so it still checks it against the signature
    loaded = load_proof(_with_c("j"))
    with pytest.raises(CheckError) as e:
        check(loaded.derivation, loaded.sig)
    error = check_proof(_with_c("j")).error
    for e in (e.value, error):
        assert (e.path, e.rule, e.reason, e.detail) == (
            (), "ConstE", "ill-formed", "undeclared constant 'j'")


def test_a_mapping_that_is_not_a_dict_is_not_an_object():
    # as JSON decodes it, an object is a dict; a read-only view of one is not
    leaf = {"rule": "Refl", "params": {"phi": "T"}, "premises": []}
    for premise, message in [
        (MappingProxyType(leaf), "expected an object"),
        ({**leaf, "params": MappingProxyType(leaf["params"])}, "'params' must be an object"),
    ]:
        doc = _file({"rule": "AndI", "params": {}, "premises": [leaf, premise]})
        assert _outcome(doc) == ("format", f"proof.premises[1]: {message}")


def test_a_rule_tag_that_is_not_a_string_is_a_format_error():
    for rule in ([], {}, 3, None):
        with pytest.raises(ProofFormatError) as e:
            load_proof({"signature": {}, "proof": {"rule": rule}})
        assert str(e.value) == f"proof: unknown rule tag {rule!r}"
