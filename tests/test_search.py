import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from itertools import islice

import pytest

from conftest import (
    BATTERY, BATTERY_SIG, MANY_VARIABLES, candidates_reference, identity_eta, small_formulas,
)

import qrc1
from qrc1 import (
    And,
    Assignment,
    Diam,
    Exhausted,
    InternalError,
    Pred,
    Proved,
    RawFrame,
    RawModel,
    Refuted,
    SearchBounds,
    Sequent,
    TOP,
    Var,
    ax_refl,
    ax_trans,
    check,
    check_adequacy,
    conclusion,
    decide,
    dump_model,
    dump_proof,
    enumerate_countermodels,
    parse_problem,
    parse_sequent,
    proof_search,
    refute,
    sat,
    signature,
    soundness_check,
    used_signature,
    validate_model,
)
from qrc1.generate import GenBounds, generate_models, random_formula
from qrc1.search import (
    _Deadline,
    _ProofSearch,
    _axiom_leaf,
    _clears,
    _first_countermodel,
    _names,
    _no_countermodel,
    _one_apart,
    _tree,
    _verify_refutation,
)

SIG = signature(["c"], {"P": 1, "Q": 1})
X = 0


def P(t):
    return Pred("P", (t,))


def seq(text):
    return parse_sequent(text, SIG)


# -- soundness harness --------------------------------------------------


def test_soundness_of_the_transitivity_axiom():
    models = islice(generate_models(SIG, GenBounds(4, 3), seed=100), 150)
    assert soundness_check(conclusion(ax_trans(P(Var(X)))), models) is None


def test_soundness_of_reflexivity():
    models = islice(generate_models(SIG, GenBounds(4, 3), seed=101), 150)
    assert soundness_check(conclusion(ax_refl(And(P(Var(X)), TOP))), models) is None


def test_soundness_check_reports_genuine_failures():
    # no rule proves T ~> <> T; it fails exactly at a world with no successor
    models = islice(generate_models(SIG, GenBounds(2, 2), seed=7), 50)
    hit = soundness_check(seq("T ~> <> T"), models)
    assert hit is not None
    model, world, _ = hit
    assert all(a != world for a, _ in model.frame.rel)


# -- countermodel enumeration --------------------------------------------


def test_top_diamond_top_has_the_minimal_countermodel():
    hit = enumerate_countermodels(SIG, seq("T ~> <> T"), SearchBounds())
    assert hit is not None
    model, world, g = hit
    assert model.frame.worlds == 1
    assert model.frame.rel == frozenset()
    assert model.frame.domains == (1,)
    assert world == 0


def test_axiom_instances_have_no_countermodel():
    bounds = SearchBounds(max_worlds=4, max_domain=3, deadline=0.2)
    assert enumerate_countermodels(SIG, seq("<> <> P(x) ~> <> P(x)"), bounds) is None


def test_diamond_introduction_needs_two_worlds():
    hit = enumerate_countermodels(SIG, seq("<> P(x) ~> <> <> P(x)"), SearchBounds())
    assert hit is not None
    model, world, g = hit
    assert model.frame.worlds == 2
    assert model.frame.rel == frozenset({(0, 1)})
    assert world == 0
    # P holds somewhere at the successor, nowhere two steps out
    assert sat(model, world, g, Diam(P(Var(X))))
    assert not sat(model, world, g, Diam(Diam(P(Var(X)))))


def test_countermodels_are_within_the_required_class():
    for text in ("T ~> <> T", "<> P(x) ~> <> <> P(x)", "P(x) ~> Q(x)"):
        hit = enumerate_countermodels(SIG, seq(text), SearchBounds())
        assert hit is not None
        model, world, g = hit
        report = check_adequacy(model)
        assert report.ok
        assert all(a != b for (a, b) in model.frame.rel)  # irreflexive
        assert len(set(model.frame.domains)) == 1  # constant domain
        ident = tuple(range(model.frame.domains[0]))
        assert all(row == ident for block in model.frame.eta for row in block)
        s = seq(text)
        assert sat(model, world, g, s.ante) and not sat(model, world, g, s.cons)


@pytest.mark.parametrize("frame, p_holds, why", [
    # a reflexive edge
    (RawFrame(1, frozenset({(0, 0)}), (1,), identity_eta((1,))), False, "not irreflexive"),
    # domains of one and two elements
    (RawFrame(2, frozenset(), (1, 2), (((0,), (0,)), ((0, 0), (0, 1)))), False,
     "not constant domain"),
    # an edge whose eta row swaps the two elements
    (RawFrame(2, frozenset({(0, 1)}), (2, 2), (((0, 1), (1, 0)), ((0, 1), (0, 1)))), False,
     "eta is not the identity"),
    # P(x) holds at the world, so the consequent does too
    (RawFrame(1, frozenset(), (1,), identity_eta((1,))), True, "does not refute"),
], ids=["reflexive-edge", "unequal-domains", "swapped-eta-row", "consequent-holds"])
def test_verify_refutation_rejects_a_bad_witness(frame, p_holds, why):
    # each witness is adequate and has this one defect alone, so only the
    # check that names it can reject it
    sig = signature([], {"P": 1})
    goal = parse_sequent("T ~> P(x)", sig)
    preds = [{"P": frozenset()} for _ in range(frame.worlds)]
    if p_holds:
        preds[0]["P"] = frozenset({(0,)})
    model = validate_model(RawModel(sig, frame, ({},) * frame.worlds, tuple(preds)))
    with pytest.raises(InternalError, match=why):
        _verify_refutation(model, 0, Assignment(0, 0), goal)


def test_side_conditions_guard_real_unsoundness():
    # the sequents a side-condition-free kernel would wrongly derive are
    # genuinely invalid: the countermodel search refutes them
    sig2 = signature([], {"P": 1, "S": 2})
    for text in (
        "P(x) ~> A x . P(x)",           # AllIr without freshness
        "A y . S(x, y) ~> A y . S(y, y)",  # AllIl/renaming without freefor
    ):
        hit = enumerate_countermodels(sig2, parse_sequent(text, sig2), SearchBounds())
        assert hit is not None, text


def test_enumeration_is_deterministic():
    a = enumerate_countermodels(SIG, seq("<> P(x) ~> <> <> P(x)"), SearchBounds())
    b = enumerate_countermodels(SIG, seq("<> P(x) ~> <> <> P(x)"), SearchBounds())
    assert dump_model(a[0]) == dump_model(b[0])
    assert (a[1], a[2]) == (b[1], b[2])


# -- proof search ----------------------------------------------------------


def test_anything_proves_top_at_depth_one():
    d = proof_search(seq("P(x) & Q(y) ~> T"), SIG, SearchBounds(max_proof_depth=1))
    assert d is not None
    assert d.rule == "Top"


def test_triple_diamond_collapse_found_and_rechecks():
    goal = seq("<> <> <> P(x) ~> <> P(x)")
    d = proof_search(goal, SIG, SearchBounds(max_proof_depth=4))
    assert d is not None
    assert check(d, SIG) == goal


def test_irreflexivity_goal_is_never_proved():
    bounds = SearchBounds(max_proof_depth=6)
    assert proof_search(seq("T ~> <> T"), SIG, bounds) is None
    # cross-validated by the countermodel above: the sequent is refutable


def test_proof_search_uses_instantiation_terms():
    goal = seq("A x . P(x) ~> P(c)")
    d = proof_search(goal, SIG, SearchBounds())
    assert d is not None and check(d, SIG) == goal


def test_proof_search_freezes_variables_with_reserved_constants():
    # the reserved names skip declared ones
    for sig, reserved in ((SIG, "k0"), (signature(["c", "k0"], {"P": 1, "Q": 1}), "k1")):
        goal = parse_sequent("A x . A y . (P(x) & T) ~> P(y)", sig)
        d = proof_search(goal, sig, SearchBounds())
        assert d is not None
        ext = used_signature(sig, d)
        assert ext.constants - sig.constants == {reserved}
        assert check(d, ext) == goal


def test_axiom_leaf_recognizers():
    p = P(Var(X))
    assert _axiom_leaf(p, TOP).rule == "Top"
    assert _axiom_leaf(p, p).rule == "Refl"
    assert _axiom_leaf(And(p, TOP), p).rule == "AndEl"
    assert _axiom_leaf(And(TOP, p), p).rule == "AndEr"
    assert _axiom_leaf(Diam(Diam(p)), Diam(p)).rule == "Trans"
    assert _axiom_leaf(Diam(p), Diam(Diam(p))) is None


# -- decide -----------------------------------------------------------------


def test_decide_proves_the_transitivity_instance():
    out = decide(seq("<> <> P(x) ~> <> P(x)"), SIG, SearchBounds())
    assert isinstance(out, Proved)
    assert check(out.derivation, SIG) == seq("<> <> P(x) ~> <> P(x)")


def test_decide_proves_universal_instantiation():
    out = decide(seq("A x . P(x) ~> P(c)"), SIG, SearchBounds())
    assert isinstance(out, Proved)


def test_decide_refutes_diamond_introduction():
    out = decide(seq("<> P(x) ~> <> <> P(x)"), SIG, SearchBounds())
    assert isinstance(out, Refuted)
    assert out.model.frame.worlds == 2


def test_decide_refutes_irreflexivity_quickly():
    out = decide(seq("T ~> <> T"), SIG, SearchBounds(max_worlds=2, max_domain=1))
    assert isinstance(out, Refuted)
    assert out.model.frame.worlds == 1
    assert out.model.frame.rel == frozenset()


def test_decide_reports_exhaustion_inside_too_small_bounds():
    out = decide(
        seq("<> P(x) ~> <> <> P(x)"),
        SIG,
        SearchBounds(max_worlds=1, max_domain=1, max_proof_depth=3),
    )
    assert isinstance(out, Exhausted)
    assert "1 world" in out.reason


# a deadline of 0.3 s must be met to within this slack
DEADLINE_SLACK = 0.1


@pytest.mark.parametrize("deadline", [0, -1.0, float("nan"), float("inf")])
def test_bounds_refuse_a_deadline_that_is_not_positive_and_finite(deadline):
    with pytest.raises(ValueError):
        SearchBounds(deadline=deadline)


def _elapsed(fn, *args):
    start = time.monotonic()
    out = fn(*args)
    return out, time.monotonic() - start


def test_enumeration_returns_at_the_deadline():
    # the antecedent needs a chain of six worlds, so its tree refutes the
    # sequent but the default four worlds hold no countermodel: exhausting
    # them takes seconds
    sig, goal = parse_problem("pred Q/1. <> <> <> <> <> T ~> Q(x)")
    out, took = _elapsed(enumerate_countermodels, sig, goal, SearchBounds(deadline=0.3))
    assert out is None
    assert took < 0.3 + DEADLINE_SLACK
    # the deadline, not the bounds, ended it
    assert refute(sig, goal, SearchBounds(deadline=0.3)) == Exhausted("deadline reached")


def test_decide_returns_at_the_deadline():
    # valid and past proof search's reach, and with 17 names the tree check
    # walks millions of valuations at domain 3
    sig, goal = parse_problem(MANY_VARIABLES)
    out, took = _elapsed(decide, goal, sig, SearchBounds(deadline=0.3))
    assert out == Exhausted("deadline reached")
    assert took < 0.3 + DEADLINE_SLACK


def test_decide_answers_a_valid_sequent_past_proof_search_by_bounds():
    # valid, but its proof cuts on <> <> Q(x), which is not a subformula, so
    # proof search fails in milliseconds; the antecedent's tree shows that
    # no countermodel exists, so decide does not wait for the deadline
    sig, goal = parse_problem("pred P/1. pred Q/1. <> (P(x) & <> Q(x)) ~> <> Q(x)")
    out, took = _elapsed(decide, goal, sig, SearchBounds(deadline=10.0))
    assert out == Exhausted(
        "no proof within depth 8 and no countermodel within 4 world(s) and 3 element(s)"
    )
    assert took < 0.1
    assert refute(sig, goal, SearchBounds(deadline=10.0)) == Exhausted(
        "no countermodel within bounds"
    )


def test_deadline_is_read_between_the_valuations_of_a_candidate():
    sig, goal = parse_problem(MANY_VARIABLES)
    bounds = SearchBounds(deadline=0.3)
    out, took = _elapsed(decide, goal, sig, bounds)
    assert out == Exhausted("deadline reached")
    assert took < 0.3 + DEADLINE_SLACK
    out, took = _elapsed(enumerate_countermodels, sig, goal, bounds)
    assert out is None
    assert took < 0.3 + DEADLINE_SLACK
    # the enumeration alone, past the tree check: one candidate at domain 2
    # has 2**16 valuations of its 17 names up to relabelling
    start = time.monotonic()
    with pytest.raises(_Deadline):
        _first_countermodel(sig, goal, bounds, start + 0.3)
    assert time.monotonic() - start < 0.3 + DEADLINE_SLACK


def test_decide_proves_a_sequent_with_many_names_before_the_full_tree_check():
    # provable at depth 2 (AndI over two Refl), and with 12 names the tree
    # check at three elements walks ~90k valuations, seconds of work on a
    # valid sequent: the root's two-element check builds 13 trees, and proof
    # search then proves it, so the full check never runs
    conj = " & ".join(f"R({v})" for v in "abcdefghijkl")
    sig, goal = parse_problem(f"pred R/1. {conj} ~> ({conj}) & ({conj})")
    out, took = _elapsed(decide, goal, sig, SearchBounds(deadline=0.3))
    assert isinstance(out, Proved)
    assert took < 0.3


def test_decide_stops_proof_search_once_the_tree_refutes():
    # the tree refutes it, so no proof exists, but its countermodel needs
    # three worlds: enumeration within two finds none, and no proof depth
    # runs after the verdict; both searches name the world bound as the cause
    sig, goal = parse_problem("pred P/2. <> <> T ~> A x . P(x, y)")
    bounds = SearchBounds(max_worlds=2, max_domain=1, max_proof_depth=10**6, deadline=5.0)
    out, took = _elapsed(decide, goal, sig, bounds)
    beyond = Exhausted(
        "refutable, but every countermodel with at most 1 element(s) needs more than 2 world(s)"
    )
    assert out == beyond
    assert took < 0.5
    assert refute(sig, goal, bounds) == beyond


def test_large_bounds_cost_nothing_up_front():
    # reserved constants are drawn as search needs them; building one per
    # depth, 10**6 of them, up front would take seconds and ~60 MB
    bounds = SearchBounds(max_proof_depth=10**6, deadline=0.2)
    for text in (
        "pred P/1. P(x) ~> <> P(x)",
        # valid and past proof search: every depth tries every fresh term
        "pred P/1. pred Q/1. A y . <> (P(x) & <> Q(x)) ~> <> Q(x)",
    ):
        sig, goal = parse_problem(text)
        tracemalloc.start()
        try:
            out, took = _elapsed(decide, goal, sig, bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert took < 0.2 + DEADLINE_SLACK, text
        assert peak < 4 << 20, text
    assert out == Exhausted("deadline reached")


def test_a_huge_domain_bound_costs_nothing_on_a_sequent_proved_first():
    # valid by AllIl; the root's two-element check clears it and proof
    # search proves it, so no tree with max_domain elements is built
    sig, goal = parse_problem("pred P/1. A x . P(x) ~> P(c)")
    tracemalloc.start()
    try:
        out, took = _elapsed(decide, goal, sig, SearchBounds(max_domain=10**9, deadline=0.25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(out, Proved)
    assert took < 0.25 + DEADLINE_SLACK
    assert peak < 4 << 20


@pytest.mark.parametrize("problem", [
    # proved at depth 1 (Top)
    "pred P/1. " + "".join(f"A a{i} . " for i in range(20)) + "P(a0) ~> T",
    # proved at depth 3 (AllIl, Nec, Top)
    "".join(f"A a{i} . <> " for i in range(20)) + "T ~> <> T",
], ids=["prefix", "diamonds"])
def test_decide_proves_a_long_quantifier_prefix_past_the_root_check(problem):
    # with every quantifier expanded over both elements, the antecedent's
    # two-element tree has 2^20 leaves and reaches a 1 s deadline, but no
    # quantifier after the first has its variable free in its body, and the
    # tree expands such a one once ([prefix] is an axiom instance, which
    # decide proves before it builds any tree)
    sig, goal = parse_problem(problem)
    out, took = _elapsed(decide, goal, sig, SearchBounds(deadline=0.25))
    assert isinstance(out, Proved)
    assert took < 0.25


# proved by Top at depth 1, but every quantifier binds a variable its
# body uses, so the root's two-element tree would walk 2^20 leaves
_NAMES20 = [f"a{i}" for i in range(20)]
_AXIOM20 = ("pred P/20. " + "".join(f"A {v} . " for v in _NAMES20)
            + f"P({', '.join(_NAMES20)}) ~> T")
_AXIOMS = ("P(x) ~> P(x)", "P(x) & Q(x) ~> Q(x)", "<> <> P(x) ~> <> P(x)")


def _no_tree(*args):
    raise AssertionError("a tree was built")


def test_decide_proves_an_axiom_instance_before_any_tree(monkeypatch):
    from qrc1 import search

    sig, goal = parse_problem(_AXIOM20)
    out, took = _elapsed(decide, goal, sig, SearchBounds(deadline=0.25))
    assert isinstance(out, Proved) and out.derivation.rule == "Top"
    assert took < 0.25 + DEADLINE_SLACK

    monkeypatch.setattr(search, "_no_countermodel", _no_tree)
    for text in _AXIOMS:
        assert isinstance(decide(seq(text), SIG), Proved), text


def test_refute_answers_an_axiom_instance_before_any_tree(monkeypatch):
    # by soundness an axiom instance has no countermodel
    from qrc1 import search

    monkeypatch.setattr(search, "_no_countermodel", _no_tree)
    none = Exhausted("no countermodel within bounds")
    sig, goal = parse_problem(_AXIOM20)
    out, took = _elapsed(refute, sig, goal, SearchBounds(deadline=0.25))
    assert out == none
    assert took < 0.25 + DEADLINE_SLACK
    for text in _AXIOMS:
        assert refute(SIG, seq(text)) == none, text


@pytest.mark.parametrize("command", ["decide", "refute"])
def test_the_refutation_step_at_a_huge_domain_bound(command):
    # the root's two-element tree refutes both sequents.  The first needs
    # two worlds, so enumeration walks every domain size at one world first
    # and meets the deadline; the second has a one-world countermodel
    bounds = SearchBounds(max_domain=10**9, deadline=0.25)

    def outcome(problem):
        sig, goal = parse_problem(problem)
        return decide(goal, sig, bounds) if command == "decide" else refute(sig, goal, bounds)

    tracemalloc.start()
    try:
        out, took = _elapsed(outcome, "pred P/1. <> P(x) ~> <> <> P(x)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == Exhausted("deadline reached")
    assert took < 0.25 + DEADLINE_SLACK
    assert peak < 4 << 20
    assert isinstance(outcome("pred S/2. S(x, y) ~> S(y, x)"), Refuted)


_NAMES = "abcdefghijkl"


@pytest.mark.parametrize("problem, max_domain", [
    # at domain 3, 3^12 evaluations of a 12-atom conjunction
    ("pred P/1. A x . P(x) ~> " + "".join(f"A {v} . " for v in _NAMES)
     + f"({' & '.join(f'P({v})' for v in _NAMES)})", 3),
    # one quantifier over 10^7 elements, none of which changes its body
    ("pred P/1. P(c) ~> A y . P(c)", 10**7),
], ids=["nested", "wide"])
def test_a_quantifier_of_the_consequent_reads_the_deadline(problem, max_domain):
    # the consequent holds at the root of every tree, and evaluating it
    # takes seconds with no diamond and no tree node in between
    sig, goal = parse_problem(problem)
    out, took = _elapsed(refute, sig, goal, SearchBounds(max_domain=max_domain, deadline=0.25))
    assert out == Exhausted("deadline reached")
    assert took < 0.25 + DEADLINE_SLACK


def test_decide_output_does_not_depend_on_the_hash_seed():
    # formulas store their hash; set and dict order must still never
    # reach a certificate
    src = os.path.dirname(os.path.dirname(qrc1.__file__))
    header = "const c. pred P/1. pred Q/1. pred S/2. "
    code = (
        "import sys\n"
        "from qrc1.cli import main\n"
        "for text in sys.argv[1:]:\n"
        "    main(['decide', text, '--json'])\n"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", code, *(header + text for text, _ in BATTERY)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        for seed in ("1", "2")
    ]
    for proc in outs:
        assert proc.returncode == 0, proc.stderr
    lines = outs[0].stdout.splitlines()
    assert [json.loads(line)["outcome"] for line in lines] == [
        expected.__name__ for _, expected in BATTERY
    ]
    assert outs[1].stdout == outs[0].stdout


def _run_capped(argv, cap):
    src = os.path.dirname(os.path.dirname(qrc1.__file__))
    return subprocess.run(
        [sys.executable, "-m", "qrc1.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        capture_output=True,
        text=True,
        timeout=30,
    )


@pytest.mark.parametrize("problem, flags, cap", [
    # the antecedent's tree at domain 3 has ~7M worlds, each leaf asserting
    # its own atom; with one bitmask of its ancestors per world, or one
    # bitmask of its worlds per atom, the part built in a second takes
    # ~0.5 GB and exits 70 under the 256 MiB cap, where a parent index per
    # world and a list of worlds per atom take ~70 MB.  The atom names every
    # variable, so no quantifier is expanded only once.  The consequent
    # holds at the root of every tree, so the check runs on
    ("pred R/14. " + "".join(f"A {v} . <> " for v in "abcdefghijklmn")
     + "R(a, b, c, d, e, f, g, h, i, j, k, l, m, n) ~> <> T", [], 1 << 28),
    # at 10^9 elements, the antecedent's quantifier expanded all at once
    # asks for 10^9 stack entries and exits 70 under the 1 GiB cap
    ("pred P/1. A x . P(x) ~> P(c)", ["--max-domain", "1000000000"], 1 << 30),
    # the antecedent's tree, a chain of six worlds, refutes the sequent, so
    # enumeration runs, and meets the deadline long before it reaches six
    # worlds; nothing the size of the 10^9 world bound is built up front
    ("pred P/1. <> <> <> <> <> P(x) ~> <> <> <> <> <> <> P(x)",
     ["--max-worlds", "1000000000"], 1 << 28),
    # enumeration reaches P/24 at one world and two elements, 2**24 table
    # entries; laid out up front they exit 70 under the 256 MiB cap, and
    # listed as the counter first flips them they take nothing
    ("pred P/24. <> P(" + ", ".join(["x"] * 24) + ") ~> <> <> P(" + ", ".join(["x"] * 24) + ")",
     [], 1 << 28),
], ids=["leaf-atoms", "huge-domain", "huge-worlds", "huge-arity"])
def test_tree_check_meets_its_deadline_under_a_memory_cap(problem, flags, cap):
    argv = ["countermodel", problem, "--json", "--timeout", "1.0", *flags]
    start = time.monotonic()
    proc = _run_capped(argv, cap)
    took = time.monotonic() - start
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {"found": False, "reason": "deadline reached"}
    assert took < 2.0


def test_decide_meets_its_deadline_under_a_memory_cap():
    # R/3 at domain 3 has 2**27 tables per world; a regression that builds
    # their range runs out of the 1 GiB cap and exits 70 instead of taking 5 GB
    problem = "pred S/2. pred R/3. <> A y . A z . R(x,y,z) ~> <> R(x,x,x) & <> A y . S(y,y)"
    argv = ["decide", problem, "--json", "--timeout", "0.5", "--max-worlds", "4", "--max-domain", "3"]
    start = time.monotonic()
    proc = _run_capped(argv, 1 << 30)
    took = time.monotonic() - start
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {"outcome": "Exhausted", "reason": "deadline reached"}
    assert took < 1.5


def test_decide_is_deterministic():
    bounds = SearchBounds()
    first = decide(seq("<> P(x) ~> <> <> P(x)"), SIG, bounds)
    second = decide(seq("<> P(x) ~> <> <> P(x)"), SIG, bounds)
    assert isinstance(first, Refuted) and isinstance(second, Refuted)
    assert dump_model(first.model) == dump_model(second.model)
    assert first.world == second.world
    assert first.assignment == second.assignment


def test_proved_outcomes_dump_with_reserved_constants_declared():
    from qrc1 import load_proof

    goal = seq("P(x) ~> A x . T")
    out = decide(goal, SIG, SearchBounds())
    assert isinstance(out, Proved)
    doc = dump_proof(out.derivation, used_signature(SIG, out.derivation))
    loaded = load_proof(doc)
    assert check(loaded.derivation, loaded.sig) is not None


def test_decide_battery_of_valid_and_invalid_sequents():
    bounds = SearchBounds(max_worlds=4, max_domain=3, max_proof_depth=8)
    for text, expected in BATTERY:
        goal = parse_sequent(text, BATTERY_SIG)
        out = decide(goal, BATTERY_SIG, bounds)
        assert isinstance(out, expected), f"{text}: got {type(out).__name__}"


def test_decide_returns_what_its_two_halves_return():
    # without a deadline the order of the steps changes no certificate: Proved is
    # proof_search's derivation and Refuted the enumeration's first hit
    bounds = SearchBounds(max_worlds=2, max_domain=2, max_proof_depth=4)
    goals = [(BATTERY_SIG, parse_sequent(text, BATTERY_SIG)) for text, _ in BATTERY]
    goals.append(parse_problem("pred P/1. pred Q/1. <> (P(x) & <> Q(x)) ~> <> Q(x)"))
    sig = signature(["c"], {"P": 1, "Q": 1})
    rng = random.Random(5)
    for _ in range(100):
        ante = random_formula(rng, sig, (0, 1), rng.randint(0, 3))
        cons = random_formula(rng, sig, (0, 1), rng.randint(0, 3))
        goals.append((sig, Sequent(ante, cons)))
    seen = set()
    for sig, goal in goals:
        out = decide(goal, sig, bounds)
        proof = proof_search(goal, sig, bounds)
        hit = enumerate_countermodels(sig, goal, bounds)
        seen.add(type(out))
        if isinstance(out, Proved):
            assert proof is not None, goal
            assert dump_proof(out.derivation, used_signature(sig, out.derivation)) == dump_proof(
                proof, used_signature(sig, proof)
            ), goal
        elif isinstance(out, Refuted):
            assert hit is not None, goal
            assert dump_model(out.model) == dump_model(hit[0]), goal
            assert out.world == hit[1], goal
            assert out.assignment.default == hit[2].default, goal
            assert dict(out.assignment.overrides) == dict(hit[2].overrides), goal
        else:
            assert proof is None and hit is None, goal
            # a tree that refutes makes both name the world bound as the cause
            too_few_worlds = out.reason.startswith("refutable")
            assert refute(sig, goal, bounds) == (
                out if too_few_worlds else Exhausted("no countermodel within bounds")), goal
    assert seen == {Proved, Refuted, Exhausted}


def test_decide_never_enumerates_a_sequent_the_tree_clears(monkeypatch):
    # proved at depth 2 (Nec over AndEl); the tree check clears the sequent,
    # so countermodels are never enumerated
    from qrc1 import search

    real = search._first_countermodel
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(search, "_first_countermodel", counting)
    out = decide(seq("<> (P(x) & Q(x)) ~> <> P(x)"), SIG, SearchBounds())
    assert isinstance(out, Proved)
    assert calls == 0


def test_decide_runs_the_tree_to_its_verdict_when_the_depths_run_out():
    # one proof depth finds no proof; the tree check at three elements then
    # runs through its 365 valuations and clears the sequent, where
    # enumerating countermodels would run to the deadline
    problem = ("pred R/1. R(a) & R(b) & R(c) & R(d) & R(e) & R(f) & R(g)"
               " ~> (R(a) & R(b)) & (R(c) & R(d))")
    sig, goal = parse_problem(problem)
    out = decide(goal, sig, SearchBounds(max_proof_depth=1, deadline=2))
    assert out == Exhausted(
        "no proof within depth 1 and no countermodel within 4 world(s) and 3 element(s)")


def test_proof_search_gives_up_at_its_deadline():
    bounds = SearchBounds(max_proof_depth=10**6, deadline=0.2)
    started = time.monotonic()
    assert proof_search(seq("P(x) ~> <> P(x)"), SIG, bounds) is None
    assert time.monotonic() - started < 2


def _assert_first_hits_agree(sig, goal, bounds):
    # the reference values every name in every way, enumeration only up to
    # relabelling: the first hits share their frame, not their tables
    old = next(filter(None, candidates_reference(sig, goal, bounds)), None)
    new = _first_countermodel(sig, goal, bounds)
    if old is None or new is None:
        assert old is new, goal
        return
    assert new[0].frame == old[0].frame, goal
    _verify_refutation(validate_model(new[0]), new[1], new[2], goal)


def test_first_countermodel_agrees_with_the_reference_enumerator():
    # whole candidate spaces of at most a few thousand models each
    for text, _ in BATTERY:
        _assert_first_hits_agree(BATTERY_SIG, parse_sequent(text, BATTERY_SIG), SearchBounds(2, 2))
    rng = random.Random(4)
    for sig, bounds, count in (
        (signature(["c"], {"P": 1}), SearchBounds(2, 2), 130),
        (signature([], {"P": 1}), SearchBounds(3, 2), 6),
        (signature([], {"S": 2}), SearchBounds(2, 2), 10),
    ):
        for _ in range(count):
            ante = random_formula(rng, sig, (0, 1), rng.randint(0, 3))
            cons = random_formula(rng, sig, (0, 1), rng.randint(0, 3))
            _assert_first_hits_agree(sig, Sequent(ante, cons), bounds)


def test_decide_on_every_sequent_of_size_at_most_three():
    # 900 sequents over T, P(x) and P(c): every one is decided at the default
    # bounds, and at two worlds and two elements Refuted exactly when the
    # reference finds a countermodel, in the same frame
    sig = signature(["c"], {"P": 1})
    small = small_formulas(3)
    bounds = SearchBounds(2, 2)
    for ante in small:
        for cons in small:
            goal = Sequent(ante, cons)
            out = decide(goal, sig)
            if isinstance(out, Proved):
                assert check(out.derivation, used_signature(sig, out.derivation)) == goal
            else:
                assert isinstance(out, Refuted), (goal, out)
                _verify_refutation(out.model, out.world, out.assignment, goal)
            out = decide(goal, sig, bounds)
            old = next(filter(None, candidates_reference(sig, goal, bounds)), None)
            assert isinstance(out, Refuted) == (old is not None), goal
            if old is not None:
                assert out.model.frame == old[0].frame, goal


def test_refute_finds_a_witness_as_small_as_the_reference_at_three_worlds():
    # over the 900 sequents of size <= 3, every witness refute finds at three
    # worlds and two elements has the world count and domain sizes of the
    # reference's first hit; the frames are not compared, so the test holds
    # for any enumeration order that finds a smallest witness first
    sig = signature(["c"], {"P": 1})
    small = small_formulas(3)
    bounds = SearchBounds(3, 2)
    sizes = []
    for ante in small:
        for cons in small:
            goal = Sequent(ante, cons)
            out = refute(sig, goal, bounds)
            if not isinstance(out, Refuted):
                continue
            old = next(filter(None, candidates_reference(sig, goal, bounds)), None)
            assert old is not None, goal
            frame, first = out.model.frame, old[0].frame
            assert (frame.worlds, frame.domains) == (first.worlds, first.domains), goal
            sizes.append(frame.worlds)
    assert (len(sizes), sizes.count(3)) == (610, 61)


def test_proof_search_reserves_no_name_the_signature_declares_as_a_predicate():
    # k0 is a predicate here, so the reserved constant of ConstE is k1, and
    # the proof's signature extends the declared one
    sig, goal = parse_problem("pred k0/1. pred P/1. A x . A y . (P(x) & T) ~> P(y)")
    d = proof_search(goal, sig)
    assert d is not None and d.rule == "ConstE"
    ext = used_signature(sig, d)
    assert ext.constants == frozenset({"k1"}) and check(d, ext) == goal


def _reference_hit(sig, goal, bounds):
    return any(hit is not None for hit in candidates_reference(sig, goal, bounds))


def _atoms_per_world(parent, tables):
    atoms = [[] for _ in parent]
    for name, table in tables.items():
        for i, worlds in table.items():
            for w in worlds:
                atoms[w].append((name, i))
    return [sorted(a) for a in atoms]


@pytest.mark.parametrize("text, size, labels, parent, atoms", [
    # a vacuous quantifier makes one child at every size, under x's value
    ("A y . <> P(x) ~> T", 1, [0], [-1, 0], [[], [("P", 0)]]),
    ("A y . <> P(x) ~> T", 2, [1], [-1, 0], [[], [("P", 1)]]),
    # one that binds its body's variable makes one child per element
    ("A y . <> P(y) ~> T", 2, [], [-1, 0, 0], [[], [("P", 0)], [("P", 1)]]),
    # a quantifier under a diamond asserts every element at the child
    ("<> A x . P(x) ~> T", 1, [], [-1, 0], [[], [("P", 0)]]),
    ("<> A x . P(x) ~> T", 2, [], [-1, 0], [[], [("P", 0), ("P", 1)]]),
    # a constant's atom at the element it is valued at, at both worlds
    ("P(c) & <> P(c) ~> T", 1, [0], [-1, 0], [[("P", 0)], [("P", 0)]]),
    ("P(c) & <> P(c) ~> T", 2, [1], [-1, 0], [[("P", 1)], [("P", 1)]]),
])
def test_tree_pins_its_worlds_parents_and_atoms(text, size, labels, parent, atoms):
    goal = seq(text)
    names = _names(goal)
    assert len(names) == len(labels)
    got, tables = _tree(goal, size, dict(zip(names, labels)), None)
    assert len(got) == len(parent)
    assert got == parent
    assert _atoms_per_world(got, tables) == atoms


def test_tree_reads_the_clock_at_its_first_node():
    goal = seq("<> P(x) ~> T")
    with pytest.raises(_Deadline):
        _tree(goal, 2, {_names(goal)[0]: 0}, time.monotonic() - 1)


def test_no_countermodel_agrees_with_the_reference_enumerator():
    # the tree check may refute where the reference cannot, with a witness
    # past its world bound, but never clears a sequent the reference refutes
    futile = hit = 0
    checked = [(BATTERY_SIG, parse_sequent(text, BATTERY_SIG), SearchBounds(2, 2))
               for text, _ in BATTERY]
    rng = random.Random(6)
    for sig, bounds, count in (
        (signature(["c"], {"P": 1, "Q": 1}), SearchBounds(2, 2), 120),
        (signature(["c"], {"P": 1}), SearchBounds(3, 2), 30),
    ):
        for _ in range(count):
            ante = random_formula(rng, sig, (0, 1), rng.randint(0, 3))
            cons = random_formula(rng, sig, (0, 1), rng.randint(0, 3))
            checked.append((sig, Sequent(ante, cons), bounds))
    for sig, goal, bounds in checked:
        clear = _no_countermodel(goal, bounds.max_domain, None)
        refuted = _reference_hit(sig, goal, bounds)
        assert not (clear and refuted), goal
        futile += clear
        hit += refuted
    assert futile > 20 and hit > 20


def test_no_countermodel_checks_every_domain_size():
    # refuted only with two elements (and three worlds): a bound that skips
    # domain 2 clears it
    sig = signature([], {"P": 1})
    goal = parse_sequent("A x . <> P(x) ~> <> A x . P(x)", sig)
    one, two = SearchBounds(3, 1), SearchBounds(3, 2)
    assert _no_countermodel(goal, one.max_domain, None) and not _reference_hit(sig, goal, one)
    assert not _no_countermodel(goal, two.max_domain, None) and _reference_hit(sig, goal, two)


def test_tree_verdict_is_monotone_in_the_domain_size():
    # copying an element preserves every formula, so a sequent the trees
    # refute with d elements they refute with d + 1; checking d =
    # max_domain alone then agrees with checking every d up to it
    sig = signature(["c"], {"P": 1, "S": 2})
    rng = random.Random(7)
    goals = [parse_problem("pred P/1. A x . A y . <> (P(x) & P(y)) ~> <> A x . P(x)")[1]]
    for _ in range(1000):
        ante = random_formula(rng, sig, (0, 1, 2), rng.randint(0, 4))
        cons = random_formula(rng, sig, (0, 1, 2), rng.randint(0, 4))
        goals.append(Sequent(ante, cons))
    patterns = set()
    for goal in goals:
        clear = [_no_countermodel(goal, d, None) for d in (1, 2, 3)]
        assert clear == sorted(clear, reverse=True), goal
        patterns.add(tuple(clear))
    # the first goal is refuted from three elements on, the others change
    # verdict at most between one and two
    assert patterns == {(True, True, True), (True, True, False), (True, False, False),
                        (False, False, False)}


def test_tree_check_never_refutes_a_provable_sequent():
    # a refuting tree is an adequate model where the sequent fails, so by
    # soundness no derivation exists; decide skips proof search on that,
    # and proof search skips a subgoal that the pruning check refutes
    battery = [parse_sequent(text, BATTERY_SIG) for text, _ in BATTERY]
    goals = [goal for goal in battery if proof_search(goal, BATTERY_SIG) is not None]
    rng = random.Random(8)
    bounds = SearchBounds(max_proof_depth=4)
    proved = 0
    while proved < 200:
        goal = Sequent(random_formula(rng, BATTERY_SIG, (0, 1), rng.randint(0, 3)),
                       random_formula(rng, BATTERY_SIG, (0, 1), rng.randint(0, 2)))
        if proof_search(goal, BATTERY_SIG, bounds) is not None:
            goals.append(goal)
            proved += 1
    for goal in goals:
        for d in (1, 2, 3):
            assert _no_countermodel(goal, d, None), (goal, d)
        assert _clears(goal, None), goal


def test_no_countermodels_for_axiom_schemes_on_small_formulas():
    # rules (phi ~> T / phi ~> phi), projections, and the diamond collapse,
    # instantiated over a family of formulas of depth <= 3
    from qrc1 import All

    p = P(Var(X))
    q = Pred("Q", (Var(1),))
    shapes = [
        p,
        q,
        TOP,
        And(p, q),
        Diam(p),
        All(X, p),
        Diam(And(p, TOP)),
        And(Diam(p), q),
        All(1, Diam(q)),
    ]
    bounds = SearchBounds(max_worlds=4, max_domain=3, deadline=0.1)
    goals = []
    for phi in shapes:
        goals.append(Sequent(phi, TOP))
        goals.append(Sequent(phi, phi))
        goals.append(Sequent(Diam(Diam(phi)), Diam(phi)))
    for phi in shapes[:4]:
        for psi in shapes[:4]:
            goals.append(Sequent(And(phi, psi), phi))
            goals.append(Sequent(And(phi, psi), psi))
    for goal in goals:
        assert enumerate_countermodels(SIG, goal, bounds) is None


# -- pruning subgoals that a two-element tree refutes -----------------------


class _Unpruned(_ProofSearch):
    """The search without the pruning check: `dfs` as it was before it."""

    def dfs(self, ante, cons, depth, path):
        self.tick()
        leaf = _axiom_leaf(ante, cons)
        if leaf is not None:
            return leaf
        goal = (ante, cons)
        if depth <= 1 or goal in path or self.memo.get(goal, 0) >= depth:
            return None
        path.add(goal)
        try:
            found = self._moves(ante, cons, depth, path)
        finally:
            path.discard(goal)
        if found is None:
            self.memo[goal] = depth
        return found

    def first_proof(self, goal, max_depth):
        for depth in range(1, max_depth + 1):
            found = self.dfs(goal.ante, goal.cons, depth, set())
            if found is not None:
                return found
        return None


def test_pruning_changes_no_proof(monkeypatch):
    # by soundness a goal that a tree refutes has no derivation, so the
    # search with the check finds the proofs of the search without it
    from qrc1 import search

    goals = [parse_sequent(text, BATTERY_SIG) for text, _ in BATTERY]
    rng = random.Random(9)
    for _ in range(200):
        goals.append(Sequent(random_formula(rng, BATTERY_SIG, (0, 1), rng.randint(0, 3)),
                             random_formula(rng, BATTERY_SIG, (0, 1), rng.randint(0, 2))))
    real = search._clears
    asked, skipped = [], set()

    def recording(goal, *args):
        asked.append(goal)
        verdict = real(goal, *args)
        if not verdict:
            skipped.add(goal)
        return verdict

    def dumped(d):
        return d and dump_proof(d, used_signature(BATTERY_SIG, d))

    monkeypatch.setattr(search, "_clears", recording)
    for goal in goals:
        unpruned = _Unpruned(goal, BATTERY_SIG, None).first_proof(goal, 4)
        asked.clear()
        assert dumped(proof_search(goal, BATTERY_SIG, SearchBounds(max_proof_depth=4))) == \
            dumped(unpruned), goal
        # each search checks a goal once
        assert len(set(asked)) == len(asked), goal
    # and some skip many
    assert len(skipped) > 500
    for goal in skipped:
        assert _Unpruned(goal, BATTERY_SIG, None).first_proof(goal, 4) is None, goal


def test_pruning_builds_one_tree_per_name_apart(monkeypatch):
    # all names on one element, then each name alone on the other: k + 1
    # distinct partitions, where every two-element valuation is 2^(k-1)
    from qrc1 import search

    built = []

    def recording(k, d):
        for labels in _one_apart(k, d):
            built.append(tuple(labels))
            yield labels

    monkeypatch.setattr(search, "_one_apart", recording)
    for k in range(3, 9):
        names = "abcdefgh"[:k]
        conj = " & ".join(f"R({v})" for v in names)
        sig, goal = parse_problem(f"pred R/1. {conj} ~> R(a)")
        built.clear()
        assert search._clears(goal, None)
        assert len(built) == len(set(built)) == k + 1
        assert all(labels[0] == 0 and set(labels) <= {0, 1} for labels in built)


def test_one_apart_keeps_to_the_element_of_a_one_element_domain():
    # a one-element tree's quantifiers range over element 0 alone, so a
    # name labelled 1 would be no element: the root check at max_domain 1
    # would then refute this valid sequent (AllIl twice)
    for k in range(6):
        assert [list(labels) for labels in _one_apart(k, 1)] == [[0] * k]
    sig, goal = parse_problem("pred P/1. A x . P(x) ~> P(a) & P(b)")
    assert isinstance(decide(goal, sig, SearchBounds(max_domain=1)), Proved)


def test_pruning_leaves_a_goal_with_many_names_provable():
    # each subgoal has 12 names: the check builds 13 trees for it, where
    # every two-element valuation would be 2048 and run past the deadline
    conj = " & ".join(f"R({v})" for v in "abcdefghijkl")
    sig, goal = parse_problem(f"pred R/1. {conj} ~> R(a) & R(b)")
    assert isinstance(decide(goal, sig, SearchBounds(deadline=2.0)), Proved)


def test_pruning_returns_at_the_deadline():
    # the subgoal's two-element tree has 2^20 leaves, seconds of work, at
    # one element 20; the check polls the search's own deadline.  The atom
    # names every variable, so no quantifier is expanded only once
    names = "abcdefghijklmnopqrst"
    ante = "".join(f"A {v} . " for v in names) + f"P({', '.join(names)})"
    sig, goal = parse_problem(f"pred P/20. pred Q/1. {ante} ~> Q(y) & Q(y)")
    out, took = _elapsed(proof_search, goal, sig, SearchBounds(deadline=0.3))
    assert out is None
    assert took < 0.3 + DEADLINE_SLACK


@pytest.mark.parametrize("problem, nodes, pruned", [
    # decide-valid seed 1 item 167, proved at depth 5
    ("const c. pred P/1. pred Q/1. pred S/2. A x . (P(y) & S(c, x)) & (S(y, x) & (P(x) & P(y)))"
     " ~> S(c, y) & (S(c, y) & (S(c, y) & (A x . S(c, y) & T)))", 4252, 42),
    # decide-valid seed 1 item 811, proved at depth 7
    ("const c. pred P/1. pred Q/1. pred S/2. A x . A y . S(y, x)"
     " ~> A y . S(y, x) & T & A y . S(y, x) & (S(c, c) & A x . S(x, c) & A x . A y . S(y, x))",
     4124, 113),
])
def test_pruning_cuts_the_search_to_a_pinned_size(problem, nodes, pruned):
    # search is deterministic; without pruning these take 6913 and 26581 nodes
    sig, goal = parse_problem(problem)
    state = _ProofSearch(goal, sig, None)
    assert any(state.dfs(goal.ante, goal.cons, depth, set()) for depth in range(1, 9))
    assert (state.nodes, state.pruned) == (nodes, pruned)
