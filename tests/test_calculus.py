import random

import pytest

from qrc1 import (
    All,
    And,
    CheckError,
    Const,
    Derivation,
    Diam,
    Pred,
    Sequent,
    SymbolTable,
    TOP,
    Var,
    all_commute,
    all_instantiate,
    all_intro_left,
    all_intro_right,
    and_intro,
    ax_and_left,
    ax_and_right,
    ax_refl,
    ax_top,
    ax_trans,
    check,
    conclusion,
    const_elim,
    cut,
    diam_over_all,
    dump_proof,
    fv,
    generalize_constant,
    instantiate_consequent,
    load_proof,
    nec,
    occurs_const,
    rename_bound,
    sub,
    term_inst,
)
from qrc1.calculus import (
    CONST_OCCURS,
    ILL_FORMED,
    NOT_FREE_FOR,
    PREMISE_MISMATCH,
    VAR_NOT_FRESH,
)
from qrc1.generate import random_formula

from conftest import SIG, random_signature

X, Y, Z = 0, 1, 2


def P(t):
    return Pred("P", (t,))


def Q(t):
    return Pred("S", (t, t))


# -- axioms ------------------------------------------------------------


def test_trans_axiom_concludes_diamond_collapse():
    p = P(Var(X))
    assert check(ax_trans(p), SIG) == Sequent(Diam(Diam(p)), Diam(p))


def test_refl_axiom_on_top():
    assert check(ax_refl(TOP), SIG) == Sequent(TOP, TOP)


def test_top_axiom():
    p = P(Var(X))
    assert check(ax_top(p), SIG) == Sequent(p, TOP)


def test_and_projection_axioms():
    p, q = P(Var(X)), Q(Var(Y))
    assert check(ax_and_left(p, q), SIG) == Sequent(And(p, q), p)
    assert check(ax_and_right(p, q), SIG) == Sequent(And(p, q), q)


# -- structural rules ----------------------------------------------------


def test_and_intro_pairs_shared_antecedent():
    p, q = P(Var(X)), Q(Var(X))
    d = and_intro(ax_and_right(p, q), ax_and_left(p, q))
    assert check(d, SIG) == Sequent(And(p, q), And(q, p))


def test_and_intro_rejects_mismatched_antecedents():
    d = and_intro(ax_refl(TOP), ax_top(P(Var(X))))
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert e.value.reason == PREMISE_MISMATCH
    assert e.value.rule == "AndI"
    assert e.value.path == ()


def test_cut_chains_through_the_middle_formula():
    p, q = P(Var(X)), Q(Var(X))
    d = cut(ax_and_left(p, q), ax_top(p))
    assert check(d, SIG) == Sequent(And(p, q), TOP)


def test_cut_rejects_mismatched_middle():
    d = cut(ax_top(P(Var(X))), ax_refl(P(Var(X))))
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert e.value.reason == PREMISE_MISMATCH


def test_nec_boxes_both_sides_with_diamonds():
    p, q = P(Var(X)), Q(Var(X))
    d = nec(ax_and_left(p, q))
    assert check(d, SIG) == Sequent(Diam(And(p, q)), Diam(p))


# -- quantifier rules ----------------------------------------------------


def test_all_intro_right_requires_fresh_variable():
    p, q = P(Var(X)), Q(Var(Y))
    good = all_intro_right(ax_and_left(p, q), Z)
    assert check(good, SIG) == Sequent(And(p, q), All(Z, p))
    bad = all_intro_right(ax_and_left(p, q), X)
    with pytest.raises(CheckError) as e:
        check(bad, SIG)
    assert e.value.reason == VAR_NOT_FRESH


def test_all_intro_left_instantiates_the_matrix():
    p = P(Var(X))
    d = all_intro_left(p, X, Const("c"), ax_refl(P(Const("c"))))
    assert check(d, SIG) == Sequent(All(X, p), P(Const("c")))


def test_all_intro_left_rejects_captured_term():
    phi = All(Y, Pred("S", (Var(X), Var(Y))))
    inst = sub(phi, X, Var(Y))
    d = all_intro_left(phi, X, Var(Y), ax_refl(inst))
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert e.value.reason == NOT_FREE_FOR


def test_all_intro_left_rejects_wrong_premise_antecedent():
    p = P(Var(X))
    d = all_intro_left(p, X, Const("c"), ax_refl(P(Const("d"))))
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert e.value.reason == PREMISE_MISMATCH


def test_term_inst_substitutes_both_sides():
    p, q = P(Var(X)), Q(Var(X))
    d = term_inst(ax_and_left(p, q), X, Const("c"))
    pc, qc = P(Const("c")), Q(Const("c"))
    assert check(d, SIG) == Sequent(And(pc, qc), pc)


def test_term_inst_rejects_capture_in_consequent():
    phi = All(Y, Pred("S", (Var(X), Var(Y))))
    d = term_inst(ax_top(phi), X, Var(Y))
    # antecedent capture: ax_top's antecedent is the quantified formula
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert e.value.reason == NOT_FREE_FOR


def test_term_inst_rejects_capture_in_the_consequent_alone():
    # P(x) ~> A y . P(x), then x := y: free for x in the antecedent only;
    # accepted, it would prove P(y) ~> A y . P(y)
    d = term_inst(all_intro_right(ax_refl(P(Var(X))), Y), X, Var(Y))
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert (e.value.path, e.value.reason) == ((), NOT_FREE_FOR)
    assert "consequent" in e.value.detail


def test_term_inst_rejects_an_undeclared_constant_term():
    d = term_inst(ax_refl(P(Var(X))), X, Const("zz"))
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert (e.value.path, e.value.rule, e.value.reason) == ((), "TermI", ILL_FORMED)


def test_const_elim_generalizes_a_fresh_constant():
    p = P(Var(X))
    d = const_elim(p, p, X, "c", ax_refl(P(Const("c"))))
    assert check(d, SIG) == Sequent(p, p)


def test_const_elim_rejects_occurring_constant():
    pc = P(Const("c"))
    d = const_elim(pc, P(Var(X)), X, "c", ax_refl(pc))
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert e.value.reason == CONST_OCCURS


def test_const_elim_rejects_a_constant_in_the_consequent():
    # accepted, it would prove P(x) ~> P(c) from P(c) ~> P(c)
    pc = P(Const("c"))
    d = const_elim(P(Var(X)), pc, X, "c", ax_refl(pc))
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert (e.value.path, e.value.reason) == ((), CONST_OCCURS)
    assert "consequent" in e.value.detail


def test_const_elim_rejects_non_instance_premise():
    p = P(Var(X))
    d = const_elim(p, p, X, "c", ax_refl(P(Const("d"))))
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert e.value.reason == PREMISE_MISMATCH


def test_ill_formed_parameter_formula():
    d = ax_refl(Pred("Unknown", ()))
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert e.value.reason == ILL_FORMED


def test_error_path_is_depth_first_left_to_right():
    bad_left = and_intro(ax_refl(TOP), ax_top(P(Var(X))))  # fails at path (0,)
    bad_right = and_intro(ax_refl(TOP), ax_top(P(Var(X))))
    d = and_intro(and_intro(bad_left, bad_right), ax_refl(TOP))
    with pytest.raises(CheckError) as e:
        check(d, SIG)
    assert e.value.path == (0, 0)


def test_check_is_deterministic():
    p = P(Var(X))
    d = cut(ax_and_left(p, p), ax_top(p))
    assert check(d, SIG) == check(d, SIG)
    bad = and_intro(ax_refl(TOP), ax_top(p))
    first = pytest.raises(CheckError, check, bad, SIG).value
    second = pytest.raises(CheckError, check, bad, SIG).value
    assert (first.path, first.rule, first.reason) == (second.path, second.rule, second.reason)


def test_derivation_arity_enforced_at_construction():
    with pytest.raises(ValueError):
        Derivation("AndI", premises=(ax_refl(TOP),))
    with pytest.raises(ValueError):
        Derivation("Top")
    with pytest.raises(ValueError):
        Derivation("NoSuchRule")


@pytest.mark.parametrize("kind, make", [
    ("variable", lambda: Derivation("AllIr", premises=(ax_refl(TOP),))),
    ("variable", lambda: Derivation("Refl", (TOP,), var=X)),
    ("term", lambda: Derivation("TermI", var=X, premises=(ax_refl(TOP),))),
    ("constant", lambda: Derivation("ConstE", (TOP, TOP), var=X, premises=(ax_refl(TOP),))),
], ids=["AllIr-without-var", "Refl-with-var", "TermI-without-term", "ConstE-without-const"])
def test_derivation_parameters_enforced_at_construction(kind, make):
    with pytest.raises(ValueError, match=f"bad {kind} parameter"):
        make()


# -- derived rule builders ----------------------------------------------


def test_all_commute_swaps_adjacent_binders():
    phi = Pred("S", (Var(X), Var(Y)))
    d = all_commute(phi, X, Y)
    assert check(d, SIG) == Sequent(All(X, All(Y, phi)), All(Y, All(X, phi)))


def test_all_commute_degenerate_same_variable():
    phi = P(Var(X))
    d = all_commute(phi, X, X)
    assert check(d, SIG) == Sequent(All(X, All(X, phi)), All(X, All(X, phi)))


def test_all_commute_on_top():
    d = all_commute(TOP, X, Y)
    assert check(d, SIG) == Sequent(All(X, All(Y, TOP)), All(Y, All(X, TOP)))


def test_all_instantiate_with_constant():
    d = all_instantiate(P(Var(X)), X, Const("c"))
    assert check(d, SIG) == Sequent(All(X, P(Var(X))), P(Const("c")))


def test_all_instantiate_identity_term():
    phi = P(Var(X))
    d = all_instantiate(phi, X, Var(X))
    assert check(d, SIG) == Sequent(All(X, phi), phi)


def test_all_instantiate_rejects_capture():
    phi = All(Y, Pred("S", (Var(X), Var(Y))))
    with pytest.raises(ValueError):
        all_instantiate(phi, X, Var(Y))


def test_diam_over_all():
    phi = P(Var(X))
    d = diam_over_all(phi, X)
    assert check(d, SIG) == Sequent(Diam(All(X, phi)), All(X, Diam(phi)))


def test_diam_over_all_on_top():
    d = diam_over_all(TOP, X)
    assert check(d, SIG) == Sequent(Diam(All(X, TOP)), All(X, Diam(TOP)))


def test_diam_over_all_rechecks_on_conjunction():
    phi = And(P(Var(X)), Q(Var(Y)))
    d = diam_over_all(phi, X)
    assert check(d, SIG) == Sequent(Diam(All(X, phi)), All(X, Diam(phi)))


def test_rename_bound_to_fresh_variable():
    d = rename_bound(P(Var(X)), X, Y)
    assert check(d, SIG) == Sequent(All(X, P(Var(X))), All(Y, P(Var(Y))))


def test_rename_bound_degenerate_same_variable():
    phi = P(Var(X))
    d = rename_bound(phi, X, X)
    assert check(d, SIG) == Sequent(All(X, phi), All(X, phi))


def test_rename_bound_rejects_free_target():
    with pytest.raises(ValueError):
        rename_bound(Pred("S", (Var(X), Var(Y))), X, Y)


def test_instantiate_consequent():
    d = all_instantiate(P(Var(Y)), Y, Var(Y))  # A y . P(y) ~> P(y)
    out = instantiate_consequent(d, Y, Const("c"))
    assert check(out, SIG) == Sequent(All(Y, P(Var(Y))), P(Const("c")))


def test_instantiate_consequent_identity_term():
    d = all_instantiate(P(Var(Y)), Y, Var(Y))
    out = instantiate_consequent(d, Y, Var(Y))
    assert check(out, SIG) == conclusion(d)


def test_instantiate_consequent_rejects_free_variable_in_antecedent():
    d = ax_and_left(P(Var(X)), TOP)
    with pytest.raises(ValueError):
        instantiate_consequent(d, X, Const("c"))


def test_generalize_constant():
    d = all_instantiate(P(Var(X)), X, Const("c"))  # A x . P(x) ~> P(c)
    out = generalize_constant(d, X, "c")
    assert check(out, SIG) == Sequent(All(X, P(Var(X))), All(X, P(Var(X))))


def test_generalize_constant_on_top_consequent():
    d = ax_top(P(Var(Y)))
    out = generalize_constant(d, X, "c")
    assert check(out, SIG) == Sequent(P(Var(Y)), All(X, TOP))


def test_generalize_constant_rejects_constant_in_antecedent():
    d = ax_top(P(Const("c")))
    with pytest.raises(ValueError):
        generalize_constant(d, X, "c")


# -- randomized re-check of the builders ---------------------------------


def _premise_for_consequent_instantiation(rng, sig, variables):
    """A checked derivation A v . phi ~> phi with a closed antecedent."""
    phi = random_formula(rng, sig, variables, rng.randint(0, 3))
    v = rng.choice(list(variables))
    return all_instantiate(phi, v, Var(v))


def test_builders_recheck_on_random_instances():
    rng = random.Random(42)
    for _ in range(60):
        sig = random_signature(rng)
        variables = (0, 1, 2)
        phi = random_formula(rng, sig, variables, rng.randint(0, 3))
        x = rng.choice(variables)
        y = rng.choice(variables)

        d = all_commute(phi, x, y)
        assert check(d, sig) == Sequent(All(x, All(y, phi)), All(y, All(x, phi)))

        t = Const(rng.choice(sorted(sig.constants))) if sig.constants and rng.random() < 0.5 else Var(y)
        from qrc1 import freefor

        if freefor(phi, x, t):
            d = all_instantiate(phi, x, t)
            assert check(d, sig) == Sequent(All(x, phi), sub(phi, x, t))

        d = diam_over_all(phi, x)
        assert check(d, sig) == Sequent(Diam(All(x, phi)), All(x, Diam(phi)))

        fresh = 7
        if freefor(phi, x, Var(fresh)):
            d = rename_bound(phi, x, fresh)
            assert check(d, sig) == Sequent(All(x, phi), All(fresh, sub(phi, x, Var(fresh))))

        prem = _premise_for_consequent_instantiation(rng, sig, variables)
        seq = conclusion(prem)
        z = rng.choice(variables)
        tt = Var(rng.choice(variables))
        from qrc1 import freefor as ff

        if z not in fv(seq.ante) and ff(seq.cons, z, tt):
            d = instantiate_consequent(prem, z, tt)
            assert check(d, sig) == Sequent(seq.ante, sub(seq.cons, z, tt))

        if sig.constants:
            c = rng.choice(sorted(sig.constants))
            psi = random_formula(rng, sig, variables, rng.randint(0, 2))
            if not occurs_const(c, psi):
                prem2 = all_instantiate(psi, x, Const(c))
                d = generalize_constant(prem2, x, c)
                assert check(d, sig) == Sequent(All(x, psi), All(x, psi))


# -- per-node audit: each step follows from its children by its own rule --


def _expected(node, child_sequents):
    """Independent single-step table of the ten rules."""
    r = node.rule
    if r == "Top":
        return Sequent(node.formulas[0], TOP)
    if r == "Refl":
        return Sequent(node.formulas[0], node.formulas[0])
    if r == "AndEl":
        return Sequent(And(*node.formulas), node.formulas[0])
    if r == "AndEr":
        return Sequent(And(*node.formulas), node.formulas[1])
    if r == "Trans":
        return Sequent(Diam(Diam(node.formulas[0])), Diam(node.formulas[0]))
    if r == "AndI":
        (a, b), (a2, c) = [(s.ante, s.cons) for s in child_sequents]
        assert a == a2
        return Sequent(a, And(b, c))
    if r == "Cut":
        (a, b), (b2, c) = [(s.ante, s.cons) for s in child_sequents]
        assert b == b2
        return Sequent(a, c)
    if r == "Nec":
        s = child_sequents[0]
        return Sequent(Diam(s.ante), Diam(s.cons))
    if r == "AllIr":
        s = child_sequents[0]
        assert node.var not in fv(s.ante)
        return Sequent(s.ante, All(node.var, s.cons))
    if r == "AllIl":
        s = child_sequents[0]
        assert s.ante == sub(node.formulas[0], node.var, node.term)
        return Sequent(All(node.var, node.formulas[0]), s.cons)
    if r == "TermI":
        s = child_sequents[0]
        return Sequent(sub(s.ante, node.var, node.term), sub(s.cons, node.var, node.term))
    assert r == "ConstE"
    s = child_sequents[0]
    c = Const(node.const)
    assert s == Sequent(sub(node.formulas[0], node.var, c), sub(node.formulas[1], node.var, c))
    return Sequent(*node.formulas)


def _audit(node):
    children = [_audit(p) for p in node.premises]
    return _expected(node, children)


def test_every_node_follows_from_its_children():
    phi = Pred("S", (Var(X), Var(Y)))
    trees = [
        all_commute(phi, X, Y),
        diam_over_all(And(P(Var(X)), TOP), X),
        cut(nec(ax_trans(phi)), ax_trans(phi)),
        generalize_constant(all_instantiate(P(Var(X)), X, Const("c")), X, "c"),
    ]
    for d in trees:
        assert _audit(d) == check(d, SIG)


# -- proof files ---------------------------------------------------------


def test_proof_json_round_trip():
    phi = Pred("S", (Var(X), Var(Y)))
    d = cut(nec(ax_trans(phi)), ax_trans(phi))
    table = SymbolTable()
    doc = dump_proof(d, SIG, table)
    loaded = load_proof(doc)
    assert check(loaded.derivation, loaded.sig) is not None
    assert dump_proof(loaded.derivation, loaded.sig, loaded.table) == doc


def test_proof_file_preserves_printed_conclusion():
    d = generalize_constant(all_instantiate(P(Var(X)), X, Const("c")), X, "c")
    table = SymbolTable()
    original = check(d, SIG)
    doc = dump_proof(d, SIG, table)
    loaded = load_proof(doc)
    from qrc1 import format_sequent

    assert format_sequent(check(loaded.derivation, loaded.sig), loaded.table, loaded.sig) == \
        format_sequent(original, table, SIG)


def test_proof_round_trip_on_random_trees():
    rng = random.Random(8)
    from qrc1 import format_sequent

    for _ in range(80):
        sig = random_signature(rng)
        phi = random_formula(rng, sig, (0, 1, 2), rng.randint(0, 3))
        psi = random_formula(rng, sig, (0, 1, 2), rng.randint(0, 2))
        x = rng.choice((0, 1, 2))
        pick = rng.randrange(5)
        if pick == 0:
            d = nec(ax_and_left(phi, psi))
        elif pick == 1:
            d = cut(ax_and_right(psi, phi), ax_top(phi))
        elif pick == 2:
            d = all_commute(phi, x, 1)
        elif pick == 3:
            d = diam_over_all(phi, x)
        else:
            d = and_intro(ax_refl(phi), ax_top(phi))
        table = SymbolTable()
        doc = dump_proof(d, sig, table)
        loaded = load_proof(doc)
        assert dump_proof(loaded.derivation, loaded.sig, loaded.table) == doc
        assert format_sequent(check(loaded.derivation, loaded.sig), loaded.table, loaded.sig) == \
            format_sequent(check(d, sig), table, sig)


def test_load_proof_rejects_malformed_documents():
    from qrc1 import ProofFormatError

    with pytest.raises(ProofFormatError):
        load_proof("not json at all {")
    with pytest.raises(ProofFormatError):
        load_proof({"proof": {"rule": "Refl", "params": {"phi": "T"}, "premises": []}})
    with pytest.raises(ProofFormatError):
        load_proof({
            "signature": {"constants": [], "predicates": {}},
            "proof": {"rule": "Bogus", "params": {}, "premises": []},
        })
    with pytest.raises(ProofFormatError):
        load_proof({
            "signature": {"constants": [], "predicates": {}},
            "proof": {"rule": "Refl", "params": {}, "premises": []},
        })


def _doc(proof):
    return {"signature": {"constants": ["c"], "predicates": {"P": 1, "S": 2}}, "proof": proof}


def _node(rule, premises=(), **params):
    return {"rule": rule, "params": params, "premises": list(premises)}


def test_repeated_formula_strings_load_to_the_dumped_derivation():
    from qrc1 import format_sequent

    table = SymbolTable()
    x, y = table.intern("x"), table.intern("y")
    phi = Pred("S", (Var(x), Var(y)))
    leaf = cut(nec(ax_trans(phi)), ax_trans(phi))
    d = and_intro(cut(leaf, ax_refl(Diam(phi))), cut(leaf, ax_top(Diam(phi))))
    doc = dump_proof(d, SIG, table)
    loaded = load_proof(doc)
    assert loaded.derivation == d
    assert dump_proof(loaded.derivation, loaded.sig, loaded.table) == doc
    assert format_sequent(check(loaded.derivation, loaded.sig), loaded.table, loaded.sig) == \
        format_sequent(check(d, SIG), table, SIG)


def test_repeated_formula_strings_load_as_one_object():
    loaded = load_proof(_doc(_node("AndI", [
        _node("Refl", phi="<> P(x)"),
        _node("AllIl", [_node("Refl", phi="<> P(x)")], phi="P(x)", x="x", t="x"),
    ])))
    left, right = loaded.derivation.premises
    assert left.formulas[0] is right.premises[0].formulas[0]
    assert right.term is not None and right.var == right.term.id


def test_load_error_names_the_depth_first_location():
    from qrc1 import ProofFormatError

    doc = _doc(_node("Cut", [
        _node("Refl", phi="P(x)"),
        _node("Nec", [_node("Top", phi="P(x")]),
    ]))
    with pytest.raises(ProofFormatError) as e:
        load_proof(doc)
    assert str(e.value) == "proof.premises[1].premises[0]: expected ')' (at offset 3)"

    # the bad text occurs twice; the first occurrence depth-first is reported
    doc = _doc(_node("AndI", [
        _node("Nec", [_node("Top", phi="P(x")]),
        _node("Top", phi="P(x"),
    ]))
    with pytest.raises(ProofFormatError) as e:
        load_proof(doc)
    assert str(e.value) == "proof.premises[0].premises[0]: expected ')' (at offset 3)"


def test_load_error_names_the_node_with_the_wrong_premise_count():
    from qrc1 import ProofFormatError

    doc = _doc(_node("Cut", [
        _node("Refl", phi="P(x)"),
        _node("Nec", [_node("Top", phi="P(x)"), _node("Refl", phi="P(x)")]),
    ]))
    with pytest.raises(ProofFormatError) as e:
        load_proof(doc)
    assert str(e.value) == "proof.premises[1]: Nec takes 1 premise(s), got 2"
    with pytest.raises(ProofFormatError) as e:
        load_proof(_doc(_node("Refl", [_node("Top", phi="T")], phi="T")))
    assert str(e.value) == "proof: Refl takes 0 premise(s), got 1"


def test_load_error_for_a_missing_or_non_text_parameter():
    from qrc1 import ProofFormatError

    with pytest.raises(ProofFormatError) as e:
        load_proof(_doc(_node("Nec", [_node("AllIr", [_node("Refl")], x="x")])))
    assert str(e.value) == "proof.premises[0].premises[0]: Refl requires parameter 'phi'"
    with pytest.raises(ProofFormatError) as e:
        load_proof(_doc(_node("Nec", [_node("Top", phi=["T"])])))
    assert str(e.value) == "proof.premises[0]: parameter 'phi' must be a string"
