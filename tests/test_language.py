import weakref

from hypothesis import given

from qrc1 import (
    All,
    And,
    Const,
    Diam,
    Pred,
    TOP,
    Var,
    freefor,
    fv,
    occurs_const,
    signature,
    sub,
    well_formed,
)
from qrc1.language import fv_term, generalize, all_vars, consts_of

from conftest import SIG, formulas, terms, variables

X, Y, Z = 0, 1, 2


def P(t):
    return Pred("P", (t,))


def S(t, u):
    return Pred("S", (t, u))


# -- free variables ----------------------------------------------------


def test_fv_of_top_is_empty():
    assert fv(TOP) == frozenset()


def test_fv_binder_removes_its_variable():
    assert fv(All(X, S(Var(X), Var(Y)))) == {Y}


def test_fv_union_over_subformulas():
    phi = And(S(Var(X), Var(X)), Diam(P(Var(Z))))
    assert fv(phi) == {X, Z}


def test_fv_term():
    assert fv_term(Var(X)) == {X}
    assert fv_term(Const("c")) == frozenset()
    assert fv_term(Var(Y)) == {Y}


# -- constant occurrence ----------------------------------------------


def test_occurs_const():
    assert occurs_const("c", S(Const("c"), Var(Y)))
    assert not occurs_const("c", All(X, S(Var(X), Var(X))))
    assert not occurs_const("c", Diam(P(Const("d"))))


# -- substitution ------------------------------------------------------


def test_sub_shielded_by_own_binder():
    phi = All(X, S(Var(X), Var(Y)))
    assert sub(phi, X, Var(Y)) == phi


def test_sub_is_unguarded_and_captures():
    # replacing x by y under a y-binder captures: this is by design,
    # freefor exists to rule it out
    phi = All(Y, S(Var(X), Var(Y)))
    assert sub(phi, X, Var(Y)) == All(Y, S(Var(Y), Var(Y)))


def test_sub_direct_replacement():
    assert sub(S(Var(X), Var(Z)), X, Const("c")) == S(Const("c"), Var(Z))


# -- freefor -----------------------------------------------------------


def test_freefor_detects_capture():
    assert not freefor(All(Y, S(Var(X), Var(Y))), X, Var(Y))


def test_freefor_constants_never_captured():
    assert freefor(All(Y, S(Var(X), Var(Y))), X, Const("c"))


def test_freefor_unrelated_binder():
    assert freefor(All(Y, S(Var(X), Var(Y))), X, Var(Z))


# -- well-formedness ---------------------------------------------------


def test_well_formed_top():
    assert well_formed(TOP, SIG)


def test_well_formed_rejects_arity_mismatch():
    assert not well_formed(Pred("S", (Var(X),)), SIG)


def test_well_formed_accepts_declared_names():
    assert well_formed(S(Var(X), Const("c")), SIG)
    assert not well_formed(P(Const("nope")), SIG)
    assert not well_formed(Pred("Unknown", ()), SIG)


def test_signature_rejects_name_clash():
    import pytest

    with pytest.raises(ValueError):
        signature(["P"], {"P": 1})


# -- structural equality ----------------------------------------------


def test_no_alpha_equivalence():
    assert All(X, P(Var(X))) != All(Y, P(Var(Y)))
    assert All(X, P(Var(X))) == All(X, P(Var(X)))


# -- invariants (property-based) ---------------------------------------


@given(formulas, variables, terms)
def test_sub_noop_outside_fv(phi, x, t):
    if x not in fv(phi):
        assert sub(phi, x, t) == phi


@given(formulas, variables, terms)
def test_fv_after_substitution(phi, x, t):
    if freefor(phi, x, t) and x in fv(phi):
        assert fv(sub(phi, x, t)) == (fv(phi) - {x}) | fv_term(t)


@given(formulas, variables, terms)
def test_freefor_trivially_true_without_free_occurrence(phi, x, t):
    if x not in fv(phi):
        assert freefor(phi, x, t)


@given(formulas, variables)
def test_const_substitution_eliminates_the_variable(phi, x):
    assert x not in fv(sub(phi, x, Const("c")))


@given(formulas, variables)
def test_generalize_inverts_constant_substitution(phi, x):
    # pick a variable fresh for phi so generalization cannot capture
    fresh = max(all_vars(phi) | {x}, default=0) + 1
    target = sub(phi, x, Const("c"))
    if "c" not in consts_of(phi):
        assert sub(generalize(target, Const("c"), fresh), fresh, Const("c")) == target


def test_fv_and_freefor_keep_no_formula_alive():
    # fv is stored on the formula itself, so nothing outside it holds the
    # formula once the caller drops it
    phi = All(Y, S(Var(X), Var(Y)))
    assert fv(phi) == {X}
    assert not freefor(phi, X, Var(Y))
    assert fv(phi) == {X}  # the stored answer
    refs = [weakref.ref(phi), weakref.ref(phi.body)]
    del phi
    assert [ref() for ref in refs] == [None, None]


def test_stored_free_variables_leave_equality_and_hashing_alone():
    phi, psi = And(P(Var(X)), TOP), And(P(Var(X)), TOP)
    fv(phi)
    assert phi == psi and hash(phi) == hash(psi)
    assert repr(phi) == repr(psi)
