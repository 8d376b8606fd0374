import sys
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
from qrc1.language import fv_term, generalize, all_vars, consts_of, subformulas

from conftest import (
    SIG,
    all_vars_reference,
    consts_of_reference,
    formulas,
    subformulas_reference,
    terms,
    variables,
)

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
    # what a formula stores is stored on the formula itself, so nothing
    # outside it holds the formula once the caller drops it
    phi = All(Y, And(S(Var(X), Var(Y)), P(Const("c"))))
    assert fv(phi) == {X}
    assert not freefor(phi, X, Var(Y))
    assert all_vars(phi) == {X, Y}
    assert consts_of(phi) == {"c"} and occurs_const("c", phi)
    assert hash(phi) == hash((Y, phi.body))
    assert sub(phi, Z, Var(X)) is phi and generalize(phi, Const("d"), Z) is phi
    assert sub(phi, X, Const("d")) != phi and generalize(phi, Const("c"), Z) != phi
    # the stored answers
    assert (fv(phi), all_vars(phi), consts_of(phi)) == ({X}, {X, Y}, {"c"})
    refs = [weakref.ref(phi), weakref.ref(phi.body), weakref.ref(phi.body.right)]
    del phi
    assert [ref() for ref in refs] == [None, None, None]


def test_stored_free_variables_leave_equality_and_hashing_alone():
    phi, psi = And(P(Var(X)), All(Y, P(Const("c")))), And(P(Var(X)), All(Y, P(Const("c"))))
    fv(phi), all_vars(phi), consts_of(phi), hash(phi)
    assert phi == psi and hash(phi) == hash(psi)
    assert repr(phi) == repr(psi)
    # so sets and dicts order them the same
    others = [P(Var(Y)), TOP, Diam(P(Var(X)))]
    assert list({phi, *others}) == list({psi, *others})
    assert list(dict.fromkeys([*others, phi])) == list(dict.fromkeys([*others, psi]))


def _fields_hash(phi):
    """The hash a frozen dataclass computes: of the tuple of its fields."""
    return hash(tuple(getattr(phi, name) for name in type(phi).__match_args__))


@given(formulas)
def test_stored_hash_is_the_dataclass_hash(phi):
    for part in subformulas(phi):
        assert hash(part) == _fields_hash(part)
        assert hash(part) == _fields_hash(part)  # the stored value


@given(formulas)
def test_stored_sets_agree_with_the_walks(phi):
    assert list(subformulas(phi)) == list(subformulas_reference(phi))
    for part in subformulas(phi):
        assert all_vars(part) == all_vars_reference(part)
        assert consts_of(part) == consts_of_reference(part)
        assert fv(part) <= all_vars(part)
        for c in ("c", "d"):
            assert occurs_const(c, part) == (c in consts_of_reference(part))


@given(formulas)
def test_stored_sets_share_a_child_set_when_the_union_adds_nothing(phi):
    empty = fv(TOP)
    for part in subformulas(phi):
        children = (
            [part.left, part.right] if isinstance(part, And)
            else [part.body] if isinstance(part, (Diam, All)) else []
        )
        for stored in (fv, all_vars, consts_of):
            value = stored(part)
            if not value:
                assert value is empty
            elif isinstance(part, Pred):
                continue
            elif any(stored(child) == value for child in children):
                assert any(stored(child) is value for child in children)
        if isinstance(part, Pred):
            assert fv(part) is all_vars(part)


def test_stored_values_take_one_frame_per_level_of_nesting():
    # as deep as plain recursion handles with room to spare; two frames per
    # level would pass the recursion limit (`==` takes more, so not here)
    phi = P(Var(X))
    for i in range(sys.getrecursionlimit() * 2 // 5):
        phi = Diam(phi) if i % 2 else All(Y, phi)
    assert (fv(phi), all_vars(phi), consts_of(phi)) == ({X}, {X, Y}, frozenset())
    frozen = sub(phi, X, Const("c"))
    assert (fv(frozen), consts_of(frozen)) == (frozenset(), {"c"})
    assert hash(generalize(frozen, Const("c"), X)) == hash(phi) != hash(frozen)


@given(formulas, variables, terms)
def test_sub_returns_the_formula_itself_when_nothing_is_replaced(phi, x, t):
    out = sub(phi, x, t)
    assert (out is phi) == (x not in fv(phi))


@given(formulas, terms, variables)
def test_generalize_returns_the_formula_itself_when_the_term_is_absent(phi, t, x):
    occurs = t.id in fv(phi) if isinstance(t, Var) else t.name in consts_of_reference(phi)
    out = generalize(phi, t, x)
    if not occurs:
        assert out is phi
    elif not isinstance(t, Var) or t.id != x:
        assert out != phi
