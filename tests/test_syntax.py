import pytest
from hypothesis import given

from qrc1 import (
    All,
    And,
    Const,
    Diam,
    ParseError,
    Pred,
    Sequent,
    SymbolTable,
    TOP,
    Var,
    format_formula,
    format_sequent,
    parse_formula,
    parse_problem,
    parse_sequent,
    signature,
)

from conftest import SIG, formulas, parse_signature


def test_parse_top():
    assert parse_formula("T", SIG) == TOP


def test_parse_quantified_atom():
    t = SymbolTable()
    got = parse_formula("A x . S(x, c)", SIG, t)
    x = t.intern("x")
    assert got == All(x, Pred("S", (Var(x), Const("c"))))


def test_parse_sequent_with_nested_diamonds():
    t = SymbolTable()
    got = parse_sequent("<> <> P(x) ~> <> P(x)", SIG, t)
    p = Pred("P", (Var(t.intern("x")),))
    assert got == Sequent(Diam(Diam(p)), Diam(p))


def test_conjunction_is_left_associative():
    t = SymbolTable()
    got = parse_formula("P(x) & S(x, y) & T", SIG, t)
    x, y = t.intern("x"), t.intern("y")
    p = Pred("P", (Var(x),))
    s = Pred("S", (Var(x), Var(y)))
    assert got == And(And(p, s), TOP)


def test_unary_connectives_bind_tighter_than_conjunction():
    t = SymbolTable()
    assert parse_formula("<> T & T", SIG, t) == And(Diam(TOP), TOP)
    got = parse_formula("A x . P(x) & T", SIG, t)
    x = t.intern("x")
    assert got == And(All(x, Pred("P", (Var(x),))), TOP)


def test_parentheses_override_precedence():
    assert parse_formula("<> (T & T)", SIG) == Diam(And(TOP, TOP))


def test_nullary_predicate_bare_and_applied():
    assert parse_formula("R", SIG) == Pred("R", ())
    assert parse_formula("R()", SIG) == Pred("R", ())


def test_constants_versus_variables_in_term_position():
    t = SymbolTable()
    got = parse_formula("S(c, q)", SIG, t)
    assert got == Pred("S", (Const("c"), Var(t.intern("q"))))


def test_undeclared_predicate_is_an_error():
    with pytest.raises(ParseError) as e:
        parse_formula("Nope(x)", SIG)
    assert "undeclared" in str(e.value)


def test_arity_mismatch_is_an_error():
    with pytest.raises(ParseError) as e:
        parse_formula("S(x)", SIG)
    assert "expects 2" in str(e.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_formula("P(x) & & T", SIG)
    assert e.value.pos == 7


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_formula("T T", SIG)


def test_unclosed_parenthesis():
    with pytest.raises(ParseError):
        parse_formula("(T & T", SIG)


def test_reserved_words_rejected_in_term_position():
    with pytest.raises(ParseError):
        parse_formula("S(T, x)", SIG)


def test_parse_signature_declarations():
    sig = parse_signature("const c. pred S/2. pred P/1.")
    assert sig.constants == frozenset({"c"})
    assert dict(sig.predicates) == {"S": 2, "P": 1}


def test_parse_signature_rejects_reserved_and_duplicates():
    with pytest.raises(ParseError):
        parse_signature("const T.")
    with pytest.raises(ParseError):
        parse_signature("pred P/1. const P.")


def test_parse_problem_header_then_sequent():
    sig, seq = parse_problem("const c. pred P/1. A x . P(x) ~> P(c)")
    assert sig.constants == frozenset({"c"})
    assert seq.cons == Pred("P", (Const("c"),))


def test_parse_problem_without_header():
    sig, seq = parse_problem("T ~> <> T")
    assert sig.constants == frozenset()
    assert seq == Sequent(TOP, Diam(TOP))


# -- printing ----------------------------------------------------------


def test_format_uses_minimal_parentheses():
    t = SymbolTable()
    x = t.intern("x")
    p = Pred("P", (Var(x),))
    assert format_formula(And(And(p, TOP), p), t, SIG) == "P(x) & T & P(x)"
    assert format_formula(And(p, And(TOP, p)), t, SIG) == "P(x) & (T & P(x))"
    assert format_formula(Diam(And(p, TOP)), t, SIG) == "<> (P(x) & T)"
    assert format_formula(All(x, And(p, p)), t, SIG) == "A x . (P(x) & P(x))"


def test_generated_variable_names_avoid_constants():
    sig = signature(["x0"], {"P": 1})
    t = SymbolTable()
    text = format_formula(Pred("P", (Var(0),)), t, sig)
    assert text == "P(x0_)"
    assert parse_formula(text, sig, t) == Pred("P", (Var(0),))


@given(formulas)
def test_parse_after_print_is_identity(phi):
    table = SymbolTable()
    text = format_formula(phi, table, SIG)
    assert parse_formula(text, SIG, table) == phi


@given(formulas, formulas)
def test_sequent_round_trip(ante, cons):
    table = SymbolTable()
    seq = Sequent(ante, cons)
    text = format_sequent(seq, table, SIG)
    assert parse_sequent(text, SIG, table) == seq
