import hypothesis.strategies as st
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
    parse_term,
    signature,
    well_formed,
    well_formed_term,
)

from conftest import BATTERY, SIG, formulas, parse_reference, parse_signature


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


# -- agreement with the recursive parser -------------------------------

PROBLEMS = [f"const c. pred P/1. pred Q/1. pred S/2. {text}" for text, _ in BATTERY] + [
    "const c. pred P/1. pred Q/1. <> <> P(x) ~> <> P(x)",
    "const c. pred P/1. pred Q/1. A x . P(x) ~> P(c)",
    "const c. pred P/1. pred Q/1. <> P(x) ~> <> <> P(x)",
    "const c. pred P/1. pred Q/1. P(x) & Q(x) ~> Q(x) & P(x)",
    "pred S/2. A x . <> A y . S(x,y) ~> <> A y . A x . S(x,y)",
    "const c. pred P/1. const c. pred P/12. A c . P(c) ~> T",  # declares c and P twice
]

# over SIG
FORMULAS = [
    "T",
    "R",
    "R()",
    "P(x)",
    "S(c, y)",
    "((P(d)))",
    "<>(T)&(<>T)",
    "A x.A y.S(x,y)&P(x)",
    "<> A x . P(x) & R",
    "A x . <> A y . <> (P(x) & S(y, c))",
    "(<> T & (A y . S(y, d))) & <> <> R & P(x)",
    "A x . (P(x) & <> (S(x, x) & A x . R))",
    "A x .\n\t<> P(x)\r\n",
]

_INSERTED = " <>~&().,/ATxcPS0\n$é"


def _outcome(parse):
    """What a parse gives: the result and the table's names in order,
    or the error."""
    table = SymbolTable()
    try:
        out = parse(table)
    except ParseError as e:
        return "ParseError", e.message, e.pos
    except ValueError as e:
        return type(e), str(e)
    return out, list(table._ids.items())


def _assert_parsers_agree(text, what="formula"):
    """`what` is "formula", "sequent" or "term" over SIG, or "problem"."""
    def ours(table):
        if what == "problem":
            return parse_problem(text, table)
        parse = {"formula": parse_formula, "sequent": parse_sequent, "term": parse_term}[what]
        return parse(text, SIG, table)

    def reference(table):
        return parse_reference(what, text, None if what == "problem" else SIG, table)

    assert _outcome(ours) == _outcome(reference), (what, text)


def _edits(text):
    """Every deletion of one character and every insertion of one from
    `_INSERTED`."""
    for i in range(len(text)):
        yield text[:i] + text[i + 1:]
    for i in range(len(text) + 1):
        for ch in _INSERTED:
            yield text[:i] + ch + text[i:]


def test_parser_agrees_with_the_recursive_parser_on_the_corpus_and_every_one_character_edit():
    for text in PROBLEMS:
        for edited in [text, *_edits(text)]:
            _assert_parsers_agree(edited, "problem")
    for text in FORMULAS:
        _assert_parsers_agree(f"{text} ~> {text}", "sequent")
        for edited in [text, *_edits(text)]:
            _assert_parsers_agree(edited, "formula")
    for text in ["x", "c", " d ", "T", "x y", "", "(x)", "x0_"]:
        _assert_parsers_agree(text, "term")


@given(formulas, formulas)
def test_parser_agrees_with_the_recursive_parser_on_printed_formulas(ante, cons):
    text = format_sequent(Sequent(ante, cons), SymbolTable(), SIG)
    _assert_parsers_agree(text, "sequent")
    _assert_parsers_agree(f"const c. const d. pred P/1. pred S/2. pred R/0. {text}", "problem")


@given(st.text(alphabet="<>~&().,/ \t\nATxycdPSR01é", max_size=30))
def test_parser_agrees_with_the_recursive_parser_on_any_text(text):
    for what in ("formula", "sequent", "term"):
        _assert_parsers_agree(text, what)
    _assert_parsers_agree(f"pred P/1. const c. {text}", "problem")
    _assert_parsers_agree(text, "problem")


# formula texts over a few names, each used as a predicate of any arity
# and as a term, so that a text may name what a signature does not declare
_NAMES = st.sampled_from(["P", "Q", "c", "d", "x"])
_ATOM_TEXTS = st.one_of(
    st.just("T"),
    _NAMES,
    st.builds(lambda p, args: f"{p}({', '.join(args)})", _NAMES,
              st.lists(_NAMES, min_size=1, max_size=3)),
)
_FORMULA_TEXTS = st.recursive(
    _ATOM_TEXTS,
    lambda kids: st.one_of(
        st.builds("({} & {})".format, kids, kids),
        st.builds("<> {}".format, kids),
        st.builds("A {} . {}".format, _NAMES, kids),
    ),
    max_leaves=8,
)
_SIGNATURES = st.builds(
    lambda constants, predicates: signature(constants - set(predicates), predicates),
    st.sets(_NAMES), st.dictionaries(_NAMES, st.integers(0, 3)),
)


@given(_SIGNATURES, _FORMULA_TEXTS, _NAMES)
def test_what_the_parser_returns_is_well_formed(sig, text, name):
    """`check_proof` concludes from parser output without asking
    `well_formed` again: a text that parses in a signature is well-formed
    in it, since an undeclared predicate or a wrong arity does not parse,
    and a name in term position is a declared constant or else a variable."""
    try:
        phi = parse_formula(text, sig)
    except ParseError:
        pass
    else:
        assert well_formed(phi, sig)
    assert well_formed_term(parse_term(name, sig), sig)


DEEP = 10**5


def _unary_depth(phi):
    depth = 0
    while isinstance(phi, (Diam, All)):
        phi, depth = phi.body, depth + 1
    return depth, phi


@pytest.mark.parametrize("opening, closing, depth", [
    ("<> ", "", DEEP), ("A x . ", "", DEEP), ("(", ")", 0), ("<> (", ")", DEEP),
])
def test_deep_nesting_parses_without_recursion(opening, closing, depth):
    table = SymbolTable()
    phi = parse_formula(opening * DEEP + "P(x)" + closing * DEEP, SIG, table)
    assert _unary_depth(phi) == (depth, Pred("P", (Var(table.intern("x")),)))


@pytest.mark.parametrize("opening, closing", [
    ("<> ", ""), ("A x . ", ""), ("<> (", " & R)"), ("R & (", ")"), ("", " & R"),
])
def test_deep_nesting_prints_without_recursion(opening, closing):
    text = opening * DEEP + "P(x) & R" + closing * DEEP  # as the printer writes it
    table = SymbolTable()
    phi = parse_formula(text, SIG, table)
    assert format_formula(phi, table, SIG) == text
    assert format_sequent(Sequent(phi, TOP), table, SIG) == f"{text} ~> T"


def test_deep_conjunction_and_unclosed_parentheses():
    phi = parse_formula("R & " * DEEP + "T", SIG)
    for _ in range(DEEP):
        assert phi.right in (TOP, Pred("R", ()))
        phi = phi.left
    assert phi == Pred("R", ())
    text = "<> (" * DEEP + "T"
    with pytest.raises(ParseError) as e:
        parse_formula(text, SIG)
    assert (e.value.message, e.value.pos) == ("expected ')'", len(text))
