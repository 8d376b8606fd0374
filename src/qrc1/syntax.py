"""Concrete ASCII grammar for terms, formulas, sequents, and signatures.

Grammar::

    sequent  := formula "~>" formula
    formula  := unary ("&" unary)*          # "&" is left-associative
    unary    := "<>" unary                  # diamond
              | "A" IDENT "." unary         # universal quantifier
              | atom
    atom     := "T"                         # verum
              | IDENT [ "(" terms ")" ]     # predicate (bare for arity 0)
              | "(" formula ")"
    terms    := IDENT ("," IDENT)*

Signature headers may precede a formula or sequent, one declaration per
``.``-terminated clause: ``const c.`` and ``pred S/2.``

``T`` and ``A`` are reserved words and cannot be declared or used as
names.  An identifier in term position denotes a declared constant if
there is one, otherwise a variable.  Variable identifiers are mapped to
variable numbers through a `SymbolTable`, one per file or session, in
order of first appearance; printing with the same table restores the
original spelling, so parse and print round-trip.
"""

from __future__ import annotations

import re

from .language import (
    All,
    And,
    Const,
    Diam,
    Formula,
    Pred,
    Sequent,
    Signature,
    Term,
    Top,
    TOP,
    Var,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

_RESERVED = frozenset({"T", "A"})

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT)

_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<diam><>)
      | (?P<arrow>~>)
      | (?P<ident>{_IDENT})
      | (?P<num>[0-9]+)
      | (?P<punct>[()&,./])
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Malformed input; `pos` is a character offset into the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.message = message
        self.pos = pos


class SymbolTable:
    """Bijection between variable identifiers and variable numbers.

    Parsing interns identifiers in order of first appearance; printing
    looks names up, generating an unused one when a number was never
    seen.  Sharing one table between printing and parsing makes the
    round trip exact.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: dict[int, str] = {}
        self._next = 0

    def intern(self, name: str) -> int:
        if name in self._ids:
            return self._ids[name]
        while self._next in self._names:
            self._next += 1
        vid = self._next
        self._next += 1
        self._ids[name] = vid
        self._names[vid] = name
        return vid

    def name_of(self, vid: int, avoid: frozenset[str] = frozenset()) -> str:
        if vid in self._names:
            return self._names[vid]
        name = f"x{vid}"
        while name in self._ids or name in avoid or name in _RESERVED:
            name += "_"
        self._ids[name] = vid
        self._names[vid] = name
        return name


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            toks.append((value if kind == "punct" else kind, value, pos))
        pos = m.end()
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, sig: Signature | None, table: SymbolTable):
        self.sig = sig
        self.table = table
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what or kind}", tok[2])
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected trailing input", tok[2])

    # -- declarations ------------------------------------------------

    def declarations(self) -> Signature:
        constants: set[str] = set()
        predicates: dict[str, int] = {}
        while self.peek()[0] == "ident" and self.peek()[1] in ("const", "pred"):
            _, keyword, _ = self.advance()
            _, name, pos = self.expect("ident", "a name")
            if name in _RESERVED:
                raise ParseError(f"{name!r} is a reserved word", pos)
            if name in constants or name in predicates:
                raise ParseError(f"duplicate declaration of {name!r}", pos)
            if keyword == "const":
                constants.add(name)
            else:
                self.expect("/", "'/'")
                _, digits, _ = self.expect("num", "an arity")
                predicates[name] = int(digits)
            self.expect(".", "'.'")
        return Signature(frozenset(constants), predicates)

    # -- formulas ----------------------------------------------------

    def sequent(self) -> Sequent:
        ante = self.formula()
        self.expect("arrow", "'~>'")
        return Sequent(ante, self.formula())

    def formula(self) -> Formula:
        left = self.unary()
        while self.peek()[0] == "&":
            self.advance()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "diam":
            self.advance()
            return Diam(self.unary())
        if kind == "ident" and value == "A":
            self.advance()
            _, name, npos = self.expect("ident", "a variable name")
            if name in _RESERVED:
                raise ParseError(f"{name!r} is a reserved word", npos)
            self.expect(".", "'.'")
            return All(self.table.intern(name), self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.advance()
        if kind == "(":
            inner = self.formula()
            self.expect(")", "')'")
            return inner
        if kind != "ident":
            raise ParseError("expected a formula", pos)
        if value == "T":
            return TOP
        args: list[Term] | None = None
        if self.peek()[0] == "(":
            self.advance()
            args = []
            if self.peek()[0] != ")":
                args.append(self.term())
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.term())
            self.expect(")", "')'")
        assert self.sig is not None
        arity = self.sig.predicates.get(value)
        if arity is None:
            raise ParseError(f"undeclared predicate {value!r}", pos)
        got = len(args) if args is not None else 0
        if arity != got:
            raise ParseError(
                f"predicate {value!r} expects {arity} argument(s), got {got}", pos
            )
        return Pred(value, tuple(args or ()))

    def term(self) -> Term:
        _, name, pos = self.expect("ident", "a term")
        if name in _RESERVED:
            raise ParseError(f"{name!r} is a reserved word", pos)
        assert self.sig is not None
        if name in self.sig.constants:
            return Const(name)
        return Var(self.table.intern(name))


def is_name(text: object) -> bool:
    """Whether `text` is one identifier the parser takes as a variable or
    constant name: not a reserved word."""
    return (
        isinstance(text, str)
        and _IDENT_RE.fullmatch(text) is not None
        and text not in _RESERVED
    )


def parse_formula(text: str, sig: Signature, table: SymbolTable | None = None) -> Formula:
    p = _Parser(text, sig, table or SymbolTable())
    out = p.formula()
    p.expect_end()
    return out


def parse_sequent(text: str, sig: Signature, table: SymbolTable | None = None) -> Sequent:
    p = _Parser(text, sig, table or SymbolTable())
    out = p.sequent()
    p.expect_end()
    return out


def parse_term(text: str, sig: Signature, table: SymbolTable | None = None) -> Term:
    p = _Parser(text, sig, table or SymbolTable())
    out = p.term()
    p.expect_end()
    return out


def parse_problem(text: str, table: SymbolTable | None = None) -> tuple[Signature, Sequent]:
    """Parse optional signature declarations followed by a sequent."""
    p = _Parser(text, None, table or SymbolTable())
    p.sig = p.declarations()
    seq = p.sequent()
    p.expect_end()
    return p.sig, seq


# -- signature blocks of model and proof files -----------------------


def signature_to_json(sig: Signature) -> dict[str, Any]:
    """The ``"signature"`` block of model and proof files."""
    return {
        "constants": sorted(sig.constants),
        "predicates": dict(sorted(sig.predicates.items())),
    }


def signature_from_json(obj: Any, error: type[ValueError]) -> Signature:
    """Read a ``"signature"`` block, the inverse of `signature_to_json`.
    It declares what a header may: distinct names, none reserved, and
    natural-number arities.  Anything else raises `error`."""
    if not isinstance(obj, dict):
        raise error("missing or malformed 'signature'")
    constants = obj.get("constants", [])
    predicates = obj.get("predicates", {})
    if not isinstance(constants, list) or not isinstance(predicates, dict):
        raise error("malformed signature: 'constants' must be a list, 'predicates' an object")
    for name in [*constants, *predicates]:
        if not is_name(name):
            raise error(f"malformed signature: {name!r} cannot be declared")
    for name, arity in predicates.items():
        if type(arity) is not int or arity < 0:
            raise error(f"malformed signature: predicate {name!r} has arity {arity!r}")
    if len(set(constants)) != len(constants):
        raise error("malformed signature: a constant is declared twice")
    try:
        return Signature(frozenset(constants), dict(predicates))
    except ValueError as e:
        raise error(f"malformed signature: {e}") from e


# -- printing --------------------------------------------------------

_CONJ, _UNARY = 0, 1


def _avoid(sig: Signature | None) -> frozenset[str]:
    return sig.constants if sig is not None else frozenset()


def format_term(t: Term, table: SymbolTable | None = None, sig: Signature | None = None) -> str:
    table = table or SymbolTable()
    if isinstance(t, Const):
        return t.name
    return table.name_of(t.id, _avoid(sig))


def format_formula(
    phi: Formula, table: SymbolTable | None = None, sig: Signature | None = None
) -> str:
    table = table or SymbolTable()
    return _fmt(phi, table, _avoid(sig), _CONJ)


def format_sequent(
    seq: Sequent, table: SymbolTable | None = None, sig: Signature | None = None
) -> str:
    table = table or SymbolTable()
    avoid = _avoid(sig)
    return f"{_fmt(seq.ante, table, avoid, _CONJ)} ~> {_fmt(seq.cons, table, avoid, _CONJ)}"


def _fmt(phi: Formula, table: SymbolTable, avoid: frozenset[str], level: int) -> str:
    if isinstance(phi, Top):
        return "T"
    if isinstance(phi, Pred):
        if not phi.args:
            return phi.name
        args = ", ".join(
            a.name if isinstance(a, Const) else table.name_of(a.id, avoid)
            for a in phi.args
        )
        return f"{phi.name}({args})"
    if isinstance(phi, Diam):
        return f"<> {_fmt(phi.body, table, avoid, _UNARY)}"
    if isinstance(phi, All):
        name = table.name_of(phi.var, avoid)
        return f"A {name} . {_fmt(phi.body, table, avoid, _UNARY)}"
    # conjunction: parenthesized whenever it appears under a unary connective
    text = f"{_fmt(phi.left, table, avoid, _CONJ)} & {_fmt(phi.right, table, avoid, _UNARY)}"
    return f"({text})" if level == _UNARY else text
