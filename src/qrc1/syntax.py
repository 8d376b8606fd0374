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

import json
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
    TOP,
    Var,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

_RESERVED = frozenset({"T", "A"})

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT)

# one token: the diamond, the arrow, an identifier, a number, or a
# punctuation mark; splitting a text on it leaves what lies between the
# tokens, which must be white space
_TOKEN_RE = re.compile(rf"(<>|~>|{_IDENT}|[0-9]+|[()&,./])")


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


_END = ""  # the token after the last one
_OPEN = "("  # on the parser's stack: an open parenthesis


def _unexpected(parts: list[str]) -> ParseError:
    """The error at the first character that is neither white space nor
    part of a token, given the split of a text on `_TOKEN_RE`."""
    k = next(k for k in range(0, len(parts), 2) if parts[k].strip())
    rest = parts[k].lstrip()
    pos = sum(map(len, parts[:k])) + len(parts[k]) - len(rest)
    return ParseError(f"unexpected character {rest[0]!r}", pos)


class _Parser:
    """A parse in progress: the tokens of `text` and the index `i` of the
    next one, read in the signature `sig`, interning variable names in
    `table`.  Formulas are read on an explicit stack (see `formula`), so
    nesting depth costs no Python frames.  Error offsets are found only
    when an error is raised, by scanning the text again."""

    __slots__ = ("text", "toks", "i", "sig", "table")

    def __init__(self, text: str, sig: Signature | None, table: SymbolTable):
        parts = _TOKEN_RE.split(text)  # between, token, between, ..., between
        if "".join(parts[::2]).strip():
            raise _unexpected(parts)
        self.text = text
        self.toks = parts[1::2]
        self.toks.append(_END)
        self.i = 0
        self.sig = sig
        self.table = table

    def error(self, message: str, at: int) -> ParseError:
        """A `ParseError` at the offset of token `at`."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
        return ParseError(message, starts[at] if at < len(starts) else len(self.text))

    def expect(self, tok: str, what: str) -> None:
        if self.toks[self.i] != tok:
            raise self.error(f"expected {what}", self.i)
        self.i += 1

    def expect_end(self) -> None:
        if self.toks[self.i] != _END:
            raise self.error("unexpected trailing input", self.i)

    def name(self, what: str) -> str:
        """The next token, which must be an identifier other than a
        reserved word."""
        name = self.toks[self.i]
        if not name.isidentifier():
            raise self.error(f"expected {what}", self.i)
        if name in _RESERVED:
            raise self.error(f"{name!r} is a reserved word", self.i)
        self.i += 1
        return name

    # -- declarations ------------------------------------------------

    def declarations(self) -> Signature:
        constants: set[str] = set()
        predicates: dict[str, int] = {}
        toks = self.toks
        while toks[self.i] in ("const", "pred"):
            keyword = toks[self.i]
            self.i += 1
            name = self.name("a name")
            if name in constants or name in predicates:
                raise self.error(f"duplicate declaration of {name!r}", self.i - 1)
            if keyword == "const":
                constants.add(name)
            else:
                self.expect("/", "'/'")
                digits = toks[self.i]
                if not digits.isdigit():
                    raise self.error("expected an arity", self.i)
                try:
                    predicates[name] = int(digits)
                except ValueError:  # past CPython's limit on digits converted
                    raise self.error("arity too large", self.i) from None
                self.i += 1
            self.expect(".", "'.'")
        return Signature(frozenset(constants), predicates)

    # -- formulas ----------------------------------------------------

    def sequent(self) -> Sequent:
        ante = self.formula()
        self.expect("~>", "'~>'")
        return Sequent(ante, self.formula())

    def formula(self) -> Formula:
        """Precedence climbing on one stack of the connectives still open
        to the left of the next token: None for ``<>``, a variable number
        for ``A x .``, `_OPEN` for ``(``, and a formula for the left side
        of ``&``.  The unary connectives bind tighter than ``&``, which is
        left-associative, so at most one left side waits above each open
        parenthesis (or the bottom of the stack)."""
        toks = self.toks
        stack: list[Any] = []
        while True:
            tok = toks[self.i]
            self.i += 1
            if tok == "<>":
                stack.append(None)
                continue
            if tok == "A":
                name = self.name("a variable name")
                self.expect(".", "'.'")
                stack.append(self.table.intern(name))
                continue
            if tok == _OPEN:
                stack.append(_OPEN)
                continue
            if tok == "T":
                phi: Formula = TOP
            elif tok.isidentifier():
                phi = self.predicate(tok)
            else:
                raise self.error("expected a formula", self.i - 1)
            # phi is an atom: close what it completes
            while True:
                while stack:
                    top = stack[-1]
                    if top is None:
                        phi = Diam(phi)
                    elif type(top) is int:
                        phi = All(top, phi)
                    else:
                        break
                    stack.pop()
                if stack and stack[-1] is not _OPEN:
                    phi = And(stack.pop(), phi)
                tok = toks[self.i]
                if tok == "&":
                    stack.append(phi)
                    self.i += 1
                    break
                if not stack:
                    return phi
                if tok != ")":
                    raise self.error("expected ')'", self.i)
                stack.pop()
                self.i += 1

    def predicate(self, name: str) -> Pred:
        """The atom of the predicate `name`, the token just read, after
        its arguments, if any."""
        at = self.i - 1
        toks = self.toks
        args: list[Term] = []
        if toks[self.i] == "(":
            self.i += 1
            if toks[self.i] != ")":
                args.append(self.term())
                while toks[self.i] == ",":
                    self.i += 1
                    args.append(self.term())
            self.expect(")", "')'")
        assert self.sig is not None
        arity = self.sig.predicates.get(name)
        if arity is None:
            raise self.error(f"undeclared predicate {name!r}", at)
        if arity != len(args):
            raise self.error(
                f"predicate {name!r} expects {arity} argument(s), got {len(args)}", at
            )
        return Pred(name, tuple(args))

    def term(self) -> Term:
        name = self.name("a term")
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


# -- model and proof files: the JSON object and its signature block ----


def document_from_json(
    data: str | dict[str, Any], kind: str, error: type[ValueError]
) -> tuple[dict[str, Any], Signature]:
    """A model or proof file's JSON object, decoded when given as text, and
    its signature block, read by `signature_from_json`.  Anything malformed
    raises `error`."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise error(f"invalid JSON: {e}") from e
        except ValueError:  # an integer past CPython's limit on digits converted
            raise error("invalid JSON: integer too large") from None
    if not isinstance(data, dict):
        raise error(f"{kind} file must be a JSON object")
    return data, signature_from_json(data.get("signature"), error)


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
    return _fmt(phi, table, _avoid(sig))


def format_sequent(
    seq: Sequent, table: SymbolTable | None = None, sig: Signature | None = None
) -> str:
    table = table or SymbolTable()
    avoid = _avoid(sig)
    return f"{_fmt(seq.ante, table, avoid)} ~> {_fmt(seq.cons, table, avoid)}"


def _fmt(phi: Formula, table: SymbolTable, avoid: frozenset[str]) -> str:
    """The text of `phi`, written on an explicit stack of what is still to
    be written: formulas and literal strings.  A conjunction is
    parenthesized where it is the body of a unary connective or the right
    side of ``&``, which is left-associative."""
    out: list[str] = []
    todo: list[Any] = [phi]
    while todo:
        phi = todo.pop()
        kind = type(phi)
        if kind is str:
            out.append(phi)
        elif kind is Pred:
            if not phi.args:
                out.append(phi.name)
            else:
                args = ", ".join(
                    a.name if type(a) is Const else table.name_of(a.id, avoid)
                    for a in phi.args
                )
                out.append(f"{phi.name}({args})")
        elif kind is And:
            right = phi.right
            todo += (")", right, "(", " & ") if type(right) is And else (right, " & ")
            todo.append(phi.left)
        elif kind is Diam or kind is All:
            out.append("<> " if kind is Diam else f"A {table.name_of(phi.var, avoid)} . ")
            body = phi.body
            todo += (")", body, "(") if type(body) is And else (body,)
        else:  # Top
            out.append("T")
    return "".join(out)
