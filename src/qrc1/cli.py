"""Command-line front end.

Exit codes: 0 success (for `decide`: proved), 1 negative result (invalid
proof, inadequate model, refuted sequent), 2 search exhausted, 64 usage
errors, 65 parse or file-format errors and input nested too deep, 70
internal errors, 74 a failed write to standard output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import islice

from . import calculus, generate, search, semantics, syntax
from .calculus import _gc_paused
from .semantics import ModelFormatError
from .syntax import ParseError, SymbolTable

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

    from .language import Sequent, Signature

EX_USAGE = 64
EX_DATA = 65
EX_INTERNAL = 70
EX_IOERR = 74


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def count(text: str) -> int:
    """An argparse type, named for its error message: an int of at least 1."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def seconds(text: str) -> float:
    """An argparse type, named for its error message: a positive, finite float."""
    if not 0 < float(text) < math.inf:
        raise ValueError(text)
    return float(text)


@functools.cache  # one parser per process: `parse_args` keeps no state in it
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="qrc1", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a proof file and print the proved sequent")
    p.add_argument("proof", help="path to a .qpf proof file")

    p = sub.add_parser("sat", help="evaluate a formula in a model file")
    p.add_argument("model", help="path to a .qkm model file")
    p.add_argument("--world", type=int, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", default="", help='overrides, e.g. "x=2,y=0"')
    p.add_argument("--default", type=int, default=0, dest="default_elem")

    p = sub.add_parser("adequate", help="print the adequacy report of a model file")
    p.add_argument("model", help="path to a .qkm model file")

    bounds = search.SearchBounds()
    for name, help_text in (
        ("countermodel", "search for a countermodel to a sequent"),
        ("decide", "run proof search and countermodel search together"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("sequent", help="optional `const c.`/`pred S/2.` header, then `f ~> g`")
        p.add_argument("--max-worlds", type=count, default=bounds.max_worlds)
        p.add_argument("--max-domain", type=count, default=bounds.max_domain)
        if name == "decide":
            p.add_argument("--max-depth", type=count, default=bounds.max_proof_depth)
        p.add_argument("--timeout", type=seconds, default=None, metavar="SECS")

    p = sub.add_parser(
        "soundness",
        help="probe a proof's conclusion on generated adequate models (seeded by QRC1_SEED)",
    )
    p.add_argument("proof", help="path to a .qpf proof file")
    p.add_argument("--models", type=count, default=200)
    p.add_argument("--samples", type=count, default=8)
    gen = generate.GenBounds()
    p.add_argument("--max-worlds", type=count, default=gen.max_worlds)
    p.add_argument("--max-domain", type=count, default=gen.max_domain)
    for p in sub.choices.values():  # last, where each command's help lists it
        p.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ModelFormatError(f"cannot read {path}: {e.strerror}") from e


def _assign_overrides(spec: str, sig: Signature) -> dict[str, int]:
    """The --assign entries, ``name=value``, by variable name: a name the
    formula parser would read as a variable, so not a declared constant.
    A syntax error's offset is where its entry starts in `spec`."""
    overrides: dict[str, int] = {}
    if not spec.strip():
        return overrides
    at = 0
    for part in spec.split(","):
        start, at = at, at + len(part) + 1
        name, eq, value = part.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ParseError(f"bad assignment entry {part!r}", start)
        if not syntax.is_name(name):
            raise ValueError(f"cannot assign {name!r}: not a variable name")
        if name in sig.constants:
            raise ValueError(f"cannot assign {name}: it is a declared constant, not a variable")
        try:
            overrides[name] = int(value.strip())
        except ValueError:
            raise ParseError(f"bad assignment value in {part!r}", start) from None
    return overrides


def _write(
    args: argparse.Namespace, code: int, doc: dict[str, Any],
    text: str | dict[str, Any] | None = None, note: str | None = None,
) -> int:
    """Print a command's result and return its exit code: `code`, or
    `EX_IOERR` when standard output cannot be written.  Under --json that
    is the document `doc`; otherwise `note` on stderr, then `text` on
    stdout, as is when a string and as indented JSON (a certificate file)
    otherwise.  Only the form printed is serialized."""
    if args.as_json:
        out = json.dumps(doc)
    else:
        if note is not None:
            print(note, file=sys.stderr)
        out = text if text is None or isinstance(text, str) else json.dumps(text, indent=2)
    try:
        if out is not None:
            print(out)
        sys.stdout.flush()  # so that a failed write shows here
    except OSError as e:
        # pointing stdout at os.devnull keeps the flush at exit from
        # raising again; a reader that went away needs no message
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        if not isinstance(e, BrokenPipeError):
            print(f"qrc1: cannot write output: {e.strerror or e}", file=sys.stderr)
        return EX_IOERR
    return code


def _witness(
    table: SymbolTable, model: semantics.Model, world: int, g: semantics.Assignment
) -> tuple[dict[str, Any], str]:
    """A countermodel's JSON fields (model, world, assignment) and its
    note (world, assignment)."""
    overrides = {table.name_of(x): v for x, v in sorted(g.overrides.items())}
    fields = {"model": semantics.dump_model(model), "world": world,
              "assignment": {"default": g.default, "overrides": overrides}}
    return fields, ", ".join([f"world {world}", f"default={g.default}",
                              *(f"{x}={v}" for x, v in overrides.items())])


def _rejected(args: argparse.Namespace, checked: calculus.CheckedProof) -> int:
    """Report the kernel's rejection of a proof file, as `check` does."""
    e = checked.error
    return _write(args, 1, {"ok": False, "rule": e.rule, "path": list(e.path),
                            "reason": e.reason, "detail": e.detail,
                            "nodes": checked.nodes, "depth": checked.depth},
                  f"check error: {e}")


def _cmd_check(args: argparse.Namespace) -> int:
    # the whole command, its output included, builds only acyclic data,
    # freed when it returns
    with _gc_paused():
        checked = calculus.check_proof(_read(args.proof))
        if checked.error is not None:
            return _rejected(args, checked)
        text = syntax.format_sequent(checked.sequent, checked.table, checked.sig)
        return _write(args, 0, {"ok": True, "sequent": text, "nodes": checked.nodes,
                                "depth": checked.depth}, text)


def _cmd_sat(args: argparse.Namespace) -> int:
    raw = semantics.load_model(_read(args.model))
    table = SymbolTable()
    phi = syntax.parse_formula(args.formula, raw.sig, table)
    named = _assign_overrides(args.assign, raw.sig)
    try:
        g = semantics.assignment(raw, args.world, args.default_elem)
    except ValueError as e:
        raise ModelFormatError(str(e)) from e
    for name, d in named.items():
        if not 0 <= d < raw.frame.domains[g.world]:
            raise ModelFormatError(f"override {name}={d} outside the domain")
    g = semantics.Assignment(g.world, g.default, {table.intern(x): d for x, d in named.items()})
    value = semantics.sat(raw, args.world, g, phi)
    return _write(args, 0, {"value": value}, str(value).lower())


def _cmd_adequate(args: argparse.Namespace) -> int:
    report = semantics.check_adequacy(semantics.load_model(_read(args.model)))
    lines = [f"{label}: {'ok' if good else f'FAIL witness={witness}'}"
             for label, good, witness in report.checks]
    return _write(args, 0 if report.ok else 1, {
        **{label: good for label, good, _ in report.checks},
        "witnesses": {label: witness for label, _, witness in report.checks},
        "adequate": report.ok,
    }, "\n".join([*lines, f"adequate: {'yes' if report.ok else 'no'}"]))


def _problem(
    args: argparse.Namespace,
) -> tuple[SymbolTable, Signature, Sequent, search.SearchBounds]:
    """The sequent argument of `countermodel` or `decide`, parsed, and
    the search bounds its options give (`countermodel` has no depth)."""
    table = SymbolTable()
    sig, seq = syntax.parse_problem(args.sequent, table)
    return table, sig, seq, search.SearchBounds(
        max_worlds=args.max_worlds, max_domain=args.max_domain,
        max_proof_depth=getattr(args, "max_depth", search.SearchBounds().max_proof_depth),
        deadline=args.timeout,
    )


def _cmd_countermodel(args: argparse.Namespace) -> int:
    table, sig, seq, bounds = _problem(args)
    outcome = search.refute(sig, seq, bounds)
    if isinstance(outcome, search.Exhausted):
        return _write(args, 2, {"found": False, "reason": outcome.reason}, outcome.reason)
    fields, where = _witness(table, outcome.model, outcome.world, outcome.assignment)
    return _write(args, 0, {"found": True, **fields}, fields["model"], f"countermodel: {where}")


def _cmd_decide(args: argparse.Namespace) -> int:
    table, sig, seq, bounds = _problem(args)
    outcome = search.decide(seq, sig, bounds)
    if isinstance(outcome, search.Proved):
        proof = calculus.dump_proof(outcome.derivation, outcome.sig, table)
        return _write(args, 0, {"outcome": "Proved", "proof": proof["proof"],
                                "signature": proof["signature"]}, proof, "Proved")
    if isinstance(outcome, search.Refuted):
        fields, where = _witness(table, outcome.model, outcome.world, outcome.assignment)
        return _write(args, 1, {"outcome": "Refuted", **fields}, fields["model"],
                      f"Refuted: {where}")
    return _write(args, 2, {"outcome": "Exhausted", "reason": outcome.reason},
                  note=f"Exhausted: {outcome.reason}")


def _cmd_soundness(args: argparse.Namespace) -> int:
    import random

    setting = os.environ.get("QRC1_SEED", "0")
    try:
        seed = int(setting)
    except ValueError:
        print(f"qrc1: QRC1_SEED must be an integer, got {setting!r}", file=sys.stderr)
        return EX_USAGE
    checked = calculus.check_proof(_read(args.proof))
    if checked.error is not None:
        return _rejected(args, checked)
    bounds = generate.GenBounds(max_worlds=args.max_worlds, max_domain=args.max_domain)
    models = islice(generate.generate_models(checked.sig, bounds, seed), args.models)
    hit = search.soundness_check(checked.sequent, models, args.samples, random.Random(seed))
    if hit is None:
        return _write(args, 0, {"counterexample": False, "models": args.models, "seed": seed},
                      f"no counterexample over {args.models} models (seed {seed})")
    fields, _ = _witness(checked.table, *hit)
    return _write(args, 1, {"counterexample": True, **fields}, fields["model"],
                  "counterexample found (kernel bug):")


_COMMANDS = {
    "check": _cmd_check,
    "sat": _cmd_sat,
    "adequate": _cmd_adequate,
    "countermodel": _cmd_countermodel,
    "decide": _cmd_decide,
    "soundness": _cmd_soundness,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as e:
        print(f"qrc1: {e}", file=sys.stderr)
        return EX_DATA
    except RecursionError:
        print("qrc1: nesting too deep: input exceeds the recursion limit", file=sys.stderr)
        return EX_DATA
    except MemoryError:  # formatting the error could need memory too
        print("qrc1: out of memory", file=sys.stderr)
        return EX_INTERNAL
    except Exception as e:  # any other escape would exit 1, a verdict
        print(f"qrc1: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
