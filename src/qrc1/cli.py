"""Command-line front end.

Exit codes: 0 success (for `decide`: proved), 1 negative result (invalid
proof, inadequate model, refuted sequent), 2 search exhausted, 64 usage
errors, 65 parse or file-format errors and input nested too deep, 70
internal errors, 74 a closed standard output.
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
from .calculus import CheckError, ProofFormatError, _gc_paused
from .semantics import ModelFormatError
from .syntax import ParseError, SymbolTable

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

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
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("sat", help="evaluate a formula in a model file")
    p.add_argument("model", help="path to a .qkm model file")
    p.add_argument("--world", type=int, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", default="", help='overrides, e.g. "x=2,y=0"')
    p.add_argument("--default", type=int, default=0, dest="default_elem")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("adequate", help="print the adequacy report of a model file")
    p.add_argument("model", help="path to a .qkm model file")
    p.add_argument("--json", action="store_true", dest="as_json")

    for name, help_text in (
        ("countermodel", "search for a countermodel to a sequent"),
        ("decide", "run proof search and countermodel search together"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("sequent", help="optional `const c.`/`pred S/2.` header, then `f ~> g`")
        p.add_argument("--max-worlds", type=count, default=4)
        p.add_argument("--max-domain", type=count, default=3)
        if name == "decide":
            p.add_argument("--max-depth", type=count, default=8)
        p.add_argument("--timeout", type=seconds, default=None, metavar="SECS")
        p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser(
        "soundness",
        help="probe a proof's conclusion on generated adequate models "
        "(seeded by QRC1_SEED)",
    )
    p.add_argument("proof", help="path to a .qpf proof file")
    p.add_argument("--models", type=count, default=200)
    p.add_argument("--samples", type=count, default=8)
    p.add_argument("--max-worlds", type=count, default=4)
    p.add_argument("--max-domain", type=count, default=3)
    p.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ModelFormatError(f"cannot read {path}: {e.strerror}") from e


def _assign_overrides(spec: str, table: SymbolTable) -> dict[int, int]:
    overrides: dict[int, int] = {}
    if not spec.strip():
        return overrides
    for part in spec.split(","):
        name, eq, value = part.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ParseError(f"bad assignment entry {part!r}", 0)
        try:
            overrides[table.intern(name)] = int(value.strip())
        except ValueError:
            raise ParseError(f"bad assignment value in {part!r}", 0) from None
    return overrides


def _cmd_check(args: argparse.Namespace) -> int:
    # the whole command builds only acyclic data, freed when it returns
    with _gc_paused():
        loaded = calculus.load_proof(_read(args.proof))
        try:
            seq = calculus.check(loaded.derivation, loaded.sig)
        except CheckError as e:
            if args.as_json:
                print(json.dumps({
                    "ok": False,
                    "rule": e.rule,
                    "path": list(e.path),
                    "reason": e.reason,
                    "detail": e.detail,
                }))
            else:
                print(f"check error: {e}")
            return 1
        text = syntax.format_sequent(seq, loaded.table, loaded.sig)
        print(json.dumps({"ok": True, "sequent": text}) if args.as_json else text)
        return 0


def _cmd_sat(args: argparse.Namespace) -> int:
    raw = semantics.load_model(_read(args.model))
    table = SymbolTable()
    phi = syntax.parse_formula(args.formula, raw.sig, table)
    overrides = _assign_overrides(args.assign, table)
    try:
        g = semantics.assignment(raw, args.world, args.default_elem, overrides)
    except ValueError as e:
        raise ModelFormatError(str(e)) from e
    value = semantics.sat(raw, args.world, g, phi)
    print(json.dumps({"value": value}) if args.as_json else str(value).lower())
    return 0


def _cmd_adequate(args: argparse.Namespace) -> int:
    raw = semantics.load_model(_read(args.model))
    report = semantics.check_adequacy(raw)
    if args.as_json:
        print(json.dumps({
            **{label: good for label, good, _ in report.checks},
            "witnesses": {label: witness for label, _, witness in report.checks},
            "adequate": report.ok,
        }))
    else:
        for label, good, witness in report.checks:
            print(f"{label}: {'ok' if good else f'FAIL witness={witness}'}")
        print(f"adequate: {'yes' if report.ok else 'no'}")
    return 0 if report.ok else 1


def _witness_json(
    model: semantics.Model, world: int, g: semantics.Assignment, table: SymbolTable
) -> dict[str, Any]:
    return {
        "model": semantics.dump_model(model),
        "world": world,
        "assignment": {
            "default": g.default,
            "overrides": {table.name_of(x): v for x, v in sorted(g.overrides.items())},
        },
    }


def _witness_note(g: semantics.Assignment, table: SymbolTable) -> str:
    parts = [f"default={g.default}"]
    parts += [f"{table.name_of(x)}={v}" for x, v in sorted(g.overrides.items())]
    return ", ".join(parts)


def _cmd_countermodel(args: argparse.Namespace) -> int:
    table = SymbolTable()
    sig, seq = syntax.parse_problem(args.sequent, table)
    bounds = search.SearchBounds(
        max_worlds=args.max_worlds,
        max_domain=args.max_domain,
        deadline=args.timeout,
    )
    outcome = search.refute(sig, seq, bounds)
    if isinstance(outcome, search.Exhausted):
        reason = outcome.reason
        print(json.dumps({"found": False, "reason": reason}) if args.as_json else reason)
        return 2
    model, world, g = outcome.model, outcome.world, outcome.assignment
    if args.as_json:
        print(json.dumps({"found": True, **_witness_json(model, world, g, table)}))
    else:
        print(f"countermodel: world {world}, {_witness_note(g, table)}", file=sys.stderr)
        print(semantics.dumps_model(model))
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    table = SymbolTable()
    sig, seq = syntax.parse_problem(args.sequent, table)
    bounds = search.SearchBounds(
        max_worlds=args.max_worlds,
        max_domain=args.max_domain,
        max_proof_depth=args.max_depth,
        deadline=args.timeout,
    )
    outcome = search.decide(seq, sig, bounds)
    if isinstance(outcome, search.Proved):
        proof = calculus.dump_proof(
            outcome.derivation, calculus.used_signature(sig, outcome.derivation), table
        )
        if args.as_json:
            print(json.dumps({"outcome": "Proved", "proof": proof["proof"],
                              "signature": proof["signature"]}))
        else:
            print("Proved", file=sys.stderr)
            print(json.dumps(proof, indent=2))
        return 0
    if isinstance(outcome, search.Refuted):
        if args.as_json:
            print(json.dumps({"outcome": "Refuted",
                              **_witness_json(outcome.model, outcome.world,
                                              outcome.assignment, table)}))
        else:
            print(
                f"Refuted: world {outcome.world}, "
                f"{_witness_note(outcome.assignment, table)}",
                file=sys.stderr,
            )
            print(semantics.dumps_model(outcome.model))
        return 1
    if args.as_json:
        print(json.dumps({"outcome": "Exhausted", "reason": outcome.reason}))
    else:
        print(f"Exhausted: {outcome.reason}", file=sys.stderr)
    return 2


def _cmd_soundness(args: argparse.Namespace) -> int:
    import random

    loaded = calculus.load_proof(_read(args.proof))
    seq = calculus.check(loaded.derivation, loaded.sig)  # raises CheckError via main
    seed = int(os.environ.get("QRC1_SEED", "0"))
    bounds = generate.GenBounds(max_worlds=args.max_worlds, max_domain=args.max_domain)
    models = islice(generate.generate_models(loaded.sig, bounds, seed), args.models)
    hit = search.soundness_check(
        loaded.derivation, models, args.samples, random.Random(seed)
    )
    if hit is None:
        text = f"no counterexample over {args.models} models (seed {seed})"
        print(json.dumps({"counterexample": False, "models": args.models,
                          "seed": seed}) if args.as_json else text)
        return 0
    model, world, g = hit
    if args.as_json:
        print(json.dumps({"counterexample": True,
                          **_witness_json(model, world, g, loaded.table)}))
    else:
        print("counterexample found (kernel bug):", file=sys.stderr)
        print(semantics.dumps_model(model))
    return 1


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
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a closed standard output shows here
        return code
    except (ParseError, ProofFormatError, ModelFormatError, json.JSONDecodeError) as e:
        print(f"qrc1: {e}", file=sys.stderr)
        return EX_DATA
    except CheckError as e:
        print(f"qrc1: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"qrc1: {e}", file=sys.stderr)
        return EX_DATA
    except RecursionError:
        print("qrc1: nesting too deep: input exceeds the recursion limit", file=sys.stderr)
        return EX_DATA
    except BrokenPipeError:
        # the reader is gone; writing the rest to os.devnull keeps the
        # flush at exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_IOERR
    except Exception as e:  # any other escape would exit 1, a verdict
        print(f"qrc1: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
