import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import qrc1
from qrc1 import (
    TOP,
    Diam,
    Pred,
    RawFrame,
    RawModel,
    Var,
    ax_trans,
    dump_model,
    dumps_model,
    dumps_proof,
    signature,
    used_signature,
)
from qrc1.cli import main

from conftest import MANY_VARIABLES, single_world_model

SIG = signature(["c"], {"P": 1})


@pytest.fixture()
def trans_proof(tmp_path):
    from qrc1 import SymbolTable

    table = SymbolTable()
    x = table.intern("x")
    path = tmp_path / "trans.qpf"
    path.write_text(dumps_proof(ax_trans(Pred("P", (Var(x),))), SIG, table))
    return str(path)


@pytest.fixture()
def one_world(tmp_path):
    path = tmp_path / "one_world.qkm"
    path.write_text(dumps_model(single_world_model(SIG, size=1)))
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check -------------------------------------------------------------


def test_check_prints_the_proved_sequent(capsys, trans_proof):
    code, out, _ = run(capsys, "check", trans_proof)
    assert code == 0
    assert out.strip() == "<> <> P(x) ~> <> P(x)"


# the kernel rejects it: x is free in the antecedent of AllIr's premise
REJECTED = {
    "signature": {"constants": [], "predicates": {"P": 1}},
    "proof": {
        "rule": "AllIr",
        "params": {"x": "x"},
        "premises": [
            {"rule": "Refl", "params": {"phi": "P(x)"}, "premises": []}
        ],
    },
}


def test_check_reports_invalid_proofs(capsys, tmp_path):
    path = tmp_path / "bad.qpf"
    path.write_text(json.dumps(REJECTED))
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert "var-not-fresh" in out + err


def test_check_rejects_malformed_files(capsys, tmp_path):
    path = tmp_path / "junk.qpf"
    path.write_text("{ not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == 65


def test_missing_file_is_a_data_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/nothing.qpf")
    assert code == 65


def _leaf(rule, **params):
    return {"rule": rule, "params": params, "premises": []}


@pytest.mark.parametrize("proof, code, doc, text", [
    ({"rule": "Cut", "params": {}, "premises": [
        {"rule": "AndI", "params": {}, "premises": [
            _leaf("Refl", phi="P(c)"), _leaf("Top", phi="P(c)")]},
        _leaf("AndEr", phi="P(c)", psi="T")]},
     0, {"ok": True, "sequent": "P(c) ~> T", "nodes": 5, "depth": 3}, "P(c) ~> T\n"),
    # the file is read to its end after the kernel has failed
    ({"rule": "AndI", "params": {}, "premises": [
        {"rule": "AllIr", "params": {"x": "x"}, "premises": [_leaf("Refl", phi="P(x)")]},
        {"rule": "Nec", "params": {}, "premises": [
            {"rule": "Nec", "params": {}, "premises": [_leaf("Refl", phi="T")]}]}]},
     1, {"ok": False, "rule": "AllIr", "path": [0], "reason": "var-not-fresh",
         "detail": "quantified variable free in the antecedent", "nodes": 6, "depth": 4},
     "check error: var-not-fresh in AllIr at node 0: "
     "quantified variable free in the antecedent\n"),
])
def test_check_json_reports_the_nodes_read_and_their_depth(capsys, tmp_path, proof, code,
                                                           doc, text):
    path = tmp_path / "proof.qpf"
    path.write_text(json.dumps({"signature": {"constants": ["c"], "predicates": {"P": 1}},
                                "proof": proof}))
    assert run(capsys, "check", str(path), "--json") == (code, json.dumps(doc) + "\n", "")
    assert run(capsys, "check", str(path)) == (code, text, "")


NINES = "9" * 5000  # past CPython's limit of 4300 digits for `int(text)`


def test_integers_too_long_to_convert_are_data_errors(capsys, tmp_path):
    with pytest.raises(qrc1.ParseError) as e:
        qrc1.parse_problem(f"pred P/{NINES}. T ~> T")
    assert (e.value.message, e.value.pos) == ("arity too large", 7)
    assert run(capsys, "decide", f"pred P/{NINES}. T ~> T") == (
        65, "", "qrc1: arity too large (at offset 7)\n")
    text = '{"signature": {"constants": [], "predicates": {"P": %s}}}' % NINES
    for load, error in ((qrc1.load_proof, qrc1.ProofFormatError),
                        (qrc1.check_proof, qrc1.ProofFormatError),
                        (qrc1.load_model, qrc1.ModelFormatError)):
        with pytest.raises(error, match="^invalid JSON: integer too large$"):
            load(text)
    path = tmp_path / "long.json"
    path.write_text(text)
    for command in ("check", "adequate"):
        assert run(capsys, command, str(path)) == (
            65, "", "qrc1: invalid JSON: integer too large\n")


# -- sat ---------------------------------------------------------------


def test_sat_one_world_diamond_is_false(capsys, one_world):
    code, out, _ = run(
        capsys, "sat", one_world, "--world", "0", "--default", "0",
        "--formula", "<> T",
    )
    assert code == 0
    assert out.strip() == "false"


def test_sat_with_assignment_overrides(capsys, tmp_path):
    model = single_world_model(SIG, size=2, preds={"P": frozenset({(1,)})})
    path = tmp_path / "m.qkm"
    path.write_text(dumps_model(model))
    code, out, _ = run(
        capsys, "sat", str(path), "--world", "0", "--assign", "x=1",
        "--formula", "P(x)",
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(
        capsys, "sat", str(path), "--world", "0", "--assign", "x=0",
        "--formula", "P(x)", "--json",
    )
    assert code == 0 and json.loads(out) == {"value": False}


def test_sat_rejects_bad_world(capsys, one_world):
    code, _, err = run(capsys, "sat", one_world, "--world", "7", "--formula", "T")
    assert code == 65


def test_sat_rejects_unparsable_formula(capsys, one_world):
    code, _, err = run(capsys, "sat", one_world, "--world", "0", "--formula", "P(")
    assert code == 65


def test_sat_assign_takes_variables_only_and_names_them_in_errors(capsys, tmp_path):
    # c is declared, so --assign c=1 would otherwise leave c at its
    # interpretation and set an unused variable named c
    model = single_world_model(SIG, size=2, preds={"P": frozenset({(0,), (1,)})})
    path = tmp_path / "m.qkm"
    path.write_text(dumps_model(model))
    sat = ("sat", str(path), "--world", "0", "--formula", "P(c) & P(x)")
    assert run(capsys, *sat, "--assign", "x=1,c=1") == (
        65, "", "qrc1: cannot assign c: it is a declared constant, not a variable\n")
    assert run(capsys, *sat, "--assign", "y=0,x=9") == (
        65, "", "qrc1: override x=9 outside the domain\n")
    assert run(capsys, *sat, "--assign", "x=-1") == (
        65, "", "qrc1: override x=-1 outside the domain\n")
    for name in ("A", "1x", "x y"):  # a reserved word, no identifier
        assert run(capsys, *sat, "--assign", f"{name}=0") == (
            65, "", f"qrc1: cannot assign {name!r}: not a variable name\n")
    assert run(capsys, *sat, "--assign", "x=1,y=0") == (0, "true\n", "")


def test_sat_assign_syntax_errors_point_at_their_entry(capsys, one_world):
    sat = ("sat", one_world, "--world", "0", "--formula", "T", "--assign")
    for spec, error in [
        ("x=1,y", "bad assignment entry 'y' (at offset 4)"),
        ("x", "bad assignment entry 'x' (at offset 0)"),
        ("x=1, =2", "bad assignment entry ' =2' (at offset 4)"),
        ("x=a", "bad assignment value in 'x=a' (at offset 0)"),
        ("x=0,,y=0", "bad assignment entry '' (at offset 4)"),
        ("x=0,y=1,z=b", "bad assignment value in 'z=b' (at offset 8)"),
    ]:
        assert run(capsys, *sat, spec) == (65, "", f"qrc1: {error}\n"), spec


# -- adequate ----------------------------------------------------------


def test_adequate_reports_ok(capsys, one_world):
    code, out, _ = run(capsys, "adequate", one_world)
    assert code == 0
    assert "adequate: yes" in out
    assert "transitiveR: ok" in out


def test_adequate_reports_failures_with_witnesses(capsys, tmp_path):
    from qrc1 import RawFrame, RawModel

    frame = RawFrame(
        2, frozenset({(0, 1)}), (2, 2),
        (((1, 0), (0, 1)), ((0, 0), (0, 1))),
    )
    raw = RawModel(SIG, frame, ({"c": 0}, {"c": 0}), ({}, {}))
    path = tmp_path / "bad.qkm"
    path.write_text(dumps_model(raw))
    code, out, _ = run(capsys, "adequate", str(path))
    assert code == 1
    assert "etaIdentity: FAIL" in out
    code, out, _ = run(capsys, "adequate", str(path), "--json")
    assert code == 1
    report = json.loads(out)
    assert report["adequate"] is False
    assert report["witnesses"]["etaIdentity"] == [0, 0]


def test_adequate_output_is_pinned(capsys, one_world, tmp_path):
    from qrc1 import RawFrame, RawModel

    # 0R1R2 without 0R2, eta[0][0] swaps, eta[0][2] != eta[1][2] . eta[0][1],
    # and c moves from 0 to 1 along 0R1 where eta[0][1] keeps 0: all four fail
    frame = RawFrame(
        3, frozenset({(0, 1), (1, 2)}), (2, 2, 2),
        (((1, 0), (0, 1), (0, 0)), ((0, 1), (0, 1), (1, 1)), ((0, 1), (0, 1), (0, 1))),
    )
    raw = RawModel(SIG, frame, ({"c": 0}, {"c": 1}, {"c": 1}), ({}, {}, {}))
    bad = tmp_path / "bad.qkm"
    bad.write_text(dumps_model(raw))

    assert run(capsys, "adequate", one_world) == (0, (
        "transitiveR: ok\n"
        "etaFunctorial: ok\n"
        "etaIdentity: ok\n"
        "concordant: ok\n"
        "adequate: yes\n"
    ), "")
    assert run(capsys, "adequate", one_world, "--json") == (0, (
        '{"transitiveR": true, "etaFunctorial": true, "etaIdentity": true, '
        '"concordant": true, "witnesses": {"transitiveR": null, '
        '"etaFunctorial": null, "etaIdentity": null, "concordant": null}, '
        '"adequate": true}\n'
    ), "")
    assert run(capsys, "adequate", str(bad)) == (1, (
        "transitiveR: FAIL witness=(0, 1, 2)\n"
        "etaFunctorial: FAIL witness=(0, 1, 2, 0)\n"
        "etaIdentity: FAIL witness=(0, 0)\n"
        "concordant: FAIL witness=(0, 1, 'c')\n"
        "adequate: no\n"
    ), "")
    assert run(capsys, "adequate", str(bad), "--json") == (1, (
        '{"transitiveR": false, "etaFunctorial": false, "etaIdentity": false, '
        '"concordant": false, "witnesses": {"transitiveR": [0, 1, 2], '
        '"etaFunctorial": [0, 1, 2, 0], "etaIdentity": [0, 0], '
        '"concordant": [0, 1, "c"]}, "adequate": false}\n'
    ), "")


# -- decide ------------------------------------------------------------


def test_decide_proves_with_a_reserved_constant_apart_from_the_predicates(capsys, tmp_path):
    # proof search reserves k1, since k0 is declared as a predicate
    problem = "pred k0/1. pred P/1. pred S/2. A x . A y . (P(x) & T) ~> P(y)"
    code, out, _ = run(capsys, "decide", problem, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "Proved" and doc["signature"]["constants"] == ["k1"]
    path = tmp_path / "proof.qpf"
    path.write_text(out)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and out.strip() == "A x . A y . (P(x) & T) ~> P(y)"


@pytest.mark.parametrize("problem, text", [
    ("pred P/1. A x . A k0 . (P(x) & T) ~> P(k0)", "A x . A x1 . (P(x) & T) ~> P(x1)"),
    ("pred P/1. pred Q/1. A x . A y . (P(x) & Q(k0)) ~> P(y) & Q(k0)",
     "A x . A y . (P(x) & Q(x2)) ~> P(y) & Q(x2)"),
])
def test_decide_prints_a_variable_named_like_a_reserved_constant_under_a_fresh_name(
        capsys, problem, text):
    # proof search freezes the variable k0 as the reserved constant k0, so
    # the proof prints the variable under a fresh name, and it checks
    code, out, _ = run(capsys, "decide", problem, "--json")
    assert code == 0 and json.loads(out)["signature"]["constants"] == ["k0"]
    checked = qrc1.check_proof(out)
    assert checked.error is None
    assert qrc1.format_sequent(checked.sequent, checked.table) == text


def test_decide_prints_a_proof_under_the_signature_its_recheck_used(capsys, monkeypatch):
    # the re-check's extended signature travels with the proof, so it is
    # computed once, and the printed document is as before
    calls = []

    def counted(sig, d):
        calls.append(d)
        return used_signature(sig, d)

    monkeypatch.setattr(qrc1.calculus, "used_signature", counted)
    monkeypatch.setattr(qrc1.search, "used_signature", counted)
    problem = "pred k0/1. pred P/1. pred S/2. A x . A y . (P(x) & T) ~> P(y)"
    code, out, _ = run(capsys, "decide", problem, "--json")
    assert (code, len(calls)) == (0, 1)
    and_el = {"rule": "AndEl", "params": {"phi": "P(x2)", "psi": "T"}, "premises": []}
    inner = {"rule": "AllIl", "params": {"phi": "P(x2) & T", "x": "y", "t": "x"},
             "premises": [and_el]}
    outer = {"rule": "AllIl", "params": {"phi": "A y . (P(x) & T)", "x": "x", "t": "x2"},
             "premises": [inner]}
    term_i = {"rule": "TermI", "params": {"x": "x2", "t": "k1"}, "premises": [outer]}
    const_e = {"rule": "ConstE", "params": {"phi": "A x . A y . (P(x) & T)", "psi": "P(y)",
                                            "x": "y", "c": "k1"},
               "premises": [term_i]}
    assert out.strip() == json.dumps({
        "outcome": "Proved", "proof": const_e,
        "signature": {"constants": ["k1"], "predicates": {"P": 1, "S": 2, "k0": 1}},
    })


def test_decide_refutes_irreflexivity_with_a_one_world_model(capsys):
    code, out, err = run(
        capsys, "decide", "T ~> <> T",
        "--max-worlds", "2", "--max-domain", "1", "--max-depth", "4",
    )
    assert code == 1
    assert "Refuted" in err
    model = json.loads(out)
    assert model["worlds"] == 1
    assert model["rel"] == []


def test_decide_proved_output_rechecks_via_check(capsys, tmp_path):
    code, out, err = run(
        capsys, "decide", "pred P/1. <> <> P(x) ~> <> P(x)",
    )
    assert code == 0
    assert "Proved" in err
    path = tmp_path / "round.qpf"
    path.write_text(out)
    code, out2, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out2.strip() == "<> <> P(x) ~> <> P(x)"


def test_decide_refuted_output_reloads_via_adequate_and_sat(capsys, tmp_path):
    code, out, err = run(capsys, "decide", "pred P/1. <> P(x) ~> <> <> P(x)", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["outcome"] == "Refuted"
    path = tmp_path / "counter.qkm"
    path.write_text(json.dumps(payload["model"]))
    code, out2, _ = run(capsys, "adequate", str(path))
    assert code == 0
    overrides = payload["assignment"]["overrides"]
    assign = ",".join(f"{k}={v}" for k, v in overrides.items())
    args = ["sat", str(path), "--world", str(payload["world"]),
            "--default", str(payload["assignment"]["default"])]
    if assign:
        args += ["--assign", assign]
    code, out3, _ = run(capsys, *args, "--formula", "<> P(x)")
    assert code == 0 and out3.strip() == "true"
    code, out4, _ = run(capsys, *args, "--formula", "<> <> P(x)")
    assert code == 0 and out4.strip() == "false"


def test_decide_exhausted_exit_code(capsys):
    code, out, err = run(
        capsys, "decide", "pred P/1. <> P(x) ~> <> <> P(x)",
        "--max-worlds", "1", "--max-domain", "1", "--max-depth", "2",
    )
    assert code == 2
    assert "Exhausted" in err


def test_decide_json_outcomes(capsys):
    code, out, _ = run(capsys, "decide", "T ~> <> T", "--json")
    assert code == 1
    assert json.loads(out)["outcome"] == "Refuted"
    code, out, _ = run(capsys, "decide", "T ~> T", "--json")
    assert code == 0
    assert json.loads(out)["outcome"] == "Proved"


# -- countermodel --------------------------------------------------------


def test_countermodel_found(capsys):
    code, out, err = run(capsys, "countermodel", "T ~> <> T")
    assert code == 0
    assert json.loads(out)["worlds"] == 1


def test_countermodel_not_found(capsys):
    code, out, err = run(
        capsys, "countermodel", "pred P/1. <> <> P(x) ~> <> P(x)",
        "--max-worlds", "3", "--max-domain", "2", "--timeout", "0.2",
    )
    assert code == 2


def test_countermodel_says_what_ended_the_search(capsys):
    code, out, _ = run(capsys, "countermodel", MANY_VARIABLES, "--timeout", "0.3")
    assert (code, out) == (2, "deadline reached\n")
    code, out, _ = run(capsys, "countermodel", MANY_VARIABLES, "--timeout", "0.3", "--json")
    assert code == 2
    assert json.loads(out) == {"found": False, "reason": "deadline reached"}
    code, out, _ = run(
        capsys, "countermodel", "pred P/1. <> <> P(x) ~> <> P(x)",
        "--max-worlds", "2", "--max-domain", "1", "--json",
    )
    assert code == 2
    assert json.loads(out) == {"found": False, "reason": "no countermodel within bounds"}


def test_a_world_bound_too_small_for_a_refutable_sequent_is_named(capsys):
    # the antecedent's tree refutes it, but every countermodel needs three worlds
    problem = "pred P/2. <> <> T ~> A x . P(x, y)"
    bounds = ("--max-worlds", "2", "--max-domain", "1")
    reason = "refutable, but every countermodel with at most 1 element(s) needs more than 2 world(s)"
    assert run(capsys, "countermodel", problem, *bounds) == (2, f"{reason}\n", "")
    code, out, _ = run(capsys, "countermodel", problem, *bounds, "--json")
    assert (code, json.loads(out)) == (2, {"found": False, "reason": reason})
    assert run(capsys, "decide", problem, *bounds, "--max-depth", "1000") == (
        2, "", f"Exhausted: {reason}\n")
    code, out, _ = run(capsys, "decide", problem, *bounds, "--max-depth", "1000", "--json")
    assert (code, json.loads(out)) == (2, {"outcome": "Exhausted", "reason": reason})


# -- soundness -------------------------------------------------------------


def test_soundness_command_runs_clean(capsys, trans_proof, monkeypatch):
    monkeypatch.setenv("QRC1_SEED", "12345")
    code, out, _ = run(capsys, "soundness", trans_proof, "--models", "60")
    assert code == 0
    assert "no counterexample" in out
    assert "12345" in out


@pytest.mark.parametrize("setting", ["abc", "", "1.5", "9" * 5000])
def test_a_seed_setting_that_is_no_integer_is_a_usage_error(capsys, monkeypatch, setting):
    # read before the proof file, which does not exist here
    monkeypatch.setenv("QRC1_SEED", setting)
    code, out, err = run(capsys, "soundness", "no-such-proof.qpf", "--json")
    assert (code, out) == (64, "")
    assert err.startswith("qrc1: QRC1_SEED must be an integer, got ")


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_soundness_reports_a_rejected_proof_as_check_does(capsys, tmp_path, flags):
    path = tmp_path / "bad.qpf"
    path.write_text(json.dumps(REJECTED))
    checked = run(capsys, "check", str(path), *flags)
    assert checked[0] == 1 and checked[1] != ""
    assert run(capsys, "soundness", str(path), *flags) == checked


# -- error handling ----------------------------------------------------------


def test_usage_error_exit_code(capsys):
    assert main(["decide"]) == 64
    assert main(["no-such-command"]) == 64
    assert main(["sat"]) == 64


@pytest.mark.parametrize(
    "argv, option",
    [
        (["decide", "T ~> T", "--max-worlds", "0"], "--max-worlds"),
        (["decide", "T ~> T", "--max-domain", "0"], "--max-domain"),
        (["decide", "T ~> T", "--max-depth", "0"], "--max-depth"),
        (["countermodel", "T ~> T", "--max-worlds", "-1"], "--max-worlds"),
        (["decide", "T ~> T", "--timeout", "0"], "--timeout"),
        (["decide", MANY_VARIABLES, "--timeout", "nan"], "--timeout"),
        (["countermodel", "T ~> T", "--timeout", "inf"], "--timeout"),
        (["soundness", "proof.qpf", "--models", "-5"], "--models"),
        (["soundness", "proof.qpf", "--samples", "-1"], "--samples"),
        (["soundness", "proof.qpf", "--max-domain", "0"], "--max-domain"),
    ],
)
def test_out_of_range_numeric_options_are_usage_errors(capsys, argv, option):
    # checked before any file is read or any search starts
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith(f"usage: qrc1 {argv[0]}")
    assert f"argument {option}:" in err


def test_search_options_default_to_the_library_bounds():
    import qrc1.cli as cli
    from qrc1 import GenBounds, SearchBounds

    parser = cli._build_parser()
    for command in ("countermodel", "decide"):
        assert cli._problem(parser.parse_args([command, "T ~> T"]))[3] == SearchBounds()
    args = parser.parse_args(["soundness", "proof.qpf"])
    assert GenBounds(args.max_worlds, args.max_domain) == GenBounds()


def test_one_parser_serves_every_call(capsys, monkeypatch, trans_proof, one_world):
    import qrc1.cli as cli

    calls = [
        ["decide", "T ~> T", "--json"],
        ["decide", "T ~> T"],
        ["check", trans_proof],
        ["adequate", one_world, "--json"],
        ["--help"],
        ["decide"],
    ]
    cli._build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 64]
    # the second decide prints text although the first one asked for JSON
    assert reused[1][2] == "Proved\n"
    assert reused[1][1] == json.dumps(json.loads(reused[1][1]), indent=2) + "\n"
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert [run(capsys, *argv) for argv in calls] == reused


def test_internal_error_exit_code(capsys, monkeypatch):
    import qrc1.cli as cli
    from qrc1 import InternalError

    def boom(args):
        raise InternalError("wired for the test")

    monkeypatch.setitem(cli._COMMANDS, "decide", boom)
    code, _, err = run(capsys, "decide", "T ~> T")
    assert code == 70
    assert "internal error" in err


def test_unexpected_exception_exits_70_not_1(capsys, monkeypatch):
    import qrc1.cli as cli

    def boom(args):
        raise RuntimeError("wired for the test")

    monkeypatch.setitem(cli._COMMANDS, "check", boom)
    code, _, err = run(capsys, "check", "whatever.qpf")
    assert code == 70
    assert err == "qrc1: internal error: RuntimeError: wired for the test\n"


def test_running_out_of_memory_exits_70_with_a_fixed_message(capsys, monkeypatch):
    import qrc1.cli as cli

    def boom(args):
        raise MemoryError("x" * 100)

    monkeypatch.setitem(cli._COMMANDS, "decide", boom)
    code, out, err = run(capsys, "decide", "T ~> T", "--json")
    assert (code, out) == (70, "")
    assert err == "qrc1: out of memory\n"


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_a_search_proof_the_kernel_rejects_exits_70_not_1(capsys, monkeypatch, flags):
    from qrc1 import and_intro, ax_refl, ax_top
    from qrc1.search import _ProofSearch

    bad = and_intro(ax_refl(TOP), ax_top(Pred("P", (Var(0),))))
    monkeypatch.setattr(_ProofSearch, "dfs", lambda self, *args: bad)
    # valid, but no axiom instance, so decide proves it by proof search
    code, out, err = run(capsys, "decide", "pred P/1. A x . P(x) ~> P(y)", *flags)
    assert (code, out) == (70, "")
    assert err.startswith("qrc1: internal error: CheckError: premise-mismatch in AndI")


def _nec_chain(depth):
    # written as text: json.dumps itself overflows on a chain this deep
    leaf = '{"rule": "Refl", "params": {"phi": "T"}, "premises": []}'
    node = '{"rule": "Nec", "params": {}, "premises": [' * depth + leaf + "]}" * depth
    return '{"signature": {"constants": [], "predicates": {}}, "proof": ' + node + "}"


def test_deep_proof_file_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "deep.qpf"
    path.write_text(_nec_chain(600))
    code, out, err = run(capsys, "check", str(path), "--json")
    assert code == 65
    assert out == ""
    assert err.startswith("qrc1: nesting too deep") and err.count("\n") == 1


def test_moderately_deep_proof_file_checks(capsys, tmp_path):
    path = tmp_path / "deep.qpf"
    path.write_text(_nec_chain(300))
    code, out, _ = run(capsys, "check", str(path), "--json")
    assert code == 0
    assert json.loads(out)["sequent"] == "<> " * 300 + "T ~> " + "<> " * 300 + "T"


def test_a_deep_parameter_formula_checks_and_prints(capsys, tmp_path):
    # no step of `qrc1 check` recurses on a formula: the parser, the kernel
    # (which takes the parser's output as well-formed) and the printer
    phi = "<> " * 10_000 + "T"
    path = tmp_path / "deep_phi.qpf"
    path.write_text(json.dumps({"signature": {"constants": [], "predicates": {}},
                                "proof": {"rule": "Refl", "params": {"phi": phi},
                                          "premises": []}}))
    assert run(capsys, "check", str(path)) == (0, f"{phi} ~> {phi}\n", "")


def test_deep_formula_is_a_data_error(capsys):
    code, _, err = run(capsys, "decide", "<> " * 1500 + "T ~> T")
    assert code == 65
    assert err.startswith("qrc1: nesting too deep")


def test_parse_error_in_sequent_argument(capsys):
    code, _, err = run(capsys, "decide", "T ~> ")
    assert code == 65


def test_a_variable_parameter_that_is_not_a_name_exits_65(capsys, tmp_path):
    path = tmp_path / "bad_x.qpf"
    for value in (7, None, "T"):
        path.write_text(json.dumps({
            "signature": {"constants": ["c"], "predicates": {"P": 1}},
            "proof": {"rule": "AllIr", "params": {"x": value}, "premises": [
                {"rule": "Top", "params": {"phi": "P(c)"}, "premises": []},
            ]},
        }))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (65, "")
        assert err == "qrc1: proof: parameter 'x' must be a variable name\n"


def test_a_constant_parameter_that_is_not_a_name_exits_65(capsys, tmp_path):
    path = tmp_path / "bad_c.qpf"
    for value in (None, 7, "T", "x y"):
        path.write_text(json.dumps({
            "signature": {"constants": ["k"], "predicates": {"P": 1}},
            "proof": {"rule": "ConstE",
                      "params": {"phi": "P(x)", "psi": "P(x)", "x": "x", "c": value},
                      "premises": [{"rule": "Refl", "params": {"phi": "P(k)"}, "premises": []}]},
        }))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (65, "")
        assert err == "qrc1: proof: parameter 'c' must be a constant name\n"


def _wide_proof():
    """About 5 000 nodes: an `AndI` tree over 1 250 leaves
    `T ~> A x_i . A x_i+1 . T`, each three nodes."""
    from qrc1 import all_intro_right, and_intro, ax_top

    level = [
        all_intro_right(all_intro_right(ax_top(TOP), 2 * i), 2 * i + 1)
        for i in range(1250)
    ]
    while len(level) > 1:
        pairs = [and_intro(a, b) for a, b in zip(level[::2], level[1::2])]
        level = pairs + level[len(pairs) * 2:]
    return level[0]


def test_check_runs_no_garbage_collection(capsys, tmp_path):
    import gc

    path = tmp_path / "wide.qpf"
    path.write_text(dumps_proof(_wide_proof(), SIG))
    assert path.read_text().count('"rule"') == 1250 * 3 + 1249
    gc.collect()
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        code = main(["check", str(path), "--json"])
    finally:
        gc.callbacks.remove(record)
    assert code == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert starts == []


# -- malformed model and proof files -----------------------------------------

MODEL_DOC = {
    "signature": {"constants": ["c"], "predicates": {"P": 1}},
    "worlds": 1,
    "rel": [],
    "domains": [1],
    "eta": [[[0]]],
    "constInterp": [{"c": 0}],
    "predInterp": [{"P": [[0]]}],
}
PROOF_DOC = {
    "signature": {"constants": ["c"], "predicates": {"P": 1}},
    "proof": {"rule": "Refl", "params": {"phi": "P(c)"}, "premises": []},
}


@pytest.mark.parametrize("change, message", [
    ({"constInterp": [[5]]}, "missing or malformed 'constInterp': expected a list of objects"),
    ({"predInterp": [[5]]}, "missing or malformed 'predInterp': expected a list of objects"),
    ({"worlds": True}, "missing or malformed 'worlds': True is not an integer"),
    ({"domains": [1.5]}, "missing or malformed 'domains': 1.5 is not an integer"),
    ({"rel": [[0, 0, 0]]}, "malformed 'rel': every edge is a pair of worlds"),
    ({"eta": [[["0"]]]}, "missing or malformed 'eta': '0' is not an integer"),
    ({"constInterp": [{"c": False}]},
     "missing or malformed 'constInterp': False is not an integer"),
    ({"predInterp": [{"P": [0]}]}, "missing or malformed 'predInterp': expected a list"),
])
def test_adequate_rejects_malformed_model_fields(capsys, tmp_path, change, message):
    path = tmp_path / "bad.qkm"
    path.write_text(json.dumps({**MODEL_DOC, **change}))
    assert run(capsys, "adequate", str(path)) == (65, "", f"qrc1: {message}\n")


@pytest.mark.parametrize("command, doc", [("adequate", MODEL_DOC), ("check", PROOF_DOC)])
@pytest.mark.parametrize("change, message", [
    ({"constants": "cd"}, "'constants' must be a list, 'predicates' an object"),
    ({"predicates": [["P", 1]]}, "'constants' must be a list, 'predicates' an object"),
    ({"constants": ["T"]}, "'T' cannot be declared"),
    ({"constants": [7]}, "7 cannot be declared"),
    ({"predicates": {"A": 1}}, "'A' cannot be declared"),
    ({"constants": ["c", "c"]}, "a constant is declared twice"),
    ({"constants": ["c", "P"]}, "names declared as both constant and predicate: ['P']"),
    ({"predicates": {"P": 1.9}}, "predicate 'P' has arity 1.9"),
    ({"predicates": {"P": "1"}}, "predicate 'P' has arity '1'"),
    ({"predicates": {"P": True}}, "predicate 'P' has arity True"),
    ({"predicates": {"P": -1}}, "predicate 'P' has arity -1"),
])
def test_model_and_proof_files_reject_malformed_signatures(
    capsys, tmp_path, command, doc, change, message
):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**doc, "signature": {**doc["signature"], **change}}))
    assert run(capsys, command, str(path)) == (65, "", f"qrc1: malformed signature: {message}\n")


def _json_paths(doc, at=()):
    """The path of every value in `doc`, the whole document first."""
    yield at
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from _json_paths(value, at + (key,))


_DELETE = object()


def _replaced(doc, at, value):
    """A copy of `doc` with the value at path `at` replaced, or deleted
    when `value` is `_DELETE`."""
    if not at:
        return value
    head, *rest = at
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if rest or value is not _DELETE:
        out[head] = _replaced(doc[head], tuple(rest), value)
    else:
        del out[head]
    return out


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["", "c", "T", "P", "P(c)", "x", "Refl", "AllIr", "<> P(c)"])
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["c", "P", "phi", "x", "rule"]) | st.text(max_size=2),
                      kids, max_size=3),
    max_leaves=6,
)


def _fuzz_bases():
    """Valid model and proof files to corrupt, with every rule parameter
    kind (formulas, a variable, a term and a constant) among them."""
    from qrc1 import (
        Const, SymbolTable, all_instantiate, ax_top, cut, diam_over_all, dump_proof,
        generalize_constant,
    )

    sig = signature(["c", "k"], {"P": 1, "S": 2})
    table = SymbolTable()
    x = table.intern("x")
    body = Pred("S", (Var(x), Const("c")))
    chained = cut(diam_over_all(body, x), all_instantiate(Diam(body), x, Const("c")))
    frame = RawFrame(2, frozenset({(0, 1)}), (2, 1), (((0, 1), (0, 0)), ((0,), (0,))))
    model = RawModel(sig, frame, ({"c": 1, "k": 0}, {"c": 0, "k": 0}),
                     ({"P": frozenset({(1,)})}, {"S": frozenset({(0, 0)})}))
    return [
        ("model", dump_model(model)),
        ("model", dump_model(single_world_model(sig, size=2))),
        ("proof", dump_proof(chained, sig, table)),
        ("proof", dump_proof(generalize_constant(ax_top(Pred("P", (Const("c"),))), x, "k"), sig)),
    ]


_FUZZ_BASES = _fuzz_bases()


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_malformed_files_never_crash_the_cli(capsys, tmp_path, data):
    """One or two values of a valid file replaced or deleted, and now and
    then the text cut short: every command exits with a verdict or 65,
    with one line on stderr."""
    kind, doc = data.draw(st.sampled_from(_FUZZ_BASES))
    for _ in range(data.draw(st.integers(1, 2))):
        at = data.draw(st.sampled_from(list(_json_paths(doc))))
        values = (st.just(_DELETE) | _json_values) if at else _json_values
        doc = _replaced(doc, at, data.draw(values))
    text = json.dumps(doc)
    if data.draw(st.integers(0, 7)) == 7:
        text = text[:data.draw(st.integers(0, len(text)))]
    path = tmp_path / f"fuzz.{kind}"
    path.write_text(text)
    commands = (
        [["adequate", str(path)], ["sat", str(path), "--world", "1", "--formula", "<> P(c)"]]
        if kind == "model" else [["check", str(path), "--json"]]
    )
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 65), (argv, text, err)
        assert "Traceback" not in err and err.count("\n") <= 1


_SEQUENT_BASES = [
    "pred P/1. <> <> P(x) ~> <> P(x)",
    "const c. pred S/2. A x . <> S(x, c) & T ~> <> A y . S(y, c)",
]
_FORMULA_BASES = ["<> P(c)", "A x . P(x) & <> P(y)"]
_ASSIGN_BASES = ["x=1,y=0", "x=0"]
_pieces = st.sampled_from(
    ["", " ", "<>", "~>", "&", "A", "x", ".", "(", ")", ",", "=", "P", "c", "T", "1", "-1",
     "pred", "const", "/", "9" * 30]
) | st.text(max_size=2)


def _mutated(data, text):
    """`text` with one to three spans of up to three characters replaced."""
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + data.draw(_pieces) + text[j:]
    return text


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_malformed_arguments_never_crash_the_cli(capsys, one_world, data):
    """A mutated sequent for `decide` and `countermodel`, and a mutated
    `--formula` and `--assign` for `sat`: every command exits with a
    verdict, 64 or 65, never 70, and with one line on stderr (a usage
    error prints argparse's usage above it)."""
    sequent = _mutated(data, data.draw(st.sampled_from(_SEQUENT_BASES)))
    formula = _mutated(data, data.draw(st.sampled_from(_FORMULA_BASES)))
    assign = _mutated(data, data.draw(st.sampled_from(_ASSIGN_BASES)))
    bounds = ["--max-worlds", "2", "--max-domain", "2", "--timeout", "0.1"]
    for argv in (
        ["decide", sequent, "--json", "--max-depth", "3", *bounds],
        ["countermodel", sequent, *bounds],
        ["sat", one_world, "--world", "0", "--formula", formula, "--assign", assign],
    ):
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 64, 65), (argv, err)
        assert "Traceback" not in err and (code == 64 or err.count("\n") <= 1), (argv, err)


# -- the process: start-up, `python -m qrc1`, a closed standard output --


def _python(*args, stdout=subprocess.PIPE, unbuffered=True):
    """Run the interpreter on this checkout's package in a fresh process."""
    src = str(Path(qrc1.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          env=env, text=True, timeout=60)


def test_importing_the_cli_loads_no_dataclasses_typing_or_random():
    # -S: a site .pth file may import typing or random on its own
    out = _python("-S", "-c", "import sys, qrc1.cli; print(*sys.modules)")
    assert out.returncode == 0, out.stderr
    assert not set(out.stdout.split()) & {"dataclasses", "inspect", "typing", "random"}


def test_python_dash_m_runs_the_cli():
    out = _python("-m", "qrc1", "decide", "pred P/1. <> <> P(x) ~> <> P(x)", "--json")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["outcome"] == "Proved"


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_standard_output_exits_74_quietly(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        out = _python("-m", "qrc1", "decide", "pred P/1. <> <> P(x) ~> <> P(x)", "--json",
                      stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (74, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_failed_write_exits_74_with_one_line(unbuffered):
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "w") as full:
        out = _python("-m", "qrc1", "decide", "pred P/1. <> <> P(x) ~> <> P(x)", "--json",
                      stdout=full, unbuffered=unbuffered)
    assert (out.returncode, out.stderr) == (
        74, "qrc1: cannot write output: No space left on device\n"
    )


@pytest.mark.skipif(not (os.path.isdir("/proc/self/fd") and os.path.exists("/dev/full")),
                    reason="needs /proc/self/fd and /dev/full")
def test_a_failed_write_leaves_no_descriptor_open():
    # the descriptor that points stdout at the null device is closed again
    script = (
        "import os, sys\n"
        "from qrc1.cli import main\n"
        "before = os.listdir('/proc/self/fd')\n"
        "code = main(['decide', 'T ~> <> T', '--json'])\n"
        "print(code, sorted(before) == sorted(os.listdir('/proc/self/fd')), file=sys.stderr)\n"
    )
    with open("/dev/full", "w") as full:
        out = _python("-c", script, stdout=full)
    assert out.stderr.splitlines()[-1] == "74 True", out.stderr


def test_each_mode_serializes_only_the_form_it_prints(capsys, monkeypatch, trans_proof,
                                                      one_world):
    # --json prints one JSON document and builds no indented certificate;
    # text prints at most one certificate, indented, and no JSON document
    indents = []
    real = json.dumps

    def dumps(obj, **kwargs):
        indents.append(kwargs.get("indent"))
        return real(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    certificates = [
        ["decide", "pred P/1. <> <> P(x) ~> <> P(x)"],
        ["decide", "T ~> <> T"],
        ["countermodel", "T ~> <> T"],
    ]
    others = [
        ["decide", "pred P/1. pred Q/1. <> (P(x) & <> Q(x)) ~> <> Q(x)"],
        ["countermodel", "pred P/1. P(x) ~> P(x)"],
        ["check", trans_proof],
        ["adequate", one_world],
        ["sat", one_world, "--world", "0", "--formula", "T"],
        ["soundness", trans_proof, "--models", "3"],
    ]
    for argv in certificates + others:
        indents.clear()
        run(capsys, *argv, "--json")
        assert indents == [None], argv
        indents.clear()
        run(capsys, *argv)
        assert indents == ([2] if argv in certificates else []), argv
