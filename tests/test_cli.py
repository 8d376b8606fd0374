import json

import pytest

from qrc1 import (
    TOP,
    Pred,
    Var,
    ax_trans,
    dumps_model,
    dumps_proof,
    signature,
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


def test_check_reports_invalid_proofs(capsys, tmp_path):
    doc = {
        "signature": {"constants": [], "predicates": {"P": 1}},
        "proof": {
            "rule": "AllIr",
            "params": {"x": "x"},
            "premises": [
                {"rule": "Refl", "params": {"phi": "P(x)"}, "premises": []}
            ],
        },
    }
    path = tmp_path / "bad.qpf"
    path.write_text(json.dumps(doc))
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


# -- soundness -------------------------------------------------------------


def test_soundness_command_runs_clean(capsys, trans_proof, monkeypatch):
    monkeypatch.setenv("QRC1_SEED", "12345")
    code, out, _ = run(capsys, "soundness", trans_proof, "--models", "60")
    assert code == 0
    assert "no counterexample" in out
    assert "12345" in out


# -- error handling ----------------------------------------------------------


def test_usage_error_exit_code(capsys):
    assert main(["decide"]) == 64
    assert main(["no-such-command"]) == 64
    assert main(["sat"]) == 64


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
