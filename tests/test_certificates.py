"""Every certificate that `qrc1 decide --json` prints, re-read by readers
that share nothing with the search that made it.

A Refuted document is read by the benchmark's own evaluator,
`perfbench/logic.py`, which parses the sequent and reads the JSON model
format without the package's formulas, model types or `sat`.  A Proved
document goes through the kernel's `check_proof`, the path of
`qrc1 check`, and its printed conclusion must be the input sequent.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from conftest import small_formulas

from qrc1 import Sequent, calculus, cli, syntax

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # perfbench/ is read, never written
sys.path.insert(0, _PERFBENCH)
try:
    import inputs
    import logic
finally:
    sys.path.remove(_PERFBENCH)
    sys.dont_write_bytecode = _write_bytecode

SMALL_DECL = "const c. pred P/1."


def _decide(text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["decide", text, "--json"])
    return rc, json.loads(out.getvalue())


def _reread(decl, sequent_text):
    """The outcome of `decide` on the problem, once its certificate has
    been re-read."""
    text = f"{decl} {sequent_text}"
    rc, doc = _decide(text)
    outcome = doc["outcome"]
    if outcome == "Refuted":
        assert rc == 1, text
        m = logic.JsonModel(doc["model"])
        assert all(a != b for a, b in m.rel), text
        assert m.adequate(), text
        _, _, ante, cons = logic.parse_problem(text)
        w, g = doc["world"], doc["assignment"]
        assert 0 <= w < m.worlds, text
        assert m.sat(w, g["default"], g["overrides"], ante), text
        assert not m.sat(w, g["default"], g["overrides"], cons), text
    elif outcome == "Proved":
        assert rc == 0, text
        checked = calculus.check_proof({"signature": doc["signature"], "proof": doc["proof"]})
        assert checked.error is None, (text, checked.error)
        assert syntax.format_sequent(checked.sequent, checked.table, checked.sig) == sequent_text
    return outcome


def test_every_certificate_of_decide_is_reread_independently():
    # the pinned corpus has hand-derived verdicts; the 900 sequents of size
    # at most three over T, P(x) and P(c) are each decided at the default bounds
    for p in inputs.pinned_problems():
        assert _reread(p.decl, p.sequent_text) == p.expected, p.text
    small = small_formulas(3)
    counts = {"Proved": 0, "Refuted": 0}
    for ante in small:
        for cons in small:
            outcome = _reread(SMALL_DECL, syntax.format_sequent(Sequent(ante, cons)))
            counts[outcome] += 1
    assert counts == {"Proved": 290, "Refuted": 610}
