"""The four workloads: how each item is prepared, run and verified.

An item is one sequent decided, one proof file checked, or one model
file checked.  `prepare` is untimed (it writes files and builds
arguments), `run` is the timed call into the package, and `verify`
runs after the timed phase and returns (decided, failure-or-None).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random

import qrc1
from qrc1 import calculus, cli, generate, semantics, syntax

import inputs
import logic

# per-item limit for `decide`, seconds; CLI defaults for every other bound
DECIDE_LIMIT = 0.25
# items whose inputs make up the fingerprint, and the canary's size
FINGERPRINT_ITEMS = 200
CANARY_ITEMS = 3


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class DecideWorkload:
    """Sequents through `qrc1 decide --json --timeout DECIDE_LIMIT`, the
    path parse_problem -> decide -> certificate dump."""

    per_item_limit = DECIDE_LIMIT
    root_span = "cli.main"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.problems: list[inputs.Problem] = []

    def _more(self, start: int) -> list[inputs.Problem]:
        """The next chunk of problems, from item `start` on."""
        raise NotImplementedError

    def problem(self, i: int) -> inputs.Problem:
        while len(self.problems) <= i:
            self.problems += self._more(len(self.problems))
            logic.clear_caches()
            gc.collect()
        return self.problems[i]

    def fingerprint(self, count: int = FINGERPRINT_ITEMS) -> str:
        return _digest(self.problem(i).text for i in range(count))

    def props(self, i: int) -> dict:
        return self.problem(i).props()

    def prepare(self, i: int, slowness: float) -> list[str]:
        """The CLI arguments; the limit is DECIDE_LIMIT at the reference
        speed, so the work an item may do does not move with the machine."""
        return ["decide", self.problem(i).text, "--json", "--timeout",
                repr(DECIDE_LIMIT * slowness)]

    def run(self, argv: list[str]) -> tuple[int, str]:
        return _cli(argv)

    def verify(self, i: int, result: tuple[int, str]) -> tuple[bool, str | None]:
        rc, text = result
        p = self.problem(i)
        out = json.loads(text)
        verdict = out["outcome"]
        if rc != {"Proved": 0, "Refuted": 1, "Exhausted": 2}[verdict]:
            return False, f"exit code {rc} for {verdict}"
        if verdict == "Exhausted":
            return False, None
        if p.expected is not None and verdict != p.expected:
            return True, f"{verdict}, expected {p.expected}"
        if verdict == "Proved":
            loaded = calculus.load_proof({"signature": out["signature"], "proof": out["proof"]})
            seq = calculus.check(loaded.derivation, loaded.sig)
            printed = syntax.format_sequent(seq, loaded.table, loaded.sig)
            if printed != p.sequent_text:
                return True, f"proof concludes {printed!r}"
            return True, None
        return True, _refutation_failure(out, p)

    def outcome(self, result: tuple[int, str]) -> str:
        return json.loads(result[1])["outcome"]


def _refutation_failure(out: dict, p: inputs.Problem) -> str | None:
    """Re-verify a Refuted certificate with the benchmark's evaluator."""
    m = logic.JsonModel(out["model"])
    if any(a == b for a, b in m.rel) or not m.adequate():
        return "countermodel is not irreflexive and adequate"
    w = out["world"]
    g = out["assignment"]
    if not (m.sat(w, g["default"], g["overrides"], p.ante)
            and not m.sat(w, g["default"], g["overrides"], p.cons)):
        return "countermodel does not refute the sequent"
    return None


class DecideMix(DecideWorkload):
    name = "decide-mix"

    def _more(self, start: int) -> list[inputs.Problem]:
        if start == 0:
            return inputs.pinned_problems() + inputs.random_problems(self.seed, 0, 500)
        return inputs.random_problems(self.seed, start - len(inputs.PINNED), 500)


class DecideValid(DecideWorkload):
    name = "decide-valid"

    def _more(self, start: int) -> list[inputs.Problem]:
        return inputs.valid_problems(self.seed, start, 500)


PROOF_BATCH = 12


class CheckProofs:
    """Proof files through `qrc1 check FILE --json`, in-process."""

    name = "check-proofs"
    per_item_limit = None
    root_span = "cli.main"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.texts: dict[int, str] = {}  # built, not yet written out
        self.expected: dict[int, dict] = {}
        self.meta: dict[int, dict] = {}

    def _build(self, i: int) -> None:
        """Build files from `i` on in a batch, then drop the generator's
        caches and garbage so the timed items do not pay for them."""
        if i in self.meta:
            return
        for j in range(i, i + PROOF_BATCH):
            f = inputs.proof_file(self.seed, j)
            self.texts[j] = json.dumps(f.doc)
            self.expected[j] = f.expected
            self.meta[j] = {"proof_nodes": f.nodes, "proof_depth": f.depth,
                            "size": f.size, "corrupt": not f.expected["ok"]}
        logic.clear_caches()
        gc.collect()

    def fingerprint(self, count: int = 10) -> str:  # files are costly to build
        for i in range(count):
            self._build(i)
        return _digest(self.texts[i] for i in range(count))

    def props(self, i: int) -> dict:
        self._build(i)
        return self.meta[i]

    def prepare(self, i: int, slowness: float) -> list[str]:
        self._build(i)
        path = os.path.join(self.workdir, f"p{i}.qpf")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.texts.pop(i))
        return ["check", path, "--json"]

    def run(self, argv: list[str]) -> tuple[int, str]:
        return _cli(argv)

    def verify(self, i: int, result: tuple[int, str]) -> tuple[bool, str | None]:
        rc, text = result
        os.remove(os.path.join(self.workdir, f"p{i}.qpf"))
        expected = self.expected[i]
        out = json.loads(text)
        if rc != (0 if out["ok"] else 1):
            return True, f"exit code {rc}"
        if out["ok"] != expected["ok"]:
            return True, f"ok={out['ok']}, expected {expected}"
        if out["ok"] and out["sequent"] != expected["sequent"]:
            return True, f"printed {out['sequent']!r}, expected {expected['sequent']!r}"
        if not out["ok"] and (out["path"], out["reason"]) != (expected["path"], expected["reason"]):
            return True, f"rejected at {out['path']} ({out['reason']}), expected {expected}"
        return True, None

    def outcome(self, result: tuple[int, str]) -> str:
        return "accepted" if result[0] == 0 else "rejected"


# -- model-check ---------------------------------------------------------

MODEL_SIG = (("c", "d"), {"P": 1, "S": 2})
MODEL_BOUNDS = (8, 4)  # worlds, elements: above the CLI default of (4, 3)
MODELS_PER_SHAPE = 8
QUERY_COUNT = 24
ASSIGNMENTS = 12  # per query and world
REFERENCE_EVERY = 10  # every tenth item's sat answers are re-evaluated


def generate_models(seed: int, per_shape: int = MODELS_PER_SHAPE) -> list:
    """Models from the package's generator in a fixed mix of shapes, the
    shapes taken in turn.

    The generator alternates a constant-domain family and a tree family.
    A constant-domain shape is (world count, domain size), with
    `per_shape` models each; a tree shape is its world count, with four
    times as many, so both families keep equal shares.  Item cost grows
    steeply with worlds and domain size, and an unsorted draw would give
    each seed a different few heavy models in its tail."""
    sig = qrc1.signature(*MODEL_SIG)
    max_worlds, max_domain = MODEL_BOUNDS
    quota = {("const", w, d): per_shape
             for w in range(1, max_worlds + 1) for d in range(1, max_domain + 1)}
    quota.update({("tree", w): per_shape * max_domain for w in range(1, max_worlds + 1)})
    kept: dict[tuple, list] = {shape: [] for shape in quota}
    missing = sum(quota.values())
    stream = generate.generate_models(sig, generate.GenBounds(*MODEL_BOUNDS), seed)
    for index, m in enumerate(stream):
        worlds = m.frame.worlds
        # generate_models yields the two families alternately, constant-domain first
        shape = ("const", worlds, m.frame.domains[0]) if index % 2 == 0 else ("tree", worlds)
        if len(kept[shape]) < quota[shape]:
            kept[shape].append(m)
            missing -= 1
            if not missing:
                break
    # spread every shape evenly over the sequence, so any prefix has the mix
    slots = sorted(((k + 0.5) / quota[shape], str(shape), shape, k)
                   for shape in quota for k in range(quota[shape]))
    return [kept[shape][k] for _, _, shape, k in slots]


def model_texts(models: list) -> list[str]:
    return [semantics.dumps_model(m) for m in models]


def one_time_inputs(name: str, seed: int) -> list[str] | None:
    """Package work a workload does once before its first item: the model
    files of model-check, from the package's generator."""
    return model_texts(generate_models(seed)) if name == ModelCheck.name else None


def canary_fingerprint(name: str, workdir: str) -> str:
    """Fingerprint of the first few inputs at seed 0, cheap enough to
    check on every run."""
    if name == ModelCheck.name:
        return _digest(model_queries(0)[1] + model_texts(generate_models(0, 1)))
    if name == CheckProofs.name:
        return _digest(json.dumps(inputs.proof_file(0, i).doc) for i in range(CANARY_ITEMS))
    return WORKLOADS[name](0, workdir).fingerprint(CANARY_ITEMS)


def model_queries(seed: int) -> tuple[list[tuple], list[str]]:
    """The batch of `sat` queries of a model-check run, and their texts.

    Query k has a fixed shape, modal depth k % 3 and quantifier depth
    k // 3 % 3 around one atom, or around two conjoined atoms from k = 9
    on; the seed picks the atoms and variables.  A query's cost depends
    mostly on its shape, so this keeps the batch's cost alike across
    seeds."""
    rng = random.Random(f"model-check/{seed}")
    consts, preds = MODEL_SIG

    def random_atom() -> tuple:
        name = rng.choice(sorted(preds))
        return logic.atom(name, *(logic.const(rng.choice(consts)) if rng.random() < 0.25
                                  else logic.var(rng.choice("xy"))
                                  for _ in range(preds[name])))

    queries = []
    for k in range(QUERY_COUNT):
        f = random_atom() if k < 9 else logic.conj(random_atom(), random_atom())
        diamonds, quantifiers = k % 3, k // 3 % 3
        while diamonds or quantifiers:
            if diamonds:
                f, diamonds = logic.diam(f), diamonds - 1
            if quantifiers:
                f, quantifiers = logic.forall(rng.choice("xy"), f), quantifiers - 1
        queries.append(f)
    return queries, [logic.fmt(q) for q in queries]


class ModelCheck:
    """Model files through load_model -> check_adequacy -> a fixed batch
    of `sat` queries at every world under several assignments, which is
    what `qrc1 adequate` and `qrc1 sat` do; files are revisited in order
    once all were used."""

    name = "model-check"
    per_item_limit = None
    root_span = "item"

    def __init__(self, seed: int, workdir: str, texts: list[str] | None = None):
        self.seed = seed
        self.workdir = workdir
        self.texts = texts if texts is not None else model_texts(generate_models(seed))
        self.queries, self.query_texts = model_queries(seed)
        for i, text in enumerate(self.texts):
            with open(os.path.join(workdir, f"m{i}.qkm"), "w", encoding="utf-8") as fh:
                fh.write(text)

    def fingerprint(self) -> str:
        return _digest(self.query_texts + self.texts)

    def props(self, i: int) -> dict:
        doc = json.loads(self.texts[i % len(self.texts)])
        return {"worlds": doc["worlds"], "domain": max(doc["domains"]),
                "varying_domain": len(set(doc["domains"])) > 1,
                "eta_identity": all(row == list(range(len(row)))
                                    for block in doc["eta"] for row in block)}

    def prepare(self, i: int, slowness: float) -> tuple[str, bool]:
        """The model file, and whether to keep every answer for the
        reference check (otherwise only their count is kept)."""
        return (os.path.join(self.workdir, f"m{i % len(self.texts)}.qkm"),
                i % REFERENCE_EVERY == 0)

    def run(self, prepared: tuple[str, bool]) -> tuple[bool, list[bool] | int]:
        path, keep = prepared
        with open(path, encoding="utf-8") as fh:
            raw = semantics.load_model(fh.read())
        ok = semantics.check_adequacy(raw).ok
        answers = []
        for text in self.query_texts:
            for w in range(raw.frame.worlds):
                table = qrc1.SymbolTable()
                phi = syntax.parse_formula(text, raw.sig, table)
                size = raw.frame.domains[w]
                for k in range(ASSIGNMENTS):
                    overrides = {table.intern("x"): (w + k) % size,
                                 table.intern("y"): (w + 2 * k + 1) % size}
                    g = semantics.assignment(raw, w, k % size, overrides)
                    answers.append(semantics.sat(raw, w, g, phi))
        return ok, answers if keep else sum(answers)

    def verify(self, i: int, result: tuple[bool, list[bool] | int]) -> tuple[bool, str | None]:
        ok, answers = result
        m = logic.JsonModel(json.loads(self.texts[i % len(self.texts)]))
        if not ok or not m.adequate():
            return True, "generated model reported inadequate"
        if i % REFERENCE_EVERY:
            return True, None
        expected = []
        for q in self.queries:
            for w in range(m.worlds):
                size = m.domains[w]
                for k in range(ASSIGNMENTS):
                    values = {"x": (w + k) % size, "y": (w + 2 * k + 1) % size}
                    expected.append(m.sat(w, k % size, values, q))
        if answers != expected:
            return True, "sat answers differ from the reference evaluator"
        return True, None

    def outcome(self, result) -> str:
        return "checked"


WORKLOADS = {w.name: w for w in (DecideMix, DecideValid, CheckProofs, ModelCheck)}
