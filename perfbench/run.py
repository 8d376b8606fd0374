"""Benchmark of qrc1: decide, check and model-check, end to end and per layer.

    python3 perfbench/run.py --workload decide-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --self-check

One workload runs per process, single-threaded.  Inputs are generated
from the seed, handed to the package from `src/` of this checkout, timed
for `--seconds` seconds of item time and then verified.  Times are the
process's CPU time at the reference speed of `speed.py`: each is divided
by the machine's slowness around it.  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`).  Details of each run, input fingerprint and input
properties included, go to `.perfbench-out/`.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"

NAMES = ("decide-mix", "decide-valid", "check-proofs", "model-check")
SETUP_REPEATS = 5
# a run stops after this many times --seconds of wall time in items even
# if the machine is so slow that its reference-speed time falls short
WALL_CAP = 1.2
SELF_CHECK_ITEMS = 4

# Set-up is the import of qrc1 in a fresh interpreter plus the workload's
# one-time package work; each part is timed several times, at the
# reference speed, and its median taken.  The benchmark's own imports
# are not timed.
IMPORT_PROBES = 7
_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.process_time()
import qrc1
print(time.process_time() - t0)
"""


def _setup(name: str, seed: int, measure: bool, gauge) -> tuple[float, list[str] | None]:
    """Set-up seconds at the reference speed (0 unless measured), and the
    one-time inputs."""
    import workloads
    times, inputs = [], None
    for _ in range(SETUP_REPEATS if measure else 1):
        k = gauge.sample(speed.BRACKET)
        t0 = time.process_time()
        inputs = workloads.one_time_inputs(name, seed)
        dt = time.process_time() - t0
        times.append(dt / gauge.bracket(k))
    if not measure:
        return 0.0, inputs
    imports = []
    for _ in range(IMPORT_PROBES):
        k = gauge.sample(speed.BRACKET)
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(src=str(SRC))],
                             cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        dt = float(out.stdout.strip().splitlines()[-1])
        imports.append(dt / gauge.bracket(k))
    return statistics.median(imports) + statistics.median(times), inputs


def _fingerprints() -> dict:
    with open(BENCH / "fingerprints.json", encoding="utf-8") as fh:
        return json.load(fh)


def _check_fingerprints(name: str, seed: int, wl, workdir: Path) -> tuple[str, list[str]]:
    import workloads
    stored = _fingerprints()
    problems = []
    canary = workloads.canary_fingerprint(name, str(workdir))
    if canary != stored["canary"][name]:
        problems.append(f"seed-0 canary inputs changed: {canary} != {stored['canary'][name]}")
    own = wl.fingerprint()
    pinned = stored["seeds"][name].get(str(seed))
    if pinned is not None and own != pinned:
        problems.append(f"inputs of seed {seed} changed: {own} != {pinned}")
    return own, problems


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _props_summary(props: list[dict]) -> dict:
    """Share of items per value of each input property."""
    out = {}
    for key in props[0] if props else ():
        values = [p[key] for p in props]
        if not isinstance(values[0], (int, float)) or isinstance(values[0], bool) \
                or len(set(values)) <= 12:
            out[key] = {str(k): round(v / len(values), 4)
                        for k, v in sorted(Counter(values).items())}
        else:
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            out[key] = {"min": min(values), "q1": q[0], "median": q[1], "q3": q[2],
                        "max": max(values)}
    return out


def _loop(wl, seconds: float, items: int | None, gauge,
          tracer=None) -> tuple[list[tuple], list[float], list[float]]:
    """Run items in order until `seconds` of item time at the reference
    speed (at least one item, and at most WALL_CAP times `seconds` of
    wall time) or exactly `items` items, with a speed probe after each.

    Returns (item, CPU seconds at the reference speed, result, error)
    per item, each item's slowness, and each item's wall seconds."""
    records = []
    marks = []
    walls = []
    total = wall = 0.0
    i = 0
    gc.collect()
    gauge.sample(2 * speed.HALF_WINDOW)
    while ((i == 0 or (total < seconds and wall < WALL_CAP * seconds)) if items is None
           else i < items):
        prepared = wl.prepare(i, gauge.current())
        error = None
        result = None
        w0 = time.perf_counter()
        t0 = time.process_time()
        try:
            if tracer is None:
                result = wl.run(prepared)
            else:
                tracer.item = i
                result = tracer.span(wl.root_span, wl.run, prepared)
        except Exception as e:  # a crash inside the package is a failed item
            error = f"{type(e).__name__}: {e}"
        dt = time.process_time() - t0
        walls.append(time.perf_counter() - w0)
        marks.append(gauge.sample())
        records.append((i, dt, result, error))
        total += dt / gauge.current()
        wall += walls[-1]
        i += 1
    gauge.sample(speed.HALF_WINDOW)
    slowness = [gauge.around(k) for k in marks]
    return ([(i, dt / s, r, e) for (i, dt, r, e), s in zip(records, slowness)], slowness,
            walls)


def _verify(wl, records) -> tuple[list[bool], list[str]]:
    decided, failures = [], []
    for i, _, result, error in records:
        if error is not None:
            decided.append(False)
            failures.append(f"item {i}: {error}")
            continue
        try:
            ok, failure = wl.verify(i, result)
        except Exception as e:  # an unreadable output is a failed item
            ok, failure = False, f"{type(e).__name__}: {e}"
        decided.append(ok)
        if failure is not None:
            failures.append(f"item {i}: {failure}")
    return decided, failures


def _git_rev() -> str:
    try:
        # the ceiling keeps git from reporting a repository around the checkout
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_rev": _git_rev(), "platform": platform.platform()}


def _emit(name: str, seed: int, trace: int, result: dict, details: dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "trace": trace, **result, **details,
                   "environment": _environment()}, fh, indent=1)
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    for line in details.get("failures", [])[:20]:
        print(f"FAILED {line}")
    for line in details.get("fingerprint_problems", []):
        print(f"FINGERPRINT {line}")
    print(json.dumps(result), flush=True)


def run_untraced(name: str, seed: int, seconds: float, items: int | None,
                 with_setup: bool) -> None:
    import workloads
    gauge = speed.Gauge()
    setup, texts = _setup(name, seed, with_setup, gauge)
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = (workloads.ModelCheck(seed, str(workdir), texts) if texts is not None
              else workloads.WORKLOADS[name](seed, str(workdir)))
        fingerprint, fp_problems = _check_fingerprints(name, seed, wl, workdir)
        records, slowness, walls = _loop(wl, seconds, items, gauge)
        props = [wl.props(i) for i, *_ in records]
        decided, failures = _verify(wl, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    times = [dt for _, dt, _, _ in records]
    n = len(records)
    tail, tail_pct = _tail(times)
    metrics = {
        "items_per_s": (n / sum(times), "1/s"),
        "item_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "item_tail_ms": (tail * 1e3, "ms"),
        "decided_frac": (sum(decided) / n, "ratio"),
        "verified_frac": ((n - len(failures)) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    result = {
        "correct": not failures and not fp_problems,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    outcomes = Counter(wl.outcome(r) for _, _, r, e in records if e is None)
    details = {
        "fingerprint": fingerprint,
        "fingerprint_problems": fp_problems,
        "item_tail_percentile": round(tail_pct, 2),
        "item_samples": n,
        "failed_frac": len(failures) / n,
        "per_item_limit_s": wl.per_item_limit,
        "slowness": {"median": statistics.median(slowness), "min": min(slowness),
                     "max": max(slowness)},
        "outcomes": dict(outcomes),
        "input_properties": _props_summary(props),
        "failures": failures,
        "items": [{"item": i, "ms": round(dt * 1e3, 4), "wall_ms": round(w * 1e3, 4),
                   "slowness": round(s, 4), "outcome": wl.outcome(r) if e is None
                   else "error", **p}
                  for (i, dt, r, e), s, w, p in zip(records, slowness, walls, props)],
    }
    _emit(name, seed, 0, result, details)


PER_LAYER_SPANS = (
    "cli.main", "syntax.parse_problem", "syntax.format_sequent",
    "search.decide", "calculus.load_proof", "calculus.check", "calculus.dump_proof",
    "semantics.load_model", "semantics.check_adequacy", "semantics.sat",
    "semantics.dump_model",
)


def _replay(wl, count: int, budget: float, gauge) -> list[tuple[int, float, float]]:
    """Each decided item's two halves alone, under the same bounds and
    limit, outside the span tree: (item, proof search s, refutation s),
    at the reference speed."""
    from qrc1 import search, syntax
    out = []
    spent = 0.0
    gauge.sample(2 * speed.HALF_WINDOW)
    for i in range(count):
        if spent >= budget:
            break
        sig, seq = syntax.parse_problem(wl.problem(i).text)
        bounds = search.SearchBounds(deadline=wl.per_item_limit * gauge.current())
        t0 = time.process_time()
        search.proof_search(seq, sig, bounds)
        t1 = time.process_time()
        search.enumerate_countermodels(sig, seq, bounds)
        t2 = time.process_time()
        s = gauge.current()
        gauge.sample()
        out.append((i, (t1 - t0) / s, (t2 - t1) / s))
        spent += t2 - t0
    return out


def run_traced(name: str, seed: int, seconds: float) -> None:
    """A third of the time untraced in a fresh process, the same items
    traced here, and a third replaying the decide halves alone."""
    import workloads
    from spans import Tracer

    child = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds / 3), "--trace", "0", "--no-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit("untraced pass failed")
    untraced = json.loads(child.stdout.strip().splitlines()[-1])
    count = untraced["attempted"]

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    gauge = speed.Gauge()
    gen_ms = 0.0
    try:
        if name == workloads.ModelCheck.name:
            k = gauge.sample(speed.BRACKET)
            t0 = time.process_time()
            models = workloads.generate_models(seed)
            dt = time.process_time() - t0
            gen_ms = dt * 1e3 / gauge.bracket(k)
            wl = workloads.ModelCheck(seed, str(workdir), workloads.model_texts(models))
        else:
            wl = workloads.WORKLOADS[name](seed, str(workdir))
        tracer.install()
        try:
            records, slowness, _ = _loop(wl, 0.0, count, gauge, tracer)
        finally:
            tracer.uninstall()
        props = [wl.props(i) for i, *_ in records]
        decided, failures = _verify(wl, records)
        replay = (_replay(wl, count, seconds / 3, gauge)
                  if isinstance(wl, workloads.DecideWorkload) else [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(records)
    traced_ips = n / sum(dt for _, dt, _, _ in records)
    self_s = tracer.self_times(slowness)
    metrics: dict[str, tuple[float, str]] = {}
    for span in PER_LAYER_SPANS:
        metrics[f"{span}_ms"] = (self_s.get(span, 0.0) * 1e3 / n, "ms/item")

    outcomes = Counter(wl.outcome(r) for _, _, r, e in records if e is None)
    decide_s = tracer.durations("search.decide", slowness)
    proved, witness_worlds, proof_nodes, late = [], [], [], []
    if isinstance(wl, workloads.DecideWorkload):
        for i, _, result, error in records:
            if error is not None:
                continue
            out = json.loads(result[1])
            if out["outcome"] == "Proved":
                proved.append(i)
                proof_nodes.append(_count_nodes(out["proof"]))
            elif out["outcome"] == "Refuted":
                witness_worlds.append(out["model"]["worlds"])
            elif out["reason"] == "deadline reached":
                late.append((decide_s[i] - wl.per_item_limit) * 1e3)
    replayed = {i: (ps, cm) for i, ps, cm in replay}
    share_items = [i for i in proved if i in replayed]
    share_decide = sum(decide_s[i] for i in share_items)
    metrics.update({
        "search.proof_search_ms": (_mean(ps for _, ps, _ in replay) * 1e3, "ms/item"),
        "search.enumerate_countermodels_ms": (_mean(cm for _, _, cm in replay) * 1e3, "ms/item"),
        "search.replayed": (len(replay), "count"),
        "search.proof_share": (sum(replayed[i][0] for i in share_items) / share_decide
                               if share_decide else 0.0, "ratio"),
        "search.proof_share_base": (len(share_items), "count"),
        "search.proved": (outcomes.get("Proved", 0), "count"),
        "search.refuted": (outcomes.get("Refuted", 0), "count"),
        "search.exhausted": (outcomes.get("Exhausted", 0), "count"),
        "search.proof_nodes": (_mean(proof_nodes), "nodes"),
        "search.witness_worlds": (_mean(witness_worlds), "worlds"),
        "search.deadline_late_ms": (statistics.median(late) if late else 0.0, "ms"),
        "search.deadline_late_max_ms": (max(late, default=0.0), "ms"),
        "calculus.nodes_checked": (sum(p["proof_nodes"] for p, (_, _, r, e) in zip(props, records)
                                       if e is None and wl.outcome(r) == "accepted"), "count"),
        "calculus.rejected": (outcomes.get("rejected", 0), "count"),
        "semantics.sat_calls": (tracer.count("semantics.sat"), "count"),
        "generate.generate_models_ms": (gen_ms, "ms"),
        "generate.models": (len(wl.texts) if isinstance(wl, workloads.ModelCheck) else 0,
                            "count"),
        "trace.items": (n, "count"),
        "trace.items_per_s": (traced_ips, "1/s"),
        "trace.untraced_items_per_s": (untraced["metrics"]["items_per_s"]["value"], "1/s"),
        "trace.overhead_pct": ((untraced["metrics"]["items_per_s"]["value"] / traced_ips - 1)
                               * 100, "%"),
    })
    result = {
        "correct": not failures and untraced["correct"],
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.columns(), fh)
    _emit(name, seed, 1, result, {"failures": failures, "outcomes": dict(outcomes)})


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _count_nodes(node: dict) -> int:
    count, stack = 0, [node]
    while stack:
        n = stack.pop()
        count += 1
        stack.extend(n["premises"])
    return count


def run_all(seed: int, seconds: float, trace: int, items: int | None) -> int:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        if items is not None:
            argv += ["--items", str(items)]
        child = subprocess.run(argv, cwd=ROOT, capture_output=True,
                               text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            print(f"{name}: exited with {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None,
                        help="run exactly this many items instead of timing --seconds")
    parser.add_argument("--self-check", action="store_true",
                        help=f"run {SELF_CHECK_ITEMS} items of every workload at seed 0 "
                             "with every correctness and fingerprint check")
    parser.add_argument("--no-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    # a terminated run still removes its scratch files on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qrc1" / "__init__.py").is_file():
        print(f"perfbench: no qrc1 package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    if args.self_check:
        return run_all(0, 0.0, 0, SELF_CHECK_ITEMS)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, args.items)
    if args.trace:
        run_traced(args.workload, args.seed, args.seconds)
    else:
        run_untraced(args.workload, args.seed, args.seconds, args.items, not args.no_setup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
