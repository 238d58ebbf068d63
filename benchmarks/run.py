"""statebench benchmark: three workloads, each a closed loop with one caller.

    python3 benchmarks/run.py --workload explore-s3 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seconds 20

Every workload runs in its own single-threaded process. With `--trace 0` it
measures the end-to-end metrics with tracing off; with `--trace 1` it
alternates untraced and traced operations and reports per-layer metrics,
the tracing overhead between the two, and the layers its loop does not reach
measured once on its own input. Every operation is checked against
`pins.json`: a wrong answer counts as a failed operation, never as a gain.
The last line of standard output is the JSON result; a copy with the Python
version, CPU count, commit and seed goes to `.bench_out/results/`.
See README.md in this directory for the metric list and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import gen
from tracer import NullTracer, Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = HERE / "fixtures"
OUT = ROOT / ".bench_out"
PINS = HERE / "pins.json"
SETUP_REPS = 9
REPLAY_BATCH = 16
MODULES = ("parser", "cli", "explorer", "linter", "trace", "engine.kernel", "engine.state", "engine.driver")
LAYERS = frozenset(("parser", "index", "explorer", "kernel", "state", "driver", "trace", "linter"))


def import_program() -> SimpleNamespace:
    """Fresh import of the statebench modules the benchmark calls, so that
    every set-up repetition pays the import again."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules if m == "statebench" or m.startswith("statebench.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m.split(".")[-1]: importlib.import_module("statebench." + m) for m in MODULES})


def load_pins(path: Path = PINS) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


@dataclass
class Inputs:
    model_path: Path          # the scenario-bearing input: explored, run, probed
    scenario_path: Path
    model: object
    scenario: object
    ctx: object
    pin: str                  # pins.json key of that input
    corpus: tuple[Path, ...] = ()
    corpus_bytes: int = 0
    corpus_pin: str = ""


def _load(ns, model_path: Path, scenario_path: Path, pin: str) -> Inputs:
    model = ns.parser.load_model(model_path)
    scenario = ns.parser.load_scenario(scenario_path, model)
    return Inputs(model_path, scenario_path, model, scenario, ns.kernel.build_index(model), pin)


def sn_expectations(n: int) -> tuple[str, ...]:
    """Verdicts all / some / none on every sN: runs witness and counterexample searches."""
    return (f"eventually-active M_{n - 1}", "never-discards ok_0", "emits m_0")


def _write(name: str, text: str) -> Path:
    path = OUT / "inputs" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def setup_explore(ns, size: int | None) -> Inputs:
    n = size or 3
    mp = _write(f"s{n}.psm", gen.machine_text(n))
    sp = _write(f"s{n}.scn", gen.scenario_text(n, sn_expectations(n)))
    return _load(ns, mp, sp, f"s{n}")


def setup_replay(ns, size: int | None) -> Inputs:
    return _load(ns, FIXTURES / "measurement.psm", FIXTURES / "measurement.scn", "measurement")


def setup_frontend(ns, size: int | None) -> Inputs:
    n = size or 1024
    inp = setup_replay(ns, None)
    inp.corpus = tuple(sorted(FIXTURES.glob("*.psm"))) + (_write(f"wide-s{n}.psm", gen.machine_text(n)),)
    inp.corpus_bytes = sum(p.stat().st_size for p in inp.corpus)
    inp.corpus_pin = f"wide-s{n}"
    return inp


# --- checks -------------------------------------------------------------------


def check_explore_set(ts, witnesses, pin: dict) -> list[str]:
    """Counts, classes and class witnesses of one exploration."""
    problems = []
    if str(ts.total) != pin["complete_traces"]:
        problems.append(f"total {ts.total}, pinned {pin['complete_traces']}")
    if sum(ts.partition.values()) != ts.total:
        problems.append("class counts do not sum to the total")
    classes = list(ts.partition)
    if len(witnesses) != min(len(classes), ts.bounds.max_traces):
        problems.append(f"{len(witnesses)} witnesses for {len(classes)} classes")
    bad = sum(1 for w, c in zip(witnesses, classes) if w.observables() != c)
    if bad:
        problems.append(f"{bad} witnesses outside their class")
    return problems


def check_explore_doc(doc: dict, code: int, pin: dict) -> list[str]:
    """`statebench explore --format structured` output against its pins."""
    problems = []
    for key in ("complete_traces", "signal_classes", "normalized_classes", "deadlocks", "truncated", "discarding_traces"):
        if doc.get(key) != pin[key]:
            problems.append(f"{key} {doc.get(key)!r}, pinned {pin[key]!r}")
    verdicts = [v["verdict"] for v in doc["verdicts"]]
    if verdicts != pin["verdicts"]:
        problems.append(f"verdicts {verdicts}, pinned {pin['verdicts']}")
    for v in doc["verdicts"]:
        if (v["witness"] is None) != (v["verdict"] == "none"):
            problems.append(f"{v['text']}: witness does not match verdict {v['verdict']}")
        if (v["counterexample"] is None) != (v["verdict"] == "all"):
            problems.append(f"{v['text']}: counterexample does not match verdict {v['verdict']}")
    if code != pin["exit_code"]:
        problems.append(f"exit code {code}, pinned {pin['exit_code']}")
    return problems


def explorer_counts(tr, ts, witnesses) -> None:
    nodes = len(ts.nodes)
    lookups = sum(1 for node in ts.nodes for e in node.edges if e.child is not None)
    tr.add("explorer.nodes", nodes)
    tr.add("explorer.edges", sum(len(node.edges) for node in ts.nodes))
    tr.add("explorer.lookups", lookups)
    tr.add("explorer.memo_hits", lookups - (nodes - 1))
    tr.add("explorer.classes", len(ts.partition))
    tr.add("explorer.witness_records", sum(len(w.records) for w in witnesses))


# --- operations -----------------------------------------------------------------
# Each returns (seconds, named parts in seconds, problems). Only the calls
# into statebench are timed; checks run after the clock stops.


def op_explore(ns, inp: Inputs, rng: random.Random, pins: dict, tr) -> tuple:
    """`statebench explore --format structured` in-process, then the class
    witnesses of the same TraceSet."""
    got = []
    inner = ns.cli.explore

    def capture(*args, **kwargs):
        got.append(inner(*args, **kwargs))
        return got[-1]

    ns.cli.explore = capture
    out = io.StringIO()
    argv = ["explore", str(inp.model_path), str(inp.scenario_path), "--format", "structured"]
    try:
        t0 = perf_counter()
        with tr.span("bench.op"):
            with tr.span("explorer.session"), redirect_stdout(out):
                code = ns.cli.main(argv)
            t1 = perf_counter()
            with tr.span("explorer.witness"):
                witnesses = got[0].traces
        t2 = perf_counter()
    finally:
        ns.cli.explore = inner
    pin = pins[inp.pin]
    problems = check_explore_doc(json.loads(out.getvalue()), code, pin)
    problems += check_explore_set(got[0], witnesses, pin)
    if tr.enabled:
        tr.add("parser.bytes", inp.model_path.stat().st_size + inp.scenario_path.stat().st_size)
        explorer_counts(tr, got[0], witnesses)
    del got[:], witnesses
    return t2 - t0, {"explore_s": t1 - t0, "witness_s": t2 - t1}, problems


def round_trip(ns, inp: Inputs, seed: int, pins: dict, tr) -> tuple:
    """What `statebench run --strategy random` then `statebench replay` do."""
    d = ns.driver
    t0 = perf_counter()
    with tr.span("driver.run"):
        first = d.run(inp.ctx, inp.scenario, d.RandomStrategy(seed))
    outcomes = d.evaluate_run(inp.ctx, inp.scenario, first)
    with tr.span("trace.to_json"):
        text = first.trace.to_json()
    with tr.span("trace.from_json"):
        saved = ns.trace.from_json(text)
    with tr.span("driver.replay"):
        again = d.run(inp.ctx, inp.scenario, d.ScriptStrategy(saved.script()))
    with tr.span("trace.to_json"):
        text2 = replace(again.trace, strategy=saved.strategy, seed=saved.seed).to_json()
    t1 = perf_counter()
    problems = []
    if text2 != text:
        problems.append(f"seed {seed}: replay differs at record {ns.trace.first_divergence(first.trace, again.trace)}")
    passed = [ns.cli.expectation_text(o.expectation) for o in outcomes if o.ok]
    missing = sorted(set(pins[inp.pin]["expect_pass"]) - set(passed))
    if missing:
        problems.append(f"seed {seed}: {', '.join(missing)} failed")
    tr.add("driver.steps", len(first.trace.records))
    tr.add("trace.bytes", len(text))
    return t1 - t0, {}, problems


def op_replay(ns, inp: Inputs, rng: random.Random, pins: dict, tr) -> tuple:
    """REPLAY_BATCH round trips, each with a fresh strategy seed. A single
    random run of `measurement` ends after about 45 or about 55 records, so
    single round trips have two latency modes with the median in the gap
    between them; the latency of a batch has one mode."""
    total, times, problems = 0.0, [], []
    with tr.span("bench.op"):
        for _ in range(REPLAY_BATCH):
            secs, _, bad = round_trip(ns, inp, rng.randrange(2**31), pins, tr)
            total += secs
            times.append(secs)
            problems += bad
    return total, {"round_trip_s": times}, problems


def findings_digest(found: list[tuple[str, list]]) -> str:
    text = "".join(f"{name}: {f.line()}\n" for name, fs in found for f in fs)
    return hashlib.sha256(text.encode()).hexdigest()


def op_frontend(ns, inp: Inputs, rng: random.Random, pins: dict, tr) -> tuple:
    """Parse, index and lint every machine of the corpus."""
    found = []
    t0 = perf_counter()
    with tr.span("bench.op"):
        for path in inp.corpus:
            with tr.span("parser.parse"):
                model = ns.parser.load_model(path)
            ns.kernel.build_index(model)
            with tr.span("linter.lint"):
                found.append((model.name, ns.linter.lint(model, severity=ns.linter.SLIGHT)))
    t1 = perf_counter()
    pin = pins[inp.corpus_pin]
    problems = []
    count = sum(len(fs) for _, fs in found)
    if (count, findings_digest(found)) != (pin["findings"], pin["digest"]):
        problems.append(f"{count} findings, digest {findings_digest(found)[:12]}; pinned {pin['findings']}, {pin['digest'][:12]}")
    tr.add("parser.bytes", inp.corpus_bytes)
    tr.add("linter.findings", count)
    return t1 - t0, {}, problems


def probe(ns, inp: Inputs, layers: frozenset, seed: int, pins: dict, tr) -> list[str]:
    """Run once each layer in `layers` on the workload's scenario-bearing
    input, so that every per-layer row is measured on every workload."""
    problems = []
    if "parser" in layers:
        with tr.span("parser.parse"):
            model = ns.parser.load_model(inp.model_path)
            ns.parser.load_scenario(inp.scenario_path, model)
        tr.add("parser.bytes", inp.model_path.stat().st_size + inp.scenario_path.stat().st_size)
    if "index" in layers:
        ns.kernel.build_index(inp.model)
    if "explorer" in layers:  # also measures state.key, which only the explorer calls
        pin = pins[inp.pin]
        with tr.span("explorer.session"):
            with tr.span("explorer.walk"):
                ts = ns.explorer.explore(inp.ctx, inp.scenario)
            verdicts = [v.verdict for v in ts.check_all()]
            found = (str(ts.total), len(ts.signal_partition()), len(ts.normalized_partition()), verdicts)
        with tr.span("explorer.witness"):
            witnesses = ts.traces
        want = (pin["complete_traces"], pin["signal_classes"], pin["normalized_classes"], pin["verdicts"])
        if found != want:
            problems.append(f"explore {found}, pinned {want}")
        problems += check_explore_set(ts, witnesses, pin)
        explorer_counts(tr, ts, witnesses)
    if "driver" in layers:  # a round trip measures the trace layer too
        problems += round_trip(ns, inp, seed, pins, tr)[2]
    if "linter" in layers:
        with tr.span("linter.lint"):
            tr.add("linter.findings", len(ns.linter.lint(inp.model, severity=ns.linter.SLIGHT)))
    return problems


def trace_targets(ns) -> list[tuple]:
    """Attributes swapped for traced wrappers in traced operations. Hot
    kernel calls are aggregated, not stored."""
    k, ts = ns.kernel, ns.explorer.TraceSet
    return [
        (k, "enabled_steps", "kernel.enabled", False),
        (k, "apply", "kernel.apply", False),
        (k, "inject", "kernel.inject", False),
        (ns.state.RuntimeState, "key", "state.key", False),
        (k, "build_index", "kernel.index", True),
        (ns.cli, "load_model", "parser.parse", True),
        (ns.cli, "load_scenario", "parser.parse", True),
        (ns.cli, "explore", "explorer.walk", True),
        (ts, "partition", "explorer.partition", True),
        (ts, "signal_partition", "explorer.project", True),
        (ts, "normalized_partition", "explorer.project", True),
        (ts, "check_all", "explorer.verdicts", True),
    ]


def retained(ns, inp: Inputs) -> tuple[int, int]:
    """Bytes still allocated after the walk (tracemalloc), and node count."""
    gc.collect()
    tracemalloc.start()
    try:
        ts = ns.explorer.explore(inp.ctx, inp.scenario)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held, len(ts.nodes)


# --- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in README.md and BENCHMARK.json."""

    setup: Callable
    op: Callable
    loop_layers: frozenset
    # end-to-end metrics under the names users know them by: name -> (unit, stats -> value)
    named: tuple
    per_op: int = 1  # units of work in one operation; loop layers are reported per unit


def _median_part(part: str):
    return lambda s: statistics.median(p[part] for p in s["parts"])


def _round_trips_ms(s) -> list[float]:
    return [1000 * t for p in s["parts"] for t in p["round_trip_s"]]


WORKLOADS = {
    "explore-s3": Workload(
        setup_explore,
        op_explore,
        frozenset(("parser", "index", "explorer", "kernel", "state")),
        (("explore_s", "s", _median_part("explore_s")), ("witness_s", "s", _median_part("witness_s"))),
    ),
    "run-replay": Workload(
        setup_replay,
        op_replay,
        frozenset(("driver", "trace", "kernel")),
        (
            ("runs_per_s", "1/s", lambda s: s["ops_per_s"] * REPLAY_BATCH),
            ("run_ms_p50", "ms", lambda s: statistics.median(_round_trips_ms(s))),
            ("run_ms_tail", "ms", lambda s: tail(_round_trips_ms(s))[0]),
        ),
        REPLAY_BATCH,
    ),
    "frontend-wide": Workload(
        setup_frontend,
        op_frontend,
        frozenset(("parser", "index", "linter")),
        (("frontend_s", "s", lambda s: s["op_ms_p50"] / 1000),),
    ),
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[math.ceil(p / 100 * len(values)) - 1]


def tail(values: list[float]) -> tuple[float, str]:
    """Highest of p99.9 / p99 / p90 with at least ten samples beyond it; the
    maximum when there are too few samples for p90."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (100 - p) / 100 >= 10:
            return percentile(values, p), f"p{p:g}"
    return max(values), "max"


def layer_metrics(src: dict, loop: Tracer, n_loop: int, held: tuple[int, int], overhead_ms: float, base_ms: float) -> dict:
    """Per-layer rows, per operation. `src` maps each layer to the tracer
    that measured it and its operation count."""
    m: dict[str, tuple[float, str]] = {}

    def per(layer: str, span: str, i: int) -> float:
        tr, n = src[layer]
        return tr.totals.get(span, (0, 0.0, 0.0))[i] / n

    def count(layer: str, name: str) -> float:
        tr, n = src[layer]
        return tr.counts.get(name, 0) / n

    def timed(layer: str, span: str) -> None:
        m[span + "_s"] = (per(layer, span, 1), "s")
        m[span + "_self_s"] = (per(layer, span, 2), "s")

    timed("explorer", "explorer.session")
    tr, n = src["explorer"]
    covered = tr.child_seconds("explorer.session", {"explorer.walk", "explorer.project", "explorer.verdicts"}) / n
    m["explorer.covered_frac"] = (covered / per("explorer", "explorer.session", 1), "ratio")
    for span in ("walk", "partition", "project", "verdicts", "witness"):
        timed("explorer", "explorer." + span)
    for name in ("nodes", "edges", "memo_hits", "classes", "witness_records"):
        m["explorer." + name] = (count("explorer", "explorer." + name), "count")
    m["explorer.memo_hit_ratio"] = (count("explorer", "explorer.memo_hits") / count("explorer", "explorer.lookups"), "ratio")
    m["explorer.nodes_per_s"] = (count("explorer", "explorer.nodes") / per("explorer", "explorer.walk", 1), "1/s")
    m["explorer.retained_mb"] = (held[0] / 2**20, "MB")
    m["explorer.bytes_per_node"] = (held[0] / held[1], "B")
    for step in ("enabled", "apply", "inject"):
        m[f"kernel.{step}_calls"] = (per("kernel", f"kernel.{step}", 0), "count")
        timed("kernel", f"kernel.{step}")
    busy = per("kernel", "kernel.enabled", 1) + per("kernel", "kernel.apply", 1)
    m["kernel.steps_per_s"] = (per("kernel", "kernel.apply", 0) / busy, "1/s")
    timed("index", "kernel.index")
    m["state.key_calls"] = (per("state", "state.key", 0), "count")
    timed("state", "state.key")
    timed("driver", "driver.run")
    timed("driver", "driver.replay")
    m["driver.steps"] = (count("driver", "driver.steps"), "count")
    timed("trace", "trace.to_json")
    timed("trace", "trace.from_json")
    m["trace.bytes"] = (count("trace", "trace.bytes"), "B")
    timed("parser", "parser.parse")
    m["parser.kb_per_s"] = (count("parser", "parser.bytes") / 1024 / per("parser", "parser.parse", 1), "KiB/s")
    timed("linter", "linter.lint")
    m["linter.findings"] = (count("linter", "linter.findings"), "count")
    m["bench.op_self_s"] = (loop.totals["bench.op"][2] / n_loop, "s")
    m["tracing.overhead_ms"] = (overhead_ms, "ms")
    m["tracing.overhead_frac"] = (overhead_ms / base_ms, "ratio")
    return m


def timed_setup(w: Workload, size: int | None) -> tuple:
    t0 = perf_counter()
    ns = import_program()
    inp = w.setup(ns, size)
    return perf_counter() - t0, ns, inp


def extra_setup(w: Workload, size: int | None) -> float:
    """Time one more set-up, then put back the modules the loop is using."""
    kept = {m: mod for m, mod in sys.modules.items() if m == "statebench" or m.startswith("statebench.")}
    secs = timed_setup(w, size)[0]
    sys.modules.update(kept)
    return secs


def measure(workload: str, seed: int, seconds: float, trace: bool, pins: dict, size: int | None = None) -> dict:
    """One benchmark run. `size` overrides the sN size (tests use tiny ones).
    The machine's speed drifts over seconds, so the set-up repetitions are
    spread over the run: one before the loop, the rest between operations."""
    w = WORKLOADS[workload]
    secs, ns, inp = timed_setup(w, size)
    setups = [secs]

    rng = random.Random(seed)
    loop, null = Tracer(), NullTracer()
    lat: dict[bool, list[float]] = {False: [], True: []}
    parts: list[dict] = []
    problems: list[str] = []
    attempted = failed = traced_ops = 0
    gc.collect()
    start = perf_counter()
    while perf_counter() - start < seconds or (trace and not traced_ops):
        traced = trace and attempted % 2 == 1
        attempted += 1
        try:
            if traced:
                traced_ops += 1
                loop.op = traced_ops
            with patched(loop, trace_targets(ns)) if traced else nullcontext():
                secs, part, bad = w.op(ns, inp, rng, pins, loop if traced else null)
        except Exception:
            secs, part, bad = None, {}, [traceback.format_exc()]
        if bad:
            failed += 1
            problems += bad
        else:
            lat[traced].append(secs)
            if not traced:
                parts.append(part)
        gc.collect()  # untimed: every operation starts with the previous one's garbage gone
        while len(setups) < 1 + (SETUP_REPS - 1) * min(1.0, (perf_counter() - start) / seconds):
            setups.append(extra_setup(w, size))
    while len(setups) < SETUP_REPS:
        setups.append(extra_setup(w, size))

    result = {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    info = {"setup_runs": setups, "ops": len(lat[False]), "traced_ops": len(lat[True]), "op_seconds": lat}
    if lat[False]:
        ms = [1000 * x for x in lat[False]]
        stats = {"parts": parts, "op_ms_p50": statistics.median(ms), "ops_per_s": len(ms) / sum(lat[False])}
        stats["op_ms_tail"], label = tail(ms)
        info["tail"] = {"op_ms_tail": stats["op_ms_tail"], "percentile": label}
        info["named"] = {name: (f(stats), unit) for name, unit, f in w.named}
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_ms_p50": (stats["op_ms_p50"], "ms"),
            "op_ms_p90": (percentile(ms, 90), "ms"),
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        if trace and lat[True]:
            side = Tracer()
            with patched(side, trace_targets(ns)):
                bad = probe(ns, inp, LAYERS - w.loop_layers, rng.randrange(2**31), pins, side)
            attempted += 1
            failed += bool(bad)
            problems += bad
            src = {layer: (loop, len(lat[True]) * w.per_op) if layer in w.loop_layers else (side, 1) for layer in LAYERS}
            base = statistics.median(lat[False])
            overhead = 1000 * (statistics.median(lat[True]) - base)
            metrics = layer_metrics(src, loop, len(lat[True]), retained(ns, inp), overhead, 1000 * base)
            info["spans"] = loop.spans + side.spans
        elif trace:
            metrics = {}
        result.update(attempted=attempted, failed=failed, correct=failed == 0 and bool(metrics))
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    info["problems"] = problems[:20]
    return {"result": result, "info": info}


# --- reporting ---------------------------------------------------------------------


def commit() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(args, run: dict) -> None:
    res, info = run["result"], run["info"]
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "commit": commit(),
    }
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for p in info["problems"]:
        print("FAILED:", p.rstrip(), file=sys.stderr)
    for name, (value, unit) in info.get("named", {}).items():
        print(f"  {name:<24} {value:>14.6g} {unit:<6} ({info['ops']} untraced ops)")
    if "tail" in info:
        print(f"  {'op_ms_tail':<24} {info['tail']['op_ms_tail']:>14.6g} ms     ({info['tail']['percentile']} of {info['ops']})")
    for name, m in res["metrics"].items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<24} {res['failed'] / max(res['attempted'], 1):>14.6g} ratio  ({res['failed']} of {res['attempted']} ops)")
    out = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {**env, **res, "failed_frac": res["failed"] / max(res["attempted"], 1), **info}
    out.write_text(json.dumps(doc, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(res))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="statebench benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0, help="input seed (run-replay; the others are deterministic)")
    ap.add_argument("--seconds", type=float, default=30, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = ap.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            ).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    if not (ROOT / "src" / "statebench").is_dir():
        print(f"no statebench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), load_pins())
    report(args, run)
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
