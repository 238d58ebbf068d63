"""Command line front end.

Four subcommands, one per workflow:

    run      drive one schedule of a machine against a scenario
    explore  enumerate every schedule and report trace classes + verdicts
    lint     static doActivity hazard report
    replay   re-execute a saved trace and require byte-identical output

Exit codes are uniform across subcommands:

    0  clean (expectations hold, no findings, replay identical)
    1  expectation failed / lint findings / replay divergence
    2  unusable input: a parse error, a missing or unreadable file, a file
       that holds no trace, an unknown strategy
    3  step, trace, memory or stack budget exhausted
    4  deadlock (run: machine stuck mid-scenario; explore: some schedule is)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional

from . import __version__
from . import scenario as S
from .engine.driver import (
    BudgetExceeded,
    FirstStrategy,
    RandomStrategy,
    ScriptDiverged,
    ScriptStrategy,
    RunResult,
    evaluate_run,
    run,
)
from .engine.kernel import build_index
from .explorer import ExploreBounds, explore
from .linter import APPLICABLE, IMPORTANT, SLIGHT, lint
from .linter import explain as explain_pattern
from .parser import ParseFailure, load_model, load_scenario
from .trace import Trace, first_divergence, from_json as trace_from_json

OK = 0
FAIL = 1
PARSE = 2
BUDGET = 3
DEADLOCK = 4


class InputError(Exception):
    """An input the command cannot use; exits with PARSE."""


def expectation_text(e: S.Expectation) -> str:
    if isinstance(e, S.EventuallyActive):
        return f"eventually-active {e.state}"
    if isinstance(e, S.Emits):
        return "emits " + ", ".join(e.signals)
    return f"never-discards {e.signal}"


def _load(args) -> tuple:
    model = load_model(args.model)
    scenario = load_scenario(args.scenario, model) if getattr(args, "scenario", None) else None
    return model, scenario


def _read_trace(path: str) -> tuple[str, Trace]:
    """A trace file's text and the trace it holds."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            return text, trace_from_json(text)
        except ValueError as exc:   # also undecodable bytes and bad JSON
            raise InputError(f"{path}: cannot read trace: {exc}") from None


def _strategy(args):
    spec = args.strategy
    if spec == "first":
        return FirstStrategy()
    if spec == "random":
        return RandomStrategy(args.seed)
    if spec.startswith("script:"):
        return ScriptStrategy(_read_trace(spec[len("script:"):])[1].script())
    raise InputError(f"unknown strategy {spec!r}")


# --- run -------------------------------------------------------------------


def _print_run_text(result: RunResult, outcomes, out) -> None:
    for i, sp in enumerate(result.stable_points):
        line = f"stable {i}: {sp.config}"
        if sp.pools != "empty":
            line += f"   pending: {sp.pools}"
        print(line, file=out)
    for oc in outcomes:
        status = "pass" if oc.ok else f"FAIL ({oc.detail})"
        print(f"expect {expectation_text(oc.expectation)}: {status}", file=out)
    print(f"steps: {len(result.trace.records)}", file=out)


def cmd_run(args) -> int:
    model, scenario = _load(args)
    ctx = build_index(model)
    strategy = _strategy(args)
    try:
        result = run(ctx, scenario, strategy, max_steps=args.max_steps, max_pool=args.max_pool)
    except BudgetExceeded as exc:
        print(f"budget exhausted after {len(exc.records)} steps", file=sys.stderr)
        return BUDGET
    except ScriptDiverged as exc:
        print(f"script diverged at step {exc.index}: wanted {exc.expected}", file=sys.stderr)
        return FAIL

    outcomes = evaluate_run(ctx, scenario, result) if scenario else []

    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(result.trace.to_json())

    if args.format == "structured":
        doc = {
            "model": model.name,
            "scenario": scenario.name if scenario else None,
            "strategy": result.trace.strategy,
            "steps": len(result.trace.records),
            "stable": [
                {"config": sp.config, "pending": sp.pools} for sp in result.stable_points
            ],
            "observables": [list(o) for o in result.trace.observables()],
            "expectations": [
                {"text": expectation_text(oc.expectation), "ok": oc.ok, "detail": oc.detail}
                for oc in outcomes
            ],
            "deadlocked": result.deadlocked,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_run_text(result, outcomes, sys.stdout)
        if result.deadlocked:
            print("deadlock: no step enabled before the scenario finished")

    if result.deadlocked:
        return DEADLOCK
    if any(not oc.ok for oc in outcomes):
        return FAIL
    return OK


# --- explore ----------------------------------------------------------------


def cmd_explore(args) -> int:
    model, scenario = _load(args)
    bounds = ExploreBounds(max_micro_steps=args.max_steps, max_pool=args.max_pool)
    ts = explore(model, scenario, bounds)
    verdicts, signals = ts.check_all(), ts.signal_partition()

    if args.format == "structured":
        doc = {
            "model": model.name,
            "scenario": scenario.name if scenario else None,
            "nodes": ts.stats.nodes,
            "edges": ts.stats.edges,
            "complete_traces": str(ts.total),
            "signal_classes": len(signals),
            "normalized_classes": len(ts.normalized_partition()),
            "deadlocks": ts.stats.deadlocks,
            "truncated": ts.stats.truncated,
            "discarding_traces": str(ts.stats.discard_traces),
            "verdicts": [
                {
                    "text": expectation_text(v.expectation),
                    "verdict": v.verdict,
                    "witness": list(v.witness.obs_signals()) if v.witness else None,
                    "counterexample": (
                        list(v.counterexample.obs_signals()) if v.counterexample else None
                    ),
                }
                for v in verdicts
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"nodes: {ts.stats.nodes}   edges: {ts.stats.edges}")
        print(f"complete traces: {ts.total}")
        print(f"signal classes: {len(signals)}   normalized: {len(ts.normalized_partition())}")
        print(
            f"deadlocks: {ts.stats.deadlocks}   truncated: {ts.stats.truncated}   "
            f"discarding traces: {ts.stats.discard_traces}"
        )
        if args.classes:
            for seq, cnt in sorted(signals.items(), key=lambda kv: (-kv[1], kv[0])):
                sigs = ", ".join(seq) or "(silent)"
                print(f"  {cnt:>8} x [{sigs}]")
        for v in verdicts:
            line = f"expect {expectation_text(v.expectation)}: {v.verdict}"
            if v.verdict != "all" and v.counterexample is not None:
                bad = ", ".join(v.counterexample.obs_signals()) or "(silent)"
                line += f"   counterexample: [{bad}]"
            print(line)

    if any(v.verdict != "all" for v in verdicts):
        return FAIL
    if ts.stats.deadlocks:
        return DEADLOCK
    if ts.stats.truncated:
        return BUDGET
    return OK


# --- lint --------------------------------------------------------------------


def cmd_lint(args) -> int:
    model = load_model(args.model)
    findings = lint(model, severity=args.severity)

    if args.format == "structured":
        doc = {
            "model": model.name,
            "severity": args.severity,
            "findings": [
                {
                    "state": f.state,
                    "pattern": f.pattern,
                    "issues": [
                        {"name": i.name, "severity": i.severity, "description": i.description}
                        for i in f.issues
                    ],
                }
                for f in findings
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        if not findings:
            print("no findings")
        for f in findings:
            print(f.line())
            if args.explain:
                print(f"    {explain_pattern(f.pattern)}")
                for issue in f.issues:
                    print(f"    - {issue.name}: {issue.description}")

    return FAIL if findings else OK


# --- replay -------------------------------------------------------------------


def cmd_replay(args) -> int:
    model, scenario = _load(args)
    original_json, original = _read_trace(args.trace)

    try:
        result = run(
            model,
            scenario,
            ScriptStrategy(original.script()),
            max_steps=args.max_steps,
            max_pool=args.max_pool,
        )
    except ScriptDiverged as exc:
        print(f"diverged at step {exc.index}: script wanted {exc.expected}", file=sys.stderr)
        return FAIL
    except BudgetExceeded as exc:
        print(f"budget exhausted after {len(exc.records)} steps", file=sys.stderr)
        return BUDGET

    # The replayed run was made under the script strategy; the byte-level
    # comparison is about machine behavior, so carry the original's labels.
    replayed = replace(result.trace, strategy=original.strategy, seed=original.seed, meta=original.meta)
    if replayed.to_json() == original_json:
        print(f"replay identical: {len(result.trace.records)} steps")
        return OK
    where = first_divergence(original, replayed)
    if where is None:  # equal traces: the file's layout (spacing, key order) differs
        print("replay DIVERGED in rendering: the file is not the canonical JSON of its trace", file=sys.stderr)
    elif isinstance(where, str):
        print(f"replay DIVERGED in header field {where}: original {getattr(original, where)!r}, "
              f"replayed {getattr(replayed, where)!r}", file=sys.stderr)
    else:
        print(f"replay DIVERGED at record {where}", file=sys.stderr)
        for side, trace in (("original", original), ("replayed", replayed)):
            if where < len(trace.records):
                print(f"  {side}: {trace.records[where].line(where)}", file=sys.stderr)
    return FAIL


# --- entry -------------------------------------------------------------------


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _add_budget_flags(p: argparse.ArgumentParser, max_steps: int = 2000, max_pool: int = 64) -> None:
    p.add_argument("--max-steps", type=non_negative_int, default=max_steps, help="records per schedule, injections included")
    p.add_argument("--max-pool", type=non_negative_int, default=max_pool, help="event pool size bound")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="statebench",
        description="state machine doActivity interpreter, explorer and linter",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one schedule")
    p.add_argument("model", help=".psm machine file")
    p.add_argument("scenario", help=".scn scenario file")
    p.add_argument("--strategy", default="first", help="first | random | script:FILE")
    p.add_argument("--seed", type=int, default=0, help="seed for --strategy random")
    p.add_argument("--trace-out", help="write the trace as JSON to this file")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explore", help="enumerate all schedules")
    p.add_argument("model")
    p.add_argument("scenario")
    bounds = ExploreBounds()
    p.add_argument("--classes", action="store_true", help="list every signal class")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    _add_budget_flags(p, bounds.max_micro_steps, bounds.max_pool)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("lint", help="static doActivity hazard report")
    p.add_argument("model")
    p.add_argument(
        "--severity",
        choices=(IMPORTANT, APPLICABLE, SLIGHT),
        default=APPLICABLE,
        help="weakest hazard level to report",
    )
    p.add_argument("--explain", action="store_true", help="print pattern guidance")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("replay", help="re-run a saved trace, byte compare")
    p.add_argument("model")
    p.add_argument("scenario")
    p.add_argument("trace", help="trace JSON produced by run --trace-out")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_replay)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseFailure as exc:
        for d in exc.errors:
            print(d, file=sys.stderr)
        return PARSE
    except (OSError, InputError) as exc:
        print(str(exc), file=sys.stderr)
        return PARSE
    except MemoryError:  # the frames that held the memory are gone by now
        print("out of memory: the budget is exceeded", file=sys.stderr)
        return BUDGET
    except RecursionError:  # the recursive parser and validator, on a deeply nested model
        print("nesting too deep for the interpreter's stack: the budget is exceeded", file=sys.stderr)
        return BUDGET


if __name__ == "__main__":
    sys.exit(main())
