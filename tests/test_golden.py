"""Golden traces and explorations: results written by an earlier version.

A trace replayed by the code that made it cannot show the kernel drifting
between versions; these files can. Each was written by
`statebench run MODEL.psm SCENARIO.scn [--strategy random --seed N] --trace-out`
and is named MODEL.SCENARIO.STRATEGY.json. Replaying its script must give the
file back byte for byte, and so must running its strategy again, which also
pins the order of every enabled-step list the strategy chose from.

`explorations.json` pins what `explore` finds on every fixture scenario under
the default bounds and four tighter ones: the exact counts, the three
partitions (class count, trace count and a digest each), every verdict with
its witness and counterexample, and a digest of the materialized traces. It
also pins the DAG's node and edge counts: a memo key that split equal states
would leave every count the same and only grow the DAG.

`diagnostics.json` pins every diagnostic the parser gives on broken inputs.
For each fixture machine, and each fixture scenario parsed against its
machine, the variants are the file with one token deleted, or with one token
replaced by each of `REPLACEMENTS`: a letter and digits that are not ASCII,
a character outside the grammar, an integer too long for `int()` and a
comment. The file holds, per fixture file, the variant count, the count with
errors and a digest of every diagnostic's text and span length.

`lint.json` pins `statebench lint` on every fixture machine at each severity:
the finding count and digests of the `--explain` text and of the
`--format structured` document, so every pattern explanation and issue
description is pinned byte for byte.

`python tests/test_golden.py` rewrites the three files from the code at hand.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import re

import pytest

from conftest import FIXTURE_PAIRS, FIXTURES
from statebench.cli import expectation_text, main
from statebench.engine.driver import FirstStrategy, RandomStrategy, ScriptStrategy, run
from statebench.explorer import ExploreBounds, explore
from statebench.linter import APPLICABLE, IMPORTANT, SLIGHT, lint
from statebench.parser import load_model, load_scenario, parse_model, parse_scenario
from statebench.trace import from_json

GOLDEN = sorted((FIXTURES / "golden").glob("*.json"))
EXPLORATIONS = FIXTURES / "explorations.json"
DIAGNOSTICS = FIXTURES / "diagnostics.json"
LINTS = FIXTURES / "lint.json"
BOUNDS = {
    "default": ExploreBounds(),
    "max_micro_steps=10": ExploreBounds(max_micro_steps=10),
    "max_micro_steps=25": ExploreBounds(max_micro_steps=25),
    "max_micro_steps=31": ExploreBounds(max_micro_steps=31),
    "max_pool=1": ExploreBounds(max_pool=1),
}


def golden(path):
    model_name, scn_name, _ = path.name.split(".", 2)
    m = load_model(str(FIXTURES / f"{model_name}.psm"))
    return m, load_scenario(str(FIXTURES / f"{scn_name}.scn"), m), path.read_text(encoding="utf-8")


def test_golden_set():
    # the first strategy on 11 scenarios, 3 seeds on 3 of them
    assert len(GOLDEN) == 20


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_trace_replays_byte_identically(path):
    m, scn, text = golden(path)
    original = from_json(text)
    replayed = run(m, scn, ScriptStrategy(original.script())).trace
    assert dataclasses.replace(replayed, strategy=original.strategy, seed=original.seed).to_json() == text


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_trace_regenerates_from_its_strategy(path):
    m, scn, text = golden(path)
    seed = from_json(text).seed
    strategy = FirstStrategy() if seed is None else RandomStrategy(seed)
    assert run(m, scn, strategy).trace.to_json() == text


def exploration(model_name, scn_name, bounds) -> dict:
    """What `explore` finds for one fixture scenario under `bounds`, as JSON values."""
    m = load_model(str(FIXTURES / f"{model_name}.psm"))
    ts = explore(m, load_scenario(str(FIXTURES / f"{scn_name}.scn"), m), bounds)

    def classes(partition):  # measurement's has 2,240 classes, so a digest
        text = json.dumps([[key, cnt] for key, cnt in partition.items()])
        return [len(partition), sum(partition.values()), hashlib.sha256(text.encode()).hexdigest()]

    def text(trace):
        return None if trace is None else trace.to_json()

    traces = "".join(t.to_json() for t in ts.traces)
    return {
        "nodes": ts.stats.nodes,
        "edges": ts.stats.edges,
        "total": ts.total,
        "deadlocks": ts.stats.deadlocks,
        "truncated": ts.stats.truncated,
        "discard_traces": ts.stats.discard_traces,
        "partition": classes(ts.partition),
        "signal_partition": classes(ts.signal_partition()),
        "normalized_partition": classes(ts.normalized_partition()),
        "verdicts": [
            {
                "expectation": expectation_text(v.expectation),
                "verdict": v.verdict,
                "witness": text(v.witness),
                "counterexample": text(v.counterexample),
            }
            for v in ts.check_all()
        ],
        "traces": [len(ts.traces), ts.truncated_traces, hashlib.sha256(traces.encode()).hexdigest()],
    }


def explorations(model_name, scn_name) -> dict:
    """`exploration` under each of `BOUNDS`, through a JSON round trip, so
    tuples compare as the lists the file holds."""
    found = {name: exploration(model_name, scn_name, b) for name, b in BOUNDS.items()}
    return json.loads(json.dumps(found))


@pytest.mark.parametrize("model_name,scn_name", FIXTURE_PAIRS)
def test_exploration_matches_golden(model_name, scn_name):
    golden = json.loads(EXPLORATIONS.read_text(encoding="utf-8"))
    assert explorations(model_name, scn_name) == golden[f"{model_name}.{scn_name}"]


REPLACEMENTS = ("\u00bd", "\u00b2", "\u0661\u0662", "\u00e9", "@", "9" * 5000, "// c")
TOKEN = re.compile(r"//[^\n]*|\s+|(->|:=|==|!=|\w+|.)")
MACHINE_OF = {f"{scn_name}.scn": f"{model_name}.psm" for model_name, scn_name in FIXTURE_PAIRS}
DIAGNOSED = sorted(p.name for p in FIXTURES.glob("*.psm")) + sorted(MACHINE_OF)


def diagnostics(name) -> list:
    """[variants, variants with errors, digest of their diagnostics] for one
    fixture file."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    if name in MACHINE_OF:
        m = load_model(str(FIXTURES / MACHINE_OF[name]))
        errors = lambda variant: parse_scenario(variant, m, name).errors
    else:
        errors = lambda variant: parse_model(variant, name).errors
    spans = [t.span(1) for t in TOKEN.finditer(text) if t.group(1)]
    found = [[[str(e), e.span.length] for e in errors(text[:a] + new + text[b:])]
             for a, b in spans for new in ("",) + REPLACEMENTS]
    digest = hashlib.sha256(json.dumps(found).encode()).hexdigest()
    return [len(found), sum(1 for f in found if f), digest]


@pytest.mark.parametrize("name", DIAGNOSED)
def test_diagnostics_match_golden(name):
    golden = json.loads(DIAGNOSTICS.read_text(encoding="utf-8"))
    assert diagnostics(name) == golden[name]


LINTED = sorted(p.name for p in FIXTURES.glob("*.psm"))


def lint_outputs(name) -> dict:
    """Per severity, [findings, digest of the `--explain` text, digest of the
    structured document] of `statebench lint` on one fixture machine."""
    path = str(FIXTURES / name)
    found = {}
    for severity in (IMPORTANT, APPLICABLE, SLIGHT):
        digests = []
        for flags in (["--explain"], ["--format", "structured"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["lint", path, "--severity", severity, *flags])
            digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
        found[severity] = [len(lint(load_model(path), severity)), *digests]
    return found


@pytest.mark.parametrize("name", LINTED)
def test_lint_matches_golden(name):
    golden = json.loads(LINTS.read_text(encoding="utf-8"))
    assert lint_outputs(name) == golden[name]


if __name__ == "__main__":
    found = {f"{model_name}.{scn_name}": explorations(model_name, scn_name) for model_name, scn_name in FIXTURE_PAIRS}
    EXPLORATIONS.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    found = {name: diagnostics(name) for name in DIAGNOSED}
    DIAGNOSTICS.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    found = {name: lint_outputs(name) for name in LINTED}
    LINTS.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
