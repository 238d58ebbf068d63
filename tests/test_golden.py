"""Golden traces: schedules written by an earlier version of the kernel.

A trace replayed by the code that made it cannot show the kernel drifting
between versions; these files can. Each was written by
`statebench run MODEL.psm SCENARIO.scn [--strategy random --seed N] --trace-out`
and is named MODEL.SCENARIO.STRATEGY.json. Replaying its script must give the
file back byte for byte, and so must running its strategy again, which also
pins the order of every enabled-step list the strategy chose from.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import FIXTURES
from statebench.engine.driver import FirstStrategy, RandomStrategy, ScriptStrategy, run
from statebench.parser import load_model, load_scenario
from statebench.trace import from_json

GOLDEN = sorted((FIXTURES / "golden").glob("*.json"))


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
