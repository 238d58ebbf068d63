"""The canonical order of `enabled_steps`.

doActivity threads first, then compound transition legs, then "net", then
"sm"; threads of one kind by their id as a number; within a thread, by step
key. The expected order is computed here from the thread label alone, so a
string sort of the labels (which puts "do10" before "do9") is caught. The
walks cover every fixture scenario and the generated machines that have two
doActivities alive at once.
"""

from __future__ import annotations

import pytest

from conftest import FIXTURE_PAIRS, FIXTURES
from hier_gen import gen_hier_machine, gen_hier_scenario, seeds_with
from statebench.engine import kernel
from statebench.engine.driver import RandomStrategy, run
from statebench.explorer import explore
from statebench.parser import load_model, load_scenario, parse_model, parse_scenario


def expected_rank(thread: str) -> tuple[int, int]:
    for rank, prefix in enumerate(("do", "leg")):
        if thread.startswith(prefix) and thread[len(prefix):].isdigit():
            return rank, int(thread[len(prefix):])
    return {"net": (2, 0), "sm": (3, 0)}[thread]


def sensors(n: int) -> str:
    """n orthogonal sensor regions, each entering a state with a doActivity."""
    signals = ["turnOn", "measure"] + [f"{s}_{i}" for i in range(n) for s in ("m", "ok", "done")]
    lines = [f"machine S{n} {{", f"  signals {', '.join(signals)};"]
    lines += [f"  activity a_{i} {{ send m_{i} to env; accept ok_{i}; send done_{i} to self; }}" for i in range(n)]
    lines += ["  region main {", "    initial -> Standby;", "    state Standby { }", "    state Active {"]
    for i in range(n):
        lines += [
            f"      region r_{i} {{ initial -> W_{i}; state W_{i} {{ }} state M_{i} {{ do a_{i}; }}",
            f"        transition Go_{i}: W_{i} -> M_{i} on measure;",
            f"        transition Back_{i}: M_{i} -> W_{i} on done_{i}; }}",
        ]
    lines += ["    }", "    transition T1: Standby -> Active on turnOn;", "  }", "}"]
    return "\n".join(lines) + "\n"


@pytest.fixture
def checked(monkeypatch):
    """Every list `enabled_steps` returns, checked for canonical order. One
    list per call, so the tests also count the calls: the explorer makes one
    per node and a run one per applied step plus the last, and `apply` makes
    none for a step it was handed by `enabled_steps`."""
    seen: list[list[str]] = []
    inner = kernel.enabled_steps

    def checking(ctx, st, *made):
        steps = inner(ctx, st, *made)
        ranks = [(expected_rank(s.thread), s.key()) for s in steps]
        assert ranks == sorted(ranks), [s.key() for s in steps]
        seen.append([s.thread for s in steps])
        return steps

    monkeypatch.setattr(kernel, "enabled_steps", checking)
    return seen


def walks():
    for model_name, scn_name in FIXTURE_PAIRS:
        m = load_model(str(FIXTURES / f"{model_name}.psm"))
        yield pytest.param(m, load_scenario(str(FIXTURES / f"{scn_name}.scn"), m), id=f"{model_name}-{scn_name}")
    for seed in seeds_with("two dos alive at once"):
        m = gen_hier_machine(seed)
        yield pytest.param(m, gen_hier_scenario(seed, m), id=f"hier{seed}")


@pytest.mark.parametrize("m,scn", walks())
def test_fixture_walks_are_canonical(m, scn, checked):
    ts = explore(m, scn)
    assert checked and len(checked) == ts.stats.nodes


def test_random_runs_across_thread_id_ten_are_canonical(checked):
    m = parse_model(sensors(3)).model
    scn = parse_scenario(
        "scenario s { inject turnOn; await-stable; inject measure; await-stable; "
        "inject ok_0; inject ok_1; inject ok_2; }",
        m,
    ).scenario
    for seed in range(20):
        calls = len(checked)
        records = run(m, scn, RandomStrategy(seed)).trace.records
        assert len(checked) - calls == sum(r.kind != "Inject" for r in records) + 1

    def straddles(threads: list[str]) -> bool:
        """Some do (or leg) threads with ids below 10 and some at 10 or above."""
        ranks = [expected_rank(t) for t in threads]
        return any({tid < 10 for k, tid in ranks if k == kind} == {True, False} for kind in (0, 1))

    assert any(straddles(threads) for threads in checked)
