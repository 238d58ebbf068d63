"""Exploration: exact counts, pruning soundness, witnesses, verdicts.

Class counts asserted here were computed once by hand-enumerating the small
schedules (do-simple, accept-race) and then frozen; the larger ones are
pinned so any kernel change that shifts the schedule space fails loudly.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import replace

import pytest

from conftest import machine, scenario_for
from flat_oracle import gen_flat_machine, gen_flat_scenario
from statebench.engine import BudgetExceeded, ScriptStrategy, build_index, evaluate_run, run
from statebench.explorer import ExploreBounds, check, explore
from statebench.parser import parse_scenario
from statebench.scenario import Emits, EventuallyActive, NeverDiscards
from statebench.trace import Trace


def explored(name, scn_name=None, **kw):
    m = machine(name)
    scn = scenario_for(scn_name or name, m)
    return explore(m, scn, **kw)


# --- exact totals and classes ------------------------------------------------


def test_do_simple_schedule_space():
    # abort can cut the do before either node: 6 silent traces, 4 that
    # got the send out first
    ts = explored("do-simple")
    assert ts.total == 10
    assert ts.signal_partition() == {(): 6, ("progress",): 4}


def test_accept_race_exact_split():
    # the do's accepter wins the e1 race in exactly one schedule
    ts = explored("accept-race")
    assert ts.total == 11
    assert ts.signal_partition() == {("got",): 1, ("smEntered",): 10}


def test_defer_with_accept_no_other_consumer():
    ts = explored("accept-defer")
    assert ts.total == 4
    assert ts.signal_partition() == {("got",): 4}


def test_self_signal_single_class():
    ts = explored("self-signal")
    assert ts.total == 1
    assert ts.signal_partition() == {("moved",): 1}


def test_completion_beats_older_pool_entries_everywhere():
    ts = explored("completion-priority")
    assert ts.total == 3
    assert ts.signal_partition() == {("fin", "afterLog"): 3}


def test_partition_counts_sum_to_total():
    ts = explored("composite-work")
    assert sum(ts.partition.values()) == ts.total == 204
    assert sum(ts.signal_partition().values()) == ts.total


# --- pruning soundness ----------------------------------------------------------


def complete_paths(ts, nid, acc):
    """Every complete trace of an unpruned tree in edge order, by brute force."""
    node = ts.nodes[nid]
    if node.terminal:
        yield acc
    for e in node.edges:
        if e.child is not None:
            yield from complete_paths(ts, e.child, acc + e.records)


def verdict_json(v):
    return (
        v.verdict,
        v.witness.to_json() if v.witness else None,
        v.counterexample.to_json() if v.counterexample else None,
    )


@pytest.mark.parametrize("name,text,verdicts", [
    pytest.param("do-simple", None, None, id="do-simple"),
    pytest.param("accept-race", None, None, id="accept-race"),
    pytest.param("self-signal", None, None, id="self-signal"),
    # "some" runs both the witness and the counterexample search
    pytest.param(
        "accept-race",
        "scenario s { inject e1; expect emits got; expect eventually-active S2; }",
        ["some", "some"],
        id="accept-race-emits-active",
    ),
    pytest.param(
        "accept-race",
        "scenario s { inject e1; inject e1; expect never-discards e1; }",
        ["some"],
        id="accept-race-discards",
    ),
    pytest.param(
        "defer-release",
        "scenario s { inject e1; inject e1; await-stable; inject e1; inject eLate;"
        " expect never-discards e1; }",
        ["none"],
        id="defer-release-discards",
    ),
    # hierarchy: a dotted path into a nested region, and a composite state
    # left by its completion transition
    pytest.param(
        "nested-do",
        "scenario s { inject e1; expect eventually-active main.Outer.r.After;"
        " expect emits progress; }",
        ["all", "some"],
        id="nested-do-active-emits",
    ),
    pytest.param(
        "composite-work",
        "scenario s { inject go; await-stable; inject e2; await-stable; inject e3;"
        " inject e2; expect eventually-active F; expect eventually-active D;"
        " expect never-discards e2; }",
        ["all", "all", "none"],
        id="composite-work-active-discards",
    ),
])
def test_pruned_and_unpruned_agree(name, text, verdicts):
    m = machine(name)
    scn = parse_scenario(text, m).scenario if text else scenario_for(name, m)
    pruned = explore(m, scn, prune=True)
    full = explore(m, scn, prune=False)
    assert pruned.total == full.total
    assert pruned.partition == full.partition
    # sharing must actually happen for the DAG to be smaller
    assert pruned.stats.nodes <= full.stats.nodes
    assert sorted(t.obs_signals() for t in pruned.traces) == sorted(
        t.obs_signals() for t in full.traces
    )
    assert pruned.stats.discard_traces == full.stats.discard_traces
    got = pruned.check_all()
    assert [verdict_json(v) for v in got] == [verdict_json(v) for v in full.check_all()]
    if verdicts is not None:
        assert [v.verdict for v in got] == verdicts

    # each witness and counterexample is the first complete trace in edge
    # order that a replay judges the same way; emits takes it from the first
    # observable class on its side
    paths = list(complete_paths(full, full.root, full.root_records))
    assert len(paths) == full.total
    assert Counter(Trace(p).observables() for p in paths) == full.partition
    if name == "composite-work":
        assert full.total == 285
    ctx = build_index(m)
    judged = [
        evaluate_run(ctx, scn, run(ctx, scn, ScriptStrategy(Trace(p).script())))
        for p in paths
    ]
    for i, v in enumerate(got):
        good = sum(outcomes[i].ok for outcomes in judged)
        if good == 0:
            want = "none"
        elif good == len(paths) and not full.stats.truncated:
            want = "all"
        else:
            want = "some"
        assert v.verdict == want
        for ok, found in ((True, v.witness), (False, v.counterexample)):
            side = [p for p, outcomes in zip(paths, judged) if outcomes[i].ok == ok]
            if side and isinstance(v.expectation, Emits):
                first = min(Trace(p).observables() for p in side)
                side = [p for p in side if Trace(p).observables() == first]
            assert (found.records if found else None) == (side[0] if side else None)


# every fixture scenario but measurement (too large to walk unpruned), as
# (machine, scenario), plus inline scenarios for the hierarchical machines
# that have no scenario file
BOUNDED_CASES = [
    pytest.param(name, name, id=name)
    for name in (
        "accept-defer-override", "accept-defer", "accept-race", "completion-priority",
        "completion-self-loop", "composite-defer-steal", "composite-work",
        "defer-release", "do-simple", "self-signal",
    )
] + [
    pytest.param("composite-work", "composite-complete", id="composite-complete"),
    pytest.param(
        "nested-do",
        "scenario s { inject e1; expect eventually-active main.Outer.r.After;"
        " expect emits progress; }",
        id="nested-do-inline",
    ),
    pytest.param(
        "nested-two-dos",
        "scenario s { inject e1; expect eventually-active main.Parent.r.After;"
        " expect never-discards e1; }",
        id="nested-two-dos-inline",
    ),
    pytest.param(
        "orthogonal-do",
        "scenario s { inject e1; inject e2; expect eventually-active L2; }",
        id="orthogonal-do-inline",
    ),
]


@pytest.mark.parametrize("bounds", [
    pytest.param(ExploreBounds(max_micro_steps=10), id="steps10"),
    pytest.param(ExploreBounds(max_micro_steps=25), id="steps25"),
    pytest.param(ExploreBounds(max_micro_steps=31), id="steps31"),
    pytest.param(ExploreBounds(max_pool=1), id="pool1"),
])
@pytest.mark.parametrize("name,scn_ref", BOUNDED_CASES)
def test_bounded_pruned_and_unpruned_agree(name, scn_ref, bounds):
    # a bound must cut the same schedules whatever order the walk takes
    m = machine(name)
    scn = parse_scenario(scn_ref, m).scenario if "{" in scn_ref else scenario_for(scn_ref, m)
    pruned = explore(m, scn, bounds=bounds, prune=True)
    full = explore(m, scn, bounds=bounds, prune=False)
    assert pruned.total == full.total
    assert pruned.partition == full.partition
    assert pruned.stats.discard_traces == full.stats.discard_traces
    assert [verdict_json(v) for v in pruned.check_all()] == [
        verdict_json(v) for v in full.check_all()
    ]
    # no edge closes a cycle: every child comes before its parent in `order`
    for ts in (pruned, full):
        place = {nid: i for i, nid in enumerate(ts.order)}
        assert len(place) == len(ts.nodes)
        for nid, node in enumerate(ts.nodes):
            assert all(place[e.child] < place[nid] for e in node.edges)


@pytest.mark.parametrize("seed", range(0, 30))
def test_run_and_explore_share_the_step_bound(seed):
    # a flat machine has one schedule; the bound counts its records,
    # injections included, and only cuts where a step is still enabled
    m = gen_flat_machine(seed)
    scn = gen_flat_scenario(seed, m)
    n = len(run(m, scn).trace.records)
    assert len(run(m, scn, max_steps=n).trace.records) == n
    ts = explore(m, scn, bounds=ExploreBounds(max_micro_steps=n))
    assert (ts.total, ts.stats.truncated) == (1, 0)
    with pytest.raises(BudgetExceeded):
        run(m, scn, max_steps=n - 1)
    ts = explore(m, scn, bounds=ExploreBounds(max_micro_steps=n - 1))
    assert (ts.total, ts.stats.truncated) == (0, 1)


# --- materialization and witnesses --------------------------------------------


def test_traces_materialize_when_total_fits():
    ts = explored("do-simple")
    assert len(ts.traces) == ts.total
    assert not ts.truncated_traces


def test_traces_become_witnesses_when_capped():
    ts = explored("do-simple", bounds=ExploreBounds(max_traces=3))
    assert ts.truncated_traces
    assert len(ts.traces) == 2  # one witness per observable class
    assert {t.obs_signals() for t in ts.traces} == {(), ("progress",)}


def test_find_trace_by_signal_sequence():
    ts = explored("accept-race")
    t = ts.find_trace(("got",))
    assert t is not None
    assert t.obs_signals() == ("got",)
    assert any(r.kind == "ConsumeDeferred" or r.kind == "ChooseAccepter"
               for r in t.records)
    assert ts.find_trace(("nothing-like-this",)) is None


def test_witness_traces_replay_as_scripts():
    from statebench.engine.driver import ScriptStrategy, run

    m = machine("accept-race")
    scn = scenario_for("accept-race", m)
    t = explore(m, scn).find_trace(("got",))
    rerun = run(m, scn, ScriptStrategy(t.script()))
    assert rerun.trace.records == t.records


# --- expectation verdicts -------------------------------------------------------


def test_verdict_all():
    m = machine("accept-defer")
    verdicts = check(m, scenario_for("accept-defer", m))
    assert [v.verdict for v in verdicts] == ["all", "all"]
    for v in verdicts:
        assert v.ok and v.witness is not None and v.counterexample is None


def test_verdict_some_with_both_sides():
    m = machine("do-simple")
    scn = parse_scenario(
        "scenario s { inject e1; expect emits progress; }", m
    ).scenario
    [v] = check(m, scn)
    assert v.verdict == "some"
    assert v.witness.obs_signals() == ("progress",)
    assert v.counterexample.obs_signals() == ()


def test_verdict_none_for_unreachable_state():
    m = machine("do-simple")
    scn = parse_scenario(
        "scenario s { expect eventually-active S2; }", m
    ).scenario
    [v] = check(m, scn)
    assert v.verdict == "none"
    assert v.witness is None
    assert v.counterexample is not None


def test_never_discards_counterexample_is_complete_trace():
    m = machine("do-simple")
    scn = parse_scenario(
        "scenario s { inject progress; expect never-discards progress; }", m
    ).scenario
    [v] = check(m, scn)
    assert v.verdict == "none"
    counter = v.counterexample
    assert counter is not None
    assert any(r.kind == "DiscardEvent" for r in counter.records)


def test_eventually_active_all():
    m = machine("do-simple")
    scn = parse_scenario(
        "scenario s { inject e1; expect eventually-active S2; }", m
    ).scenario
    [v] = check(m, scn)
    assert v.verdict == "all"


def test_dotted_state_must_name_a_vertex():
    # a scenario built in code skips the parser's check of state references
    m = machine("composite-defer-steal")
    base = scenario_for("composite-defer-steal", m)
    ctx = build_index(m)
    scn = replace(base, expectations=(EventuallyActive("main.S1.r.S3"),))
    assert [v.verdict for v in check(ctx, scn)] == ["all"]
    assert [o.ok for o in evaluate_run(ctx, scn, run(ctx, scn))] == [True]
    for text in ("nowhere.S3", "S1.r.S3", "main.S1.S3", "main.S1.r"):
        scn = replace(base, expectations=(EventuallyActive(text),))
        with pytest.raises(KeyError):
            check(ctx, scn)
        with pytest.raises(KeyError):
            evaluate_run(ctx, scn, run(ctx, scn))


# --- truncation ---------------------------------------------------------------


def test_step_bound_truncates_and_taints_verdicts():
    m = machine("composite-work")
    scn = scenario_for("composite-work", m)
    ts = explore(m, scn, bounds=ExploreBounds(max_micro_steps=10))
    assert ts.stats.truncated > 0
    for v in ts.check_all():
        assert v.verdict != "all"  # truncated exploration can never prove "all"


def test_pool_bound_truncates():
    m = machine("defer-release")
    scn = scenario_for("defer-release", m)
    ts = explore(m, scn, bounds=ExploreBounds(max_pool=1))
    assert ts.stats.truncated > 0


# --- normalization -------------------------------------------------------------


def test_normalized_collapses_independent_region_interleavings():
    m = machine("orthogonal-do")
    scn = parse_scenario("scenario s { inject e1; inject e2; }", m).scenario
    ts = explore(m, scn)
    assert ts.total == 1342
    raw = ts.signal_partition()
    assert raw == {
        ("coordLog", "leftLog", "rightLog"): 222,
        ("leftLog", "coordLog", "rightLog"): 788,
        ("leftLog", "rightLog", "coordLog"): 332,
    }
    norm = ts.normalized_partition()
    assert len(norm) == 1
    [(key, cnt)] = norm.items()
    assert cnt == ts.total
    assert dict(key) == {
        "main": ("coordLog",),
        "main.Both.left": ("leftLog",),
        "main.Both.right": ("rightLog",),
    }


def test_discard_trace_count():
    m = machine("do-simple")
    scn = parse_scenario("scenario s { inject progress; }", m).scenario
    ts = explore(m, scn)
    assert ts.stats.discard_traces == ts.total  # every schedule must discard it


# --- depth --------------------------------------------------------------------


def test_deep_walk_leaves_recursion_limit_alone():
    # one micro-step per level: the walk, the counts and `traces` all go
    # 3,000 steps deep
    limit = sys.getrecursionlimit()
    ts = explored("completion-self-loop", bounds=ExploreBounds(max_micro_steps=3000))
    assert ts.check_all() == []
    assert ts.traces == ()
    assert (ts.total, ts.stats.nodes, ts.stats.truncated) == (0, 3001, 1)
    assert sys.getrecursionlimit() == limit
