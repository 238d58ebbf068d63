"""Exploration: exact counts, agreement with the tree oracle, witnesses, verdicts.

Class counts asserted here were computed once by hand-enumerating the small
schedules (do-simple, accept-race) and then frozen; the larger ones are
pinned so any kernel change that shifts the schedule space fails loudly.
"""

from __future__ import annotations

import gc
import runpy
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import FIXTURE_PAIRS, machine, scenario_for
from flat_oracle import gen_flat_machine, gen_flat_scenario
from hier_gen import TRIGGERS, features, gen_hier_machine, gen_hier_scenario, seeds_with
from tree_oracle import schedules
from statebench.engine import BudgetExceeded, build_index, evaluate_run, run
from statebench.engine.state import RuntimeState, dotted
from statebench.explorer import ExploreBounds, explore
from statebench.parser import parse_model, parse_scenario
from statebench.scenario import Emits, EventuallyActive, NeverDiscards
from statebench.trace import enters


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


def test_par_join_resumes_after_both_branches():
    # the branches' one and two actions interleave in C(3, 1) = 3 ways, and
    # the join resumes with `joined` only after both sends
    m = machine("par-final")
    ts = explore(m, parse_scenario("scenario s { expect eventually-active Done; }", m).scenario)
    assert ts.total == 3
    assert ts.signal_partition() == {("a", "b", "joined"): 2, ("b", "a", "joined"): 1}
    assert [v.verdict for v in ts.check_all()] == ["all"]
    # an abort can cut the activity anywhere, but never lets `joined` out early
    ts = explore(m, parse_scenario("scenario s { inject stop; }", m).scenario)
    assert ts.total == 134
    classes = ts.signal_partition()
    assert sum(cnt for seq, cnt in classes.items() if "joined" in seq) == 87
    assert all(set(seq[:-1]) == {"a", "b"} for seq in classes if "joined" in seq)


def test_partition_counts_sum_to_total():
    ts = explored("composite-work")
    assert sum(ts.partition.values()) == ts.total == 204
    assert sum(ts.signal_partition().values()) == ts.total


# --- the tree oracle -------------------------------------------------------------


def verdict_json(v):
    return (
        v.verdict,
        v.witness.to_json() if v.witness else None,
        v.counterexample.to_json() if v.counterexample else None,
    )


def tree_verdicts(ctx, scn, complete, cut):
    """The scenario's expectations judged over the tree's complete leaves,
    rendered as `verdict_json` renders an explorer verdict. `evaluate_run`
    scores each leaf; the witness is the first passing leaf in canonical
    order and the counterexample the first failing one, for `emits` among the
    leaves of the first observable class on that side."""
    judged = [evaluate_run(ctx, scn, r) for r in complete]
    out = []
    for i, exp in enumerate(scn.expectations):
        good = sum(outcomes[i].ok for outcomes in judged)
        verdict = "none" if good == 0 else "all" if good == len(complete) and not cut else "some"
        firsts = []
        for ok in (True, False):
            side = [r.trace for r, outcomes in zip(complete, judged) if outcomes[i].ok == ok]
            if side and isinstance(exp, Emits):
                first = min(t.observables() for t in side)
                side = [t for t in side if t.observables() == first]
            firsts.append(replace(side[0], strategy="explore").to_json() if side else None)
        out.append((verdict, *firsts))
    return out


def assert_walk_matches_the_tree(m, scn, bounds=ExploreBounds()):
    """`explore` against `tree_oracle`, which shares no code with it: counts,
    classes, leaf kinds, every verdict with its witness and counterexample,
    and the untruncated `traces` in order. `run` and `explore` judge a state
    entered by the one record test `enters`, so that test is judged here
    against the states the oracle saw active on every path. Returns the
    explorer's result."""
    ctx = build_index(m)
    ts = explore(ctx, scn, bounds)
    leaves = list(schedules(ctx, scn, max_steps=bounds.max_micro_steps, max_pool=bounds.max_pool))
    states = sorted({dotted(p) for p in m.state_refs.values()})
    for leaf in leaves:
        records = leaf.result.trace.records
        assert [any(enters(r, s) for r in records) for s in states] == [s in leaf.active for s in states]
    kinds = {leaf.kind for leaf in leaves}
    complete = [leaf.result for leaf in leaves if leaf.kind == "complete"]
    assert ts.total == len(complete)
    assert ts.partition == dict(sorted(Counter(r.trace.observables() for r in complete).items()))
    assert list(ts.partition) == sorted(ts.partition)  # dict equality ignores order
    assert ts.stats.discard_traces == sum(
        any(rec.kind == "DiscardEvent" for rec in r.trace.records) for r in complete
    )
    # the DAG's leaves do not say why they end, so deadlocks and cuts
    # compare as counts
    assert (ts.stats.deadlocks > 0, ts.stats.truncated > 0) == ("deadlock" in kinds, "cut" in kinds)
    # the arrays: node n's edges are first[n]:first[n + 1], every child is
    # numbered before its parent (no edge closes a cycle) and the root is
    # last; and no label emits more than one observable, which `partition`
    # relies on when it groups edges by their obs
    first, child, label = list(ts.first), list(ts.child), list(ts.label)
    assert len(first) == len(ts.terminal) + 1 == ts.stats.nodes + 1 and ts.root == ts.stats.nodes - 1
    assert first[0] == 0 and first[-1] == len(child) == len(label) == ts.stats.edges
    assert all(a <= b for a, b in zip(first, first[1:]))
    assert all(child[i] < nid for nid in range(ts.stats.nodes) for i in range(first[nid], first[nid + 1]))
    assert max(label, default=-1) < len(ts.labels) and all(len(obs) <= 1 for _, obs in ts.labels)
    # the DAG unfolds into the tree: a node stands for one tree node per
    # path from the root to it
    paths = [0] * ts.stats.nodes
    paths[ts.root] = 1
    for nid in reversed(range(ts.stats.nodes)):
        for i in range(first[nid], first[nid + 1]):
            paths[child[i]] += paths[nid]
    assert ts.stats.nodes <= sum(paths) == leaves[-1].node + 1
    assert not ts.truncated_traces
    assert [t.records for t in ts.traces] == [r.trace.records for r in complete]
    assert [verdict_json(v) for v in ts.check_all()] == tree_verdicts(ctx, scn, complete, "cut" in kinds)
    return ts


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
    # a par fork, its join and a final node, aborted at every point between
    pytest.param(
        "par-final",
        "scenario s { inject stop; expect eventually-active Done; expect emits a, b, joined; }",
        ["some", "some"],
        id="par-final-stop",
    ),
    # a regionless machine: its root is terminal, so the witnesses are the
    # path of no edge; injected, the signal is discarded
    pytest.param(
        "machine m { signals a; }",
        "scenario s { expect never-discards a; expect emits; }",
        ["all", "all"],
        id="regionless",
    ),
    pytest.param(
        "machine m { signals a; }",
        "scenario s { inject a; expect never-discards a; expect emits; }",
        ["none", "all"],
        id="regionless-inject",
    ),
    # a discard of `ab` is no discard of `a`
    pytest.param(
        "machine m { signals a, ab; }",
        "scenario s { inject ab; expect never-discards a; expect never-discards ab; }",
        ["all", "none"],
        id="regionless-inject-other",
    ),
])
def test_walk_matches_the_tree(name, text, verdicts):
    m = parse_model(name).model if "{" in name else machine(name)
    scn = parse_scenario(text, m).scenario if text else scenario_for(name, m)
    ts = assert_walk_matches_the_tree(m, scn)
    if verdicts is not None:
        assert [v.verdict for v in ts.check_all()] == verdicts
    if name == "composite-work":
        assert ts.total == 285


# every fixture scenario but measurement (too large for the tree), as
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
def test_bounded_walk_matches_the_tree(name, scn_ref, bounds):
    # a bound must cut the same schedules whatever order the walk takes
    m = machine(name)
    scn = parse_scenario(scn_ref, m).scenario if "{" in scn_ref else scenario_for(scn_ref, m)
    assert_walk_matches_the_tree(m, scn, bounds)


GENERATED_BOUNDS = {"steps25": ExploreBounds(max_micro_steps=25), "pool1": ExploreBounds(max_pool=1)}


@pytest.mark.parametrize("seed,bounds", [
    *(pytest.param(seed, b, id=f"{seed}-{name}") for seed in range(20) for name, b in GENERATED_BOUNDS.items()),
    # where two doActivities are alive at once, a shorter walk as well
    *(pytest.param(seed, ExploreBounds(max_micro_steps=15), id=f"{seed}-steps15")
      for seed in seeds_with("two dos alive at once")),
])
def test_generated_hierarchical_walk_matches_the_tree(seed, bounds):
    # on the same walk, also every flag: each state by its bare name
    # entered, and each trigger never discarded
    m = gen_hier_machine(seed)
    scn = gen_hier_scenario(seed, m)
    flags = [EventuallyActive(ref) for ref in sorted(m.state_refs) if "." not in ref]
    flags += [NeverDiscards(sig) for sig in TRIGGERS]
    assert_walk_matches_the_tree(m, replace(scn, expectations=scn.expectations + tuple(flags)), bounds)


def test_generated_hierarchical_machines_cover_every_feature():
    found = set().union(*map(features, range(20)))
    assert found == {
        "composite", "orthogonal", "final", "entry", "exit", "accept", "send to self", "par",
        "defer on a composite", "internal", "completion", "two dos alive at once",
    }


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


@pytest.mark.parametrize("field", ["max_micro_steps", "max_traces", "max_pool"])
def test_negative_bounds_are_rejected(field):
    # max_traces=-3 used to slice the class witnesses from the end: do-simple
    # gave 0 of its 2
    with pytest.raises(ValueError, match=field):
        ExploreBounds(**{field: -3})
    assert getattr(ExploreBounds(**{field: 0}), field) == 0


def test_find_trace_by_signal_sequence():
    ts = explored("accept-race")
    t = ts.find_trace(("got",))
    assert t is not None
    assert t.obs_signals() == ("got",)
    assert any(r.kind == "ConsumeDeferred" or r.kind == "ChooseAccepter"
               for r in t.records)
    assert ts.find_trace(("nothing-like-this",)) is None


def monitor_witness(ts, seq):
    """The reference class witness: the first complete path, in canonical
    edge order, that emits exactly `seq`, searched with the emitted prefix
    length as the state and dead ends kept per (DAG node, position)."""
    dead = set()

    def search(nid, pos, path):
        node = ts.nodes[nid]
        if node.terminal:
            return path if pos == len(seq) else None
        if (nid, pos) in dead:
            return None
        for e in node.edges:
            end = pos + len(e.obs)
            if seq[pos:end] == e.obs:
                found = search(e.child, end, path + e.records)
                if found is not None:
                    return found
        dead.add((nid, pos))
        return None

    return search(ts.root, 0, ts.root_records)


WITNESS_BOUNDS = {
    "default": ExploreBounds(),
    "steps10": ExploreBounds(max_micro_steps=10),
    "steps25": ExploreBounds(max_micro_steps=25),
    "steps31": ExploreBounds(max_micro_steps=31),
    "pool1": ExploreBounds(max_pool=1),
}


@pytest.mark.parametrize("case", [
    *(pytest.param(("fixture", pair, b), id=f"{pair[1]}-{b}") for pair in FIXTURE_PAIRS for b in WITNESS_BOUNDS),
    *(pytest.param(("hier", seed, b), id=f"hier{seed}-{b}")
      for seed in range(20) for b in ("default", "steps25", "pool1")),
    pytest.param(("s2", None, "default"), id="s2"),
])
def test_class_witnesses_match_the_monitor_search(case, request):
    # the class-keyed search finds, for every class, the path the search per
    # DAG node finds: a dead end holds for every node of its class, and for
    # every sequence with the same suffix, so one call for all classes (as a
    # capped `traces` makes) finds what one call per class finds
    kind, arg, bound = case
    if kind == "fixture":
        m = machine(arg[0])
        scn = scenario_for(arg[1], m)
    elif kind == "hier":
        m = gen_hier_machine(arg)
        scn = gen_hier_scenario(arg, m)
    else:
        m, scn = request.getfixturevalue("s2")
    ts = explore(m, scn, bounds=WITNESS_BOUNDS[bound])
    want = [monitor_witness(ts, seq) for seq in ts.partition]
    assert [next(ts._class_witnesses((seq,))).records for seq in ts.partition] == want
    assert [w.records for w in ts._class_witnesses(ts.partition)] == want


def test_class_witness_reads_no_partition_first():
    # the node -> class list the search reads does not wait for `partition`
    ts = explored("do-simple")
    assert next(ts._class_witnesses([()])).records == monitor_witness(ts, ())
    assert "partition" not in vars(ts)


def test_wait_point_drains_deferred_backlog_before_fresh_events():
    # in some schedules the first e1 is deferred before the accept registers;
    # the wait point must take that e1 before a fresh one, so while an e1 is
    # deferred the second e1 is deferred too, never routed past it
    m = machine("accept-defer")
    ts = explore(m, parse_scenario("scenario twice { inject e1; inject e1; }", m).scenario)
    assert not ts.truncated_traces
    drained = 0
    for t in ts.traces:
        deferred = set()
        for r in t.records:
            occ = dict(r.payload).get("occ")
            if r.kind == "DeferEvent":
                deferred.add(occ)
            elif r.kind == "ConsumeDeferred":
                deferred.remove(occ)
                drained += 1
            elif r.kind == "ChooseAccepter":
                assert not deferred, t.to_text()
    assert drained


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
    verdicts = explore(m, scenario_for("accept-defer", m)).check_all()
    assert [v.verdict for v in verdicts] == ["all", "all"]
    for v in verdicts:
        assert v.ok and v.witness is not None and v.counterexample is None


def test_verdict_some_with_both_sides():
    m = machine("do-simple")
    scn = parse_scenario(
        "scenario s { inject e1; expect emits progress; }", m
    ).scenario
    [v] = explore(m, scn).check_all()
    assert v.verdict == "some"
    assert v.witness.obs_signals() == ("progress",)
    assert v.counterexample.obs_signals() == ()


def test_verdict_none_for_unreachable_state():
    m = machine("do-simple")
    scn = parse_scenario(
        "scenario s { expect eventually-active S2; }", m
    ).scenario
    [v] = explore(m, scn).check_all()
    assert v.verdict == "none"
    assert v.witness is None
    assert v.counterexample is not None


def test_never_discards_counterexample_is_complete_trace():
    m = machine("do-simple")
    scn = parse_scenario(
        "scenario s { inject progress; expect never-discards progress; }", m
    ).scenario
    [v] = explore(m, scn).check_all()
    assert v.verdict == "none"
    counter = v.counterexample
    assert counter is not None
    assert any(r.kind == "DiscardEvent" for r in counter.records)


def test_eventually_active_all():
    m = machine("do-simple")
    scn = parse_scenario(
        "scenario s { inject e1; expect eventually-active S2; }", m
    ).scenario
    [v] = explore(m, scn).check_all()
    assert v.verdict == "all"


def test_dotted_state_must_name_a_vertex():
    # a scenario built in code skips the parser's check of state references
    m = machine("composite-defer-steal")
    base = scenario_for("composite-defer-steal", m)
    ctx = build_index(m)
    scn = replace(base, expectations=(EventuallyActive("main.S1.r.S3"),))
    assert [v.verdict for v in explore(ctx, scn).check_all()] == ["all"]
    assert [o.ok for o in evaluate_run(ctx, scn, run(ctx, scn))] == [True]
    for text in ("nowhere.S3", "S1.r.S3", "main.S1.S3", "main.S1.r"):
        scn = replace(base, expectations=(EventuallyActive(text),))
        with pytest.raises(KeyError):
            explore(ctx, scn).check_all()
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


# --- memory --------------------------------------------------------------------


@pytest.fixture(scope="module")
def s2():
    """The generated two-sensor machine and scenario, indexed."""
    gen = runpy.run_path(str(Path(__file__).resolve().parents[1] / "benchmarks" / "gen.py"))
    m = parse_model(gen["machine_text"](2)).model
    expectations = ("eventually-active M_1", "never-discards ok_0", "emits m_0")  # as the benchmark's
    return build_index(m), parse_scenario(gen["scenario_text"](2, expectations), m).scenario


def test_partition_folds_over_a_smaller_quotient(s2):
    # the reference: a forward fold over the whole DAG whose monitor state is
    # the observable prefix itself
    ts = explore(*s2)
    rows = {ts.root: Counter({(): 1})}
    want = Counter()
    for nid in reversed(range(len(ts.nodes))):
        row = rows.pop(nid)
        if ts.nodes[nid].terminal:
            want.update(row)
        for e in ts.nodes[nid].edges:
            below = rows.setdefault(e.child, Counter())
            for seq, cnt in row.items():
                below[seq + e.obs] += cnt
    assert ts.partition == dict(sorted(want.items()))
    assert list(ts.partition) == sorted(ts.partition)  # dict equality ignores order
    assert sum(ts.partition.values()) == ts.total
    quot = ts._quotient()
    assert (len(quot), len(ts.nodes)) == (265, 885)
    assert not any(() in out for _, out in quot)  # silent edges are folded into the rows
    paths: list[int] = []  # complete traces below each class, children first
    for ends, out in quot:
        paths.append(ends + sum(m * paths[d] for dests in out.values() for d, m in dests.items()))
    assert paths[-1] == ts.total


def test_no_complete_trace_gives_an_empty_quotient():
    ts = explored("do-simple", bounds=ExploreBounds(max_micro_steps=2))
    assert (ts.total, ts.stats.truncated) == (0, 1)
    assert ts._quotient() == []
    assert ts.partition == {}
    assert ts.traces == ()


def test_equal_edge_labels_are_shared(s2):
    # one label per distinct record list, one object per distinct record and obs
    ts = explore(*s2)
    assert len(ts.labels) == len({records for records, _ in ts.labels})
    records = [r for rs, _ in ts.labels for r in rs]
    assert len({id(r) for r in records}) == len(set(records))
    assert len({id(obs) for _, obs in ts.labels}) == len({obs for _, obs in ts.labels})
    # the `nodes` view shares them too
    edges = [e for node in ts.nodes for e in node.edges]
    assert len({id(e.records) for e in edges}) == len({e.records for e in edges}) == len(ts.labels)
    assert len({id(e.obs) for e in edges}) == len({e.obs for e in edges})
    assert not hasattr(edges[0], "__dict__")
    assert not hasattr(ts.nodes[0], "__dict__")


def test_queries_build_no_node_objects(s2):
    # the walk and every query run on the arrays; only readers outside the
    # explorer build the `nodes` view
    m = machine("accept-race")
    text = "scenario s { inject e1; expect emits got; expect eventually-active S2; expect never-discards e1; }"
    capped, whole = explore(*s2), explore(m, parse_scenario(text, m).scenario)
    for ts in (capped, whole):
        assert len(ts.check_all()) == 3
        ts.signal_partition(), ts.normalized_partition(), ts.find_trace(("got",))
    assert capped.truncated_traces and len(capped.traces) == len(capped.partition)
    assert whole.traces and not whole.truncated_traces
    for ts in (capped, whole):
        assert "nodes" not in vars(ts)
        assert len(ts.nodes) == ts.stats.nodes and sum(len(n.edges) for n in ts.nodes) == ts.stats.edges


def test_memo_key_is_built_once_per_visit(s2, monkeypatch):
    calls = []
    key = RuntimeState.key
    monkeypatch.setattr(RuntimeState, "key", lambda st: calls.append(st) or key(st))
    ts = explore(*s2)
    # the root, then the child of every edge
    assert (ts.stats.nodes, ts.stats.edges, len(calls)) == (885, 1477, 1478)


def test_dag_bytes_per_node(s2):
    # about 460 B a node (3.11) with shared labels and slotted `Node` and
    # `Edge` objects, 260 with the DAG in arrays. The walk's garbage is
    # collected first: without that, the blocks it left on the interpreter's
    # free lists count too (about 630 B a node with arrays)
    gc.collect()
    tracemalloc.start()
    try:
        ts = explore(*s2)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / ts.stats.nodes <= 340
