"""Value semantics of the kernel's state updates.

`state._evolve` builds every successor by copying fields instead of running
the dataclasses' `__init__`, each `MicroStep` renders its key once, and a
state keeps its pool digest next to the pools it was taken from. These
tests wrap `apply` and `inject` through the explorer's walks of every fixture
scenario and check each call against values rebuilt from scratch here, and
check that a walk builds each distinct record, and each distinct do thread
step's successor thread, once. With the walk's table, the kernel must list
and apply exactly the steps it lists and applies without one.
They also check that each doActivity thread owns its wait points and its
start event consistently.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest

from conftest import FIXTURE_PAIRS, FIXTURES
from hier_gen import gen_hier_machine, gen_hier_scenario
from statebench.engine import kernel
from statebench.engine.state import DoThread, LegThread, PendingDispatch, RuntimeState
from statebench.engine.steps import MicroStep, StepKind
from statebench.explorer import explore
from statebench.parser import load_model, load_scenario, parse_model, parse_scenario
from statebench.scenario import Inject
from statebench.trace import Record


def rebuilt(value):
    """`value` built again through its class's `__init__`."""
    return type(value)(**{f.name: getattr(value, f.name) for f in fields(value)})


def check_value(value) -> None:
    """`value` equals, and hashes like, the value `__init__` builds from its
    fields, and holds no attribute that is not a field (a misspelled field
    name in an update would add one) besides the kept pool digest and a
    kept hash, which must be the hash of the rebuilt value."""
    names = {f.name for f in fields(value)}
    assert set(vars(value)) - names <= {"_pool_digest", "_hash"}, type(value).__name__
    again = rebuilt(value)
    assert again == value and vars(value).get("_hash", hash(again)) == hash(again) == hash(value)


def parts(st: RuntimeState):
    """`st` and every state value inside it."""
    yield st
    if st.pending is not None:
        yield st.pending
    for th in st.threads:
        yield th
        if th.exec is not None:
            yield th.exec


def check_threads(ctx, pre: RuntimeState, step, post: RuntimeState) -> int:
    """The doActivity threads of `post`, reached from `pre` by `step`, own
    their wait points and start event consistently; returns the number of
    wait points in `post`."""
    before = {th.tid: th for th in pre.threads}
    waiting = 0
    for th in post.threads:
        if not isinstance(th, DoThread):
            continue
        nodes = ctx.programs[th.activity].nodes
        routed = {nid for nid, _ in th.local}
        assert all(a < b for a, b in zip(th.waiting, th.waiting[1:])), th.waiting  # strictly ascending
        for nid in th.waiting:  # a live strand parked at an accept node, nothing routed to it yet
            assert nid in th.exec.strands and nodes[nid].kind == "accept" and nid not in routed
        assert not (th.finished and th.waiting)
        if th.invocation is not None:  # not yet initialised: no strand, no wait point, nothing routed
            assert not (th.exec.strands or th.waiting or th.local)
        old = before.get(th.tid)
        if old is not None and old.invocation != th.invocation:  # only InitDoActivity takes it
            assert th.invocation is None and step.kind is StepKind.INIT_DO and step.thread == th.label()
        elif old is None:  # only StartDoActivity starts a thread, holding its start event
            assert th.invocation is not None and step.kind is StepKind.START_DO
        waiting += len(th.waiting)
    return waiting


def fresh_key(step) -> str:
    return "|".join([step.kind.value, step.thread, *(f"{k}={v}" for k, v in step.payload)])


def fresh_digest(st: RuntimeState) -> str:
    pools = (st.queue_completion, st.queue_regular, st.deferred, st.in_flight)
    text = ";".join(",".join(o.brief() for o in pool) for pool in pools)
    return hashlib.sha1(text.encode()).hexdigest()[:10]


@pytest.fixture
def checked(monkeypatch):
    """Wraps `enabled_steps`, `apply` and `inject`; counts checked steps."""
    counts = {"steps": 0, "successors": 0, "wait points": 0}
    enabled, apply, inject = kernel.enabled_steps, kernel.apply, kernel.inject

    def checking_enabled(ctx, st, *made):
        steps = enabled(ctx, st, *made)
        for s in steps:
            assert s.key() == fresh_key(s)
        counts["steps"] += len(steps)
        return steps

    def successor(call, ctx, st, arg, *made):
        key, digest = st.key(), hash(st)
        post, record = call(ctx, st, arg, *made)
        assert st.key() == key and hash(st) == digest
        for value in parts(post):
            check_value(value)
        assert record.pool == fresh_digest(post)
        counts["successors"] += 1
        return post, record

    def checking_apply(ctx, st, step, *made):
        post, record = successor(apply, ctx, st, step, *made)
        assert record.step == step.key() == fresh_key(step)
        counts["wait points"] += check_threads(ctx, st, step, post)
        return post, record

    monkeypatch.setattr(kernel, "enabled_steps", checking_enabled)
    monkeypatch.setattr(kernel, "apply", checking_apply)
    monkeypatch.setattr(kernel, "inject", lambda ctx, st, signal, *made: successor(inject, ctx, st, signal, *made))
    return counts


@pytest.mark.parametrize("model_name,scn_name", FIXTURE_PAIRS)
def test_updates_keep_value_semantics(model_name, scn_name, checked):
    m = load_model(str(FIXTURES / f"{model_name}.psm"))
    ts = explore(m, load_scenario(str(FIXTURES / f"{scn_name}.scn"), m))
    assert checked["steps"] and checked["successors"] >= ts.stats.edges
    accepts = any(n.kind == "accept" for prog in ts.ctx.programs.values() for n in prog.nodes)
    assert checked["wait points"] or not accepts


def walk_calls(monkeypatch, m, scn) -> list:
    """(function name, arguments, successor, record) of every `apply` and
    `inject` call in one walk of `scn`, in call order."""
    got, calls = [], {"apply": kernel.apply, "inject": kernel.inject}

    def recording(name, call):
        def recorded(*args):
            post, record = call(*args)
            got.append((name, args, post, record))
            return post, record
        return recorded

    for name, call in calls.items():
        monkeypatch.setattr(kernel, name, recording(name, call))
    explore(m, scn)
    for name, call in calls.items():
        monkeypatch.setattr(kernel, name, call)
    return got


def walk_records(monkeypatch, m, scn) -> list:
    """Every record `apply` and `inject` return in one walk of `scn`, in call order."""
    got = [record for *_, record in walk_calls(monkeypatch, m, scn)]
    assert any(r.kind == "Inject" for r in got) == any(isinstance(s, Inject) for s in scn.steps)
    return got


def fixture_walk(model_name, scn_name):
    m = load_model(str(FIXTURES / f"{model_name}.psm"))
    return m, load_scenario(str(FIXTURES / f"{scn_name}.scn"), m)


@pytest.mark.parametrize("model_name,scn_name", FIXTURE_PAIRS)
def test_a_walk_builds_each_record_once(model_name, scn_name, monkeypatch):
    m, scn = fixture_walk(model_name, scn_name)
    first = walk_records(monkeypatch, m, scn)
    # within one walk, equal records are one object, built as `__init__` builds it
    assert len({id(r) for r in first}) == len(set(first))
    for record in set(first):
        check_value(record)
    # the table dies with the walk: the next walk builds its records anew
    again = walk_records(monkeypatch, m, scn)
    assert again == first
    assert not {id(r) for r in first} & {id(r) for r in again}


THREAD_STEPS = (StepKind.INIT_DO, StepKind.RUN_ACTION, StepKind.REGISTER_ACCEPT)


def walk_threads(monkeypatch, m, scn) -> dict:
    """(step kind, do thread, node) -> the do threads that the walk's
    InitDoActivity, RunAction and RegisterDoAccept steps of that thread at
    that node left, in call order."""
    left: dict[tuple, list] = {}
    for name, (_, st, step, *_), post, _ in walk_calls(monkeypatch, m, scn):
        if name == "apply" and step.kind in THREAD_STEPS:
            tid = int(step.thread.removeprefix("do"))
            key = (step.kind, st.thread(tid), dict(step.payload).get("node"))
            left.setdefault(key, []).append(post.thread(tid))
    return left


@pytest.mark.parametrize("model_name,scn_name", FIXTURE_PAIRS)
def test_a_walk_builds_each_successor_thread_once(model_name, scn_name, monkeypatch):
    m, scn = fixture_walk(model_name, scn_name)
    built, do_steps = [], kernel._do_steps  # the do threads whose step group is built
    monkeypatch.setattr(kernel, "_do_steps", lambda ctx, st, th: built.append(th) or do_steps(ctx, st, th))
    first = walk_threads(monkeypatch, m, scn)
    assert first  # every fixture machine runs a doActivity
    # within one walk, the steps of one thread at one node leave one shared thread
    for key, left in first.items():
        assert {id(th) for th in left} == {id(left[0])}, key
        check_value(left[0])
    # and the step group of each distinct do thread is built once
    assert built and len(built) == len(set(built))
    # the table dies with the walk: the next walk builds its threads anew
    built.clear()
    again = walk_threads(monkeypatch, m, scn)
    assert again == first
    ids = {id(th) for left in first.values() for th in left}
    assert not ids & {id(th) for left in again.values() for th in left}
    assert len(built) == len(set(built))


def walks():
    for model_name, scn_name in FIXTURE_PAIRS:
        yield pytest.param(*fixture_walk(model_name, scn_name), id=f"{model_name}-{scn_name}")
    for seed in range(20):
        m = gen_hier_machine(seed)
        yield pytest.param(m, gen_hier_scenario(seed, m), id=f"hier{seed}")


@pytest.mark.parametrize("m,scn", walks())
def test_the_walk_table_changes_no_step(m, scn, monkeypatch):
    """With the walk's table, `enabled_steps` lists the steps it lists
    without one, in the same order, each bound to the state it was asked
    about; `apply` returns the successor and the record that the step
    enabled without a table gives without a table."""
    enabled, apply = kernel.enabled_steps, kernel.apply
    seen = {"nodes": 0, "edges": 0}
    tables = {}

    def checking_enabled(ctx, st, made):
        tables[id(made)] = made
        steps = enabled(ctx, st, made)
        assert [s.key() for s in steps] == [s.key() for s in enabled(ctx, st)]
        assert all(s.state is st for s in steps)
        seen["nodes"] += 1
        return steps

    def checking_apply(ctx, st, step, made):
        tables[id(made)] = made
        post, record = apply(ctx, st, step, made)
        (alone,) = [s for s in enabled(ctx, st) if s == step]
        assert (post, record) == apply(ctx, st, alone)
        seen["edges"] += 1
        return post, record

    monkeypatch.setattr(kernel, "enabled_steps", checking_enabled)
    monkeypatch.setattr(kernel, "apply", checking_apply)
    ts = explore(m, scn)
    assert seen == {"nodes": ts.stats.nodes, "edges": ts.stats.edges}
    # the walk's one table: no kind of key can equal another kind
    (made,) = tables.values()
    for key, value in made.items():
        if isinstance(key, (DoThread, LegThread, PendingDispatch)):
            assert type(value) is list and all(type(s) is MicroStep for s in value), key
        elif type(key) is tuple and len(key) == 3 and type(key[0]) is StepKind and type(key[1]) is DoThread:
            assert type(value) is DoThread, key
        else:
            assert type(value) is Record, key


# a doActivity parked at three accept nodes at once, one of them before a
# final node: its wait points register in every order, and `stop` can end
# the thread while the others still wait
WAIT_POINTS = """machine WaitPoints {
  signals a, b, stop;
  activity w { par { accept b; } and { accept a; } and { accept stop; final; } }
  region main { initial -> S; state S { do w; } }
}
"""


def test_wait_points_of_parallel_accepts(checked):
    m = parse_model(WAIT_POINTS).model
    ts = explore(m, parse_scenario("scenario all { inject a; inject stop; inject b; }", m).scenario)
    assert checked["wait points"] and checked["successors"] >= ts.stats.edges
