"""Value semantics of the kernel's state updates.

`state._evolve` builds every successor by copying fields instead of running
the dataclasses' `__init__`, each `MicroStep` renders its key once, and a
state keeps its pool digest next to the pools it was taken from. These
tests wrap `apply` and `inject` through the pruned walks of every fixture
scenario and check each call against values rebuilt from scratch here.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest

from conftest import FIXTURE_PAIRS, FIXTURES
from statebench.engine import kernel
from statebench.engine.state import RuntimeState
from statebench.explorer import explore
from statebench.parser import load_model, load_scenario


def rebuilt(value):
    """`value` built again through its class's `__init__`."""
    return type(value)(**{f.name: getattr(value, f.name) for f in fields(value)})


def check_value(value) -> None:
    """`value` equals, and hashes like, the value `__init__` builds from its
    fields, and holds no attribute that is not a field (a misspelled field
    name in an update would add one) besides the kept pool digest."""
    names = {f.name for f in fields(value)}
    assert set(vars(value)) - names <= {"_pool_digest"}, type(value).__name__
    again = rebuilt(value)
    assert again == value and hash(again) == hash(value)


def parts(st: RuntimeState):
    """`st` and every state value inside it."""
    yield st
    if st.pending is not None:
        yield st.pending
    yield from st.accepters
    for th in st.threads:
        yield th
        if th.exec is not None:
            yield th.exec


def fresh_key(step) -> str:
    return "|".join([step.kind.value, step.thread, *(f"{k}={v}" for k, v in step.payload)])


def fresh_digest(st: RuntimeState) -> str:
    pools = (st.queue_completion, st.queue_regular, st.deferred, st.in_flight)
    text = ";".join(",".join(o.brief() for o in pool) for pool in pools)
    return hashlib.sha1(text.encode()).hexdigest()[:10]


@pytest.fixture
def checked(monkeypatch):
    """Wraps `enabled_steps`, `apply` and `inject`; counts checked steps."""
    counts = {"steps": 0, "successors": 0}
    enabled, apply, inject = kernel.enabled_steps, kernel.apply, kernel.inject

    def checking_enabled(ctx, st):
        steps = enabled(ctx, st)
        for s in steps:
            assert s.key() == fresh_key(s)
        counts["steps"] += len(steps)
        return steps

    def successor(call, ctx, st, arg):
        key, digest = st.key(), hash(st)
        post, record = call(ctx, st, arg)
        assert st.key() == key and hash(st) == digest
        for value in parts(post):
            check_value(value)
        assert record.pool == fresh_digest(post)
        counts["successors"] += 1
        return post, record

    def checking_apply(ctx, st, step):
        post, record = successor(apply, ctx, st, step)
        assert record.step == step.key() == fresh_key(step)
        return post, record

    monkeypatch.setattr(kernel, "enabled_steps", checking_enabled)
    monkeypatch.setattr(kernel, "apply", checking_apply)
    monkeypatch.setattr(kernel, "inject", lambda ctx, st, signal: successor(inject, ctx, st, signal))
    return counts


@pytest.mark.parametrize("model_name,scn_name", FIXTURE_PAIRS)
def test_updates_keep_value_semantics(model_name, scn_name, checked):
    m = load_model(str(FIXTURES / f"{model_name}.psm"))
    ts = explore(m, load_scenario(str(FIXTURES / f"{scn_name}.scn"), m))
    assert checked["steps"] and checked["successors"] >= ts.stats.edges

