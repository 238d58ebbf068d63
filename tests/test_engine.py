"""Kernel semantics, one behavior per test.

Most tests run a fixture under the deterministic first-choice strategy and
assert on the record stream; schedule-dependent behaviors are covered by the
explorer tests and the acceptance suite, which quantify over all schedules.
"""

from __future__ import annotations

import pytest

from conftest import machine, scenario_for
from statebench.engine.driver import (
    BudgetExceeded,
    FirstStrategy,
    RandomStrategy,
    ScriptDiverged,
    ScriptStrategy,
    evaluate_run,
    init,
    resolve_state,
    run,
)
from statebench.engine.kernel import KernelError, apply, boot, build_index, enabled_steps
from statebench.engine.steps import MicroStep, StepKind
from statebench.parser import parse_model, parse_scenario


def records_of(result, kind=None, thread=None):
    recs = result.trace.records
    if kind is not None:
        recs = [r for r in recs if r.kind == kind]
    if thread is not None:
        recs = [r for r in recs if r.thread == thread]
    return list(recs)


def index_of(result, kind, **payload):
    for i, r in enumerate(result.trace.records):
        if r.kind != kind:
            continue
        p = dict(r.payload)
        if all(p.get(k) == v for k, v in payload.items()):
            return i
    raise AssertionError(f"no {kind} record with {payload}")


def parse(text):
    res = parse_model(text)
    assert res.ok, res.errors
    return res.model


# --- boot and configuration ---------------------------------------------------


def test_boot_settles_into_initial_state(measurement):
    result = init(measurement)
    assert result.state.config_text() == "[main.Standby]"
    assert result.state.stable()


def test_orthogonal_regions_enter_together(measurement, measurement_scenario):
    result = run(measurement, measurement_scenario)
    configs = [sp.config for sp in result.stable_points]
    assert configs == [
        "[main.Standby]",
        "[main.Active.gravity.Wait2, main.Active.temperature.Wait1]",
        "[main.Active.gravity.MeasureGravity, main.Active.temperature.MeasureTemp]",
        "[main.Active.gravity.Wait2, main.Active.temperature.Wait1]",
    ]
    assert result.scenario_done and not result.deadlocked


def test_one_dispatch_fires_both_regions(measurement, measurement_scenario):
    """One `measure` occurrence moves both orthogonal regions in one RTC step."""
    result = run(measurement, measurement_scenario)
    choice = next(
        r for r in records_of(result, "ChooseAccepter")
        if dict(r.payload)["occ"].startswith("measure#")
    )
    fired = dict(choice.payload)["fired"]
    names = {f.split(":")[-1] for f in fired.split(",")}
    assert names == {"Tm1", "Tm2"}


# --- doActivity lifecycle -----------------------------------------------------


def test_entry_behavior_runs_before_do_starts(measurement, measurement_scenario):
    result = run(measurement, measurement_scenario)
    state = "main.Active.temperature.MeasureTemp"
    entry = index_of(result, "RunEntryAction", state=state)
    start = index_of(result, "StartDoActivity", state=state)
    first_action = next(
        i for i, r in enumerate(result.trace.records)
        if r.kind in ("InitDoActivity", "RunAction")
        and dict(r.payload).get("state", "").endswith("MeasureTemp")
    )
    assert entry < start < first_action


def test_do_aborted_before_exit():
    m = machine("do-simple")
    result = run(m, scenario_for("do-simple", m))
    abort = index_of(result, "AbortDoActivity", state="main.S1")
    exit_ = index_of(result, "ExitState", state="main.S1")
    assert abort < exit_


def test_do_thread_records_interleave_with_leg(measurement, measurement_scenario):
    """The parent composite's doActivity keeps its own thread."""
    result = run(measurement, measurement_scenario)
    start = records_of(result, "StartDoActivity")[0]
    tid = dict(start.payload)["thread"]
    assert any(r.thread == tid for r in result.trace.records)


def test_internal_transition_runs_effect_without_exit():
    m = machine("do-internal")
    scn = parse_scenario("scenario tick { inject tick; }", m).scenario
    result = run(m, scn)
    assert records_of(result, "ExitState") == []
    assert index_of(result, "RunEffectAction", transition="TI") > 0
    # the occurrence was consumed by the sm, not discarded
    assert records_of(result, "DiscardEvent") == []


def test_unmatched_signal_discarded():
    m = machine("do-simple")
    scn = parse_scenario("scenario noop { inject progress; }", m).scenario
    result = run(m, scn)
    [d] = records_of(result, "DiscardEvent")
    assert dict(d.payload)["occ"].startswith("progress#")


# --- completion events ----------------------------------------------------------


def test_completion_generated_once_and_dispatched_first():
    m = machine("completion-priority")
    result = run(m, scenario_for("completion-priority", m))
    gens = records_of(result, "GenerateCompletion")
    assert len(gens) == 1
    gen = index_of(result, "GenerateCompletion", state="main.S2")
    comp_dispatch = next(
        i for i, r in enumerate(result.trace.records)
        if r.kind == "DispatchEvent" and dict(r.payload)["occ"].startswith("completion(")
    )
    later_dispatch = index_of(result, "DispatchEvent", occ="later#1")
    assert gen < comp_dispatch < later_dispatch


def test_completion_only_for_states_with_completion_transitions():
    m = machine("do-simple")  # S1 has a do but no completion transition
    result = run(m, scenario_for("do-simple", m))
    assert records_of(result, "GenerateCompletion") == []


def test_composite_completion_needs_region_final():
    m = machine("composite-work")
    result = run(m, scenario_for("composite-work", m))
    gen = index_of(result, "GenerateCompletion", state="main.C")
    final_entered = index_of(result, "EnterState", state="main.C.inner.F")
    assert final_entered < gen
    assert result.state.config_text() == "[main.D]"


# --- deferral -------------------------------------------------------------------


def test_deferred_occurrence_consumed_by_accepter():
    m = machine("accept-defer")
    result = run(m, scenario_for("accept-defer", m))
    kinds = [r.kind for r in result.trace.records]
    if "DeferEvent" in kinds:  # dispatch beat the accept registration
        defer = kinds.index("DeferEvent")
        consume = kinds.index("ConsumeDeferred")
        assert defer < consume
    outcomes = evaluate_run(build_index(m), scenario_for("accept-defer", m), result)
    assert all(o.ok for o in outcomes)


# A do blocked on an accept leaves dispatching as the only enabled move, so
# deferral happens under every strategy and the trace below is schedule-free.
BLOCKED_DEFER = """
machine BlockedDefer {
  signals a, b, go, late, on1;
  activity waiter { accept b; }
  activity note { send on1 to env; }
  region main {
    initial -> A;
    state A { do waiter; defer a; }
    state B { }
    state C { }
    state D { }
    state E { }
    transition TGo: A -> B on go;
    transition Ta1: B -> C on a / note;
    transition Ta2: C -> D on a / note;
    transition TL: D -> E on late;
  }
}
"""

BLOCKED_SCN = "scenario s { inject a; inject a; inject go; inject late; }"


def test_release_preserves_deferral_order():
    m = parse(BLOCKED_DEFER)
    result = run(m, parse_scenario(BLOCKED_SCN, m).scenario)
    assert len(records_of(result, "DeferEvent")) == 2
    [rel] = records_of(result, "ReleaseDeferred")
    assert dict(rel.payload)["released"] == "a#1,a#2"
    assert index_of(result, "DispatchEvent", occ="a#1") < index_of(
        result, "DispatchEvent", occ="a#2"
    )


def test_release_goes_ahead_of_fresh_pool_entries():
    m = parse(BLOCKED_DEFER)
    result = run(m, parse_scenario(BLOCKED_SCN, m).scenario)
    # late#4 was already queued when the release prepended a#1 and a#2
    d1 = index_of(result, "DispatchEvent", occ="a#2")
    dl = index_of(result, "DispatchEvent", occ="late#4")
    assert d1 < dl
    assert result.state.config_text() == "[main.E]"


# --- self-signaling ---------------------------------------------------------------


def test_self_send_delivered_through_pool():
    m = machine("self-signal")
    result = run(m, scenario_for("self-signal", m))
    send = next(
        i for i, r in enumerate(result.trace.records)
        if r.kind == "RunAction" and "send done to self" in dict(r.payload).get("do", "")
    )
    deliver = index_of(result, "DeliverInFlight")
    dispatch = index_of(result, "DispatchEvent", occ="done#1")
    assert send < deliver < dispatch
    assert result.state.config_text() == "[main.S2]"


# --- guards and variables -----------------------------------------------------------


GUARDED = """
machine Guarded {
  signals go, bump, moved;
  vars n;
  activity inc { n := n + 1; }
  activity logMove { send moved to env; }
  region main {
    initial -> A;
    state A { }
    state B { }
    transition TUp: A -> A on bump / inc;
    transition T1: A -> B on go [n > 1] / logMove;
  }
}
"""


def test_guard_blocks_until_variable_high_enough():
    m = parse(GUARDED)
    blocked = parse_scenario("scenario a { inject go; }", m).scenario
    result = run(m, blocked)
    assert records_of(result, "DiscardEvent")  # guard false -> no match
    assert result.state.config_text() == "[main.A]"

    allowed = parse_scenario(
        "scenario b { inject bump; inject bump; inject go; }", m
    ).scenario
    result = run(m, allowed)
    assert result.state.config_text() == "[main.B]"
    assert result.trace.obs_signals() == ("moved",)


# --- strategies and budgets -----------------------------------------------------------


def test_first_strategy_is_deterministic(measurement, measurement_scenario):
    a = run(measurement, measurement_scenario)
    b = run(measurement, measurement_scenario)
    assert a.trace.records == b.trace.records


def test_random_strategy_reproducible(measurement, measurement_scenario):
    a = run(measurement, measurement_scenario, RandomStrategy(7))
    b = run(measurement, measurement_scenario, RandomStrategy(7))
    assert a.trace.records == b.trace.records
    assert a.trace.strategy == "random:7"


def test_script_strategy_replays_exactly(measurement, measurement_scenario):
    original = run(measurement, measurement_scenario, RandomStrategy(3))
    replayed = run(measurement, measurement_scenario, ScriptStrategy(original.trace.script()))
    assert replayed.trace.records == original.trace.records


def test_script_divergence_detected(measurement, measurement_scenario):
    original = run(measurement, measurement_scenario)
    script = list(original.trace.script())
    script[5] = "bogus|step|key"
    with pytest.raises(ScriptDiverged) as exc:
        run(measurement, measurement_scenario, ScriptStrategy(tuple(script)))
    assert exc.value.index == 5


RUNAWAY = """
machine Runaway {
  signals ping;
  activity pinger { send ping to self; }
  region main {
    initial -> A;
    state A { do pinger; }
    transition T: A -> A on ping;
  }
}
"""


def test_step_budget_stops_runaway_machine():
    m = parse(RUNAWAY)
    with pytest.raises(BudgetExceeded) as exc:
        run(m, max_steps=80)
    assert len(exc.value.records) == 80


def test_pool_budget_stops_flooding():
    m = machine("accept-defer")
    scn = parse_scenario(
        "scenario flood { " + "inject e1; " * 8 + "}", m
    ).scenario
    with pytest.raises(BudgetExceeded):
        run(m, scn, max_pool=4)


def test_inject_unknown_signal_rejected(measurement):
    ctx = build_index(measurement)
    from statebench.engine.kernel import boot, inject

    with pytest.raises(KernelError):
        inject(ctx, boot(ctx), "nonsense")


# --- applicability ------------------------------------------------------------------


def test_apply_takes_exactly_the_enabled_steps():
    """A step applies iff `enabled_steps` lists it: a hand-built step that is
    not listed, and a listed step applied to another state, both raise; a
    hand-built step equal to a listed one applies exactly as that one does."""
    ctx = build_index(machine("do-simple"))
    st = boot(ctx)
    (enter,) = enabled_steps(ctx, st)
    assert enter.key() == "EnterState|leg0|state=main.S1"
    with pytest.raises(KernelError):
        apply(ctx, st, MicroStep(StepKind.EXIT_STATE, "leg0", (("state", "nowhere"),)))
    after = apply(ctx, st, enter)
    with pytest.raises(KernelError):
        apply(ctx, after[0], enter)
    assert apply(ctx, st, MicroStep(StepKind.ENTER_STATE, "leg0", (("state", "main.S1"),))) == after


# --- scenario evaluation ----------------------------------------------------------


def test_resolve_state_by_bare_and_dotted_name(measurement):
    ctx = build_index(measurement)
    assert resolve_state(ctx, "MeasureTemp") == (
        "main", "Active", "temperature", "MeasureTemp"
    )
    assert resolve_state(ctx, "main.Standby") == ("main", "Standby")
    with pytest.raises(KeyError):
        resolve_state(ctx, "Atlantis")


def test_evaluate_run_reports_failures():
    m = machine("do-simple")
    scn = parse_scenario(
        """
        scenario strict {
          inject progress;
          expect eventually-active S2;
          expect emits progress;
          expect never-discards progress;
        }
        """,
        m,
    ).scenario
    result = run(m, scn)  # nothing consumes progress, so it gets discarded
    outcomes = {type(o.expectation).__name__: o.ok for o in
                evaluate_run(build_index(m), scn, result)}
    assert outcomes["EventuallyActive"] is False
    assert outcomes["Emits"] is True
    assert outcomes["NeverDiscards"] is False
