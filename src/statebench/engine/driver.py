"""Single-path execution drivers.

A strategy resolves the one thing the kernel refuses to decide: which of the
enabled micro-steps happens next. Everything else here is bookkeeping around
the kernel loop — feeding scenario injections at stable points, collecting
trace records, spotting budget blowups.

Injection discipline: the environment only acts on a stable machine. A
scenario Inject waits for stability, then consecutive Injects enter the pool
back to back (FIFO) before anything is dispatched; await_stable waits until
the machine has digested everything in flight. doActivities may still be
running at a stable point — stability is about run-to-completion steps and
pools, not about background work being done.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Protocol, Union

from .. import model as M
from .. import scenario as S
from ..trace import Record, Trace, discards, enters
from . import kernel as K
from .kernel import ModelIndex
from .state import RuntimeState, dotted
from .steps import MicroStep


class BudgetExceeded(Exception):
    def __init__(self, message: str, records: tuple[Record, ...] = ()):
        super().__init__(message)
        self.records = records


class ScriptDiverged(Exception):
    def __init__(self, index: int, expected: str, enabled: tuple[str, ...]):
        super().__init__(f"script diverged at step {index}: {expected!r} not enabled")
        self.index = index
        self.expected = expected
        self.enabled = enabled


class Strategy(Protocol):
    label: str

    def choose(self, st: RuntimeState, steps: list[MicroStep]) -> MicroStep: ...


class FirstStrategy:
    """Deterministic default: the first step in canonical order. Running
    activities get to make progress before the dispatcher pulls the next
    event, so accepters are registered eagerly."""

    label = "first"

    def choose(self, st: RuntimeState, steps: list[MicroStep]) -> MicroStep:
        return steps[0]


class RandomStrategy:
    def __init__(self, seed: int):
        self.label = f"random:{seed}"
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, st: RuntimeState, steps: list[MicroStep]) -> MicroStep:
        return self._rng.choice(steps)


class ScriptStrategy:
    """Replays a recorded schedule by step key; diverges loudly."""

    label = "script"

    def __init__(self, keys: tuple[str, ...]):
        self.keys = keys
        self.pos = 0

    def choose(self, st: RuntimeState, steps: list[MicroStep]) -> MicroStep:
        if self.pos >= len(self.keys):
            raise ScriptDiverged(self.pos, "<end of script>", tuple(s.key() for s in steps))
        want = self.keys[self.pos]
        for s in steps:
            if s.key() == want:
                self.pos += 1
                return s
        raise ScriptDiverged(self.pos, want, tuple(s.key() for s in steps))


# --- scenario feeding -----------------------------------------------------


def advance_scenario(
    ctx: ModelIndex,
    st: RuntimeState,
    scenario: Optional[S.Scenario],
    idx: int,
    records: list[Record],
    made: Optional[dict] = None,
) -> tuple[RuntimeState, int]:
    """Consume scenario steps as far as stability allows. Injections are
    forced moves, not scheduling choices; they land in `records`. `made` is
    passed on to `K.inject`."""
    if scenario is None:
        return st, idx
    steps = scenario.steps
    while idx < len(steps) and st.stable():
        if isinstance(steps[idx], S.AwaitStable):
            idx += 1
            continue
        while idx < len(steps) and isinstance(steps[idx], S.Inject):
            st, rec = K.inject(ctx, st, steps[idx].signal, made)
            records.append(rec)
            idx += 1
    return st, idx


# --- run -------------------------------------------------------------------


@dataclass(frozen=True)
class StablePoint:
    config: str
    pools: str


@dataclass
class RunResult:
    trace: Trace
    state: RuntimeState
    stable_points: tuple[StablePoint, ...] = ()
    scenario_done: bool = True

    @property
    def deadlocked(self) -> bool:
        return not self.scenario_done

    @property
    def observables(self) -> tuple[str, ...]:
        return self.trace.obs_signals()


def _pools_text(st: RuntimeState) -> str:
    parts = []
    if st.queue_completion:
        parts.append("completion:" + ",".join(o.brief() for o in st.queue_completion))
    if st.queue_regular:
        parts.append("pool:" + ",".join(o.brief() for o in st.queue_regular))
    if st.deferred:
        parts.append("deferred:" + ",".join(o.brief() for o in st.deferred))
    if st.in_flight:
        parts.append("in-flight:" + ",".join(o.brief() for o in st.in_flight))
    return " ".join(parts) or "empty"


def run(
    source: Union[M.MachineModel, ModelIndex],
    scenario: Optional[S.Scenario] = None,
    strategy: Optional[Strategy] = None,
    max_steps: int = 2000,
    max_pool: int = 64,
) -> RunResult:
    """Drive one complete execution: boot, feed the scenario, schedule with
    `strategy` until nothing is enabled. Raises BudgetExceeded when the step
    or pool bound is hit (runaway models do exist: completion self-loops,
    self-signal ping-pong)."""
    ctx = source if isinstance(source, ModelIndex) else K.build_index(source)
    strat = strategy or FirstStrategy()
    st = K.boot(ctx)
    records: list[Record] = []
    stable_points: list[StablePoint] = []
    idx = 0

    while True:
        if st.stable():
            point = StablePoint(st.config_text(), _pools_text(st))
            if not stable_points or stable_points[-1] != point:
                stable_points.append(point)
        st, idx = advance_scenario(ctx, st, scenario, idx, records)
        steps = K.enabled_steps(ctx, st)
        if not steps:
            break
        if len(records) >= max_steps:
            raise BudgetExceeded(f"step budget {max_steps} exhausted", tuple(records))
        if st.pool_load() > max_pool:
            raise BudgetExceeded(f"pool bound {max_pool} exceeded", tuple(records))
        step = strat.choose(st, steps)
        st, rec = K.apply(ctx, st, step)
        records.append(rec)

    trace = Trace(
        records=tuple(records),
        model=ctx.model.name,
        scenario=scenario.name if scenario else "",
        strategy=strat.label,
        seed=getattr(strat, "seed", None),
    )
    return RunResult(
        trace=trace,
        state=st,
        stable_points=tuple(stable_points),
        scenario_done=scenario is None or idx >= len(scenario.steps),
    )


# --- expectation checks on a single run ------------------------------------


@dataclass(frozen=True)
class ExpectationOutcome:
    expectation: S.Expectation
    ok: bool
    detail: str


def evaluate_run(ctx: ModelIndex, scenario: S.Scenario, result: RunResult) -> list[ExpectationOutcome]:
    """Judge a scenario's expectations against one concrete execution's records."""
    out = []
    for exp in scenario.expectations:
        if isinstance(exp, S.EventuallyActive):
            state = dotted(ctx.model.state_refs[exp.state])
            ok = any(enters(r, state) for r in result.trace.records)
            detail = f"{state} {'was' if ok else 'never'} active"
        elif isinstance(exp, S.Emits):
            got = result.observables
            ok = got == exp.signals
            detail = f"emitted {','.join(got) or 'nothing'}"
        else:
            assert isinstance(exp, S.NeverDiscards)
            hits = sum(discards(r, exp.signal + "#") for r in result.trace.records)
            ok = not hits
            detail = "no discard" if ok else f"discarded {hits}x"
        out.append(ExpectationOutcome(exp, ok, detail))
    return out
