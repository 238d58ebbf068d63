"""Brute-force schedule oracle: the tree of every schedule, one path each.

`explore` shares identical futures and folds them into a DAG. This oracle
shares nothing: it walks the tree of schedules depth-first on an explicit
stack, one path per schedule, from the kernel's entry points alone
(`K.boot`, `K.enabled_steps`, `K.apply`, `K.inject`) and the state's
`stable()` and `pool_load()`. It imports nothing from `statebench.explorer`
and does not call `driver.advance_scenario`; the scenario feeding and the
bound rule are written here again, from their statement in the README:

- the environment acts only on a stable machine: an `await-stable` is met at
  a stable point, and a run of consecutive injects enters the pool back to
  back at one stable point;
- `max_steps` bounds the records of a schedule, injections included, and
  `max_pool` the pools' combined occupancy. A schedule is cut only where a
  step is still enabled: there, it is cut when it holds `max_steps` records
  or more, or when the pools hold more than `max_pool` occurrences. A
  schedule that ends at the bound is complete;
- a schedule that reaches a point with no enabled step is complete when the
  scenario is done, and a deadlock when it is not.

Each leaf carries its preorder number among the tree's nodes (the last
leaf's, plus one, is the size of the tree), a `RunResult` of the records and
the final state, so `driver.evaluate_run`, the single-run judge, scores a
leaf as it scores a run, and `active`: the dotted path of every state made
active on the way, read off the states along the path, not off the records,
so that it judges the record test `trace.enters` independently. Feasible
for small models only: the tree has a path per schedule.

    for leaf in schedules(ctx, scenario, max_steps=200, max_pool=64): ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from statebench import scenario as S
from statebench.engine import kernel as K
from statebench.engine.driver import RunResult
from statebench.engine.kernel import ModelIndex
from statebench.engine.state import RuntimeState, dotted
from statebench.trace import Record, Trace


@dataclass(frozen=True)
class Leaf:
    kind: str                      # complete | deadlock | cut
    node: int                      # preorder number among the tree's nodes
    result: RunResult
    active: frozenset[str]         # every state made active on the path


def _points(scenario: Optional[S.Scenario]) -> list[tuple[str, ...]]:
    """The stable points the scenario waits for, in order, each with the
    signals injected there: an await-stable injects nothing, and a run of
    consecutive injects is one point."""
    points: list[tuple[str, ...]] = []
    joined = False                 # whether the last point is a run of injects
    for step in scenario.steps if scenario else ():
        if isinstance(step, S.Inject) and joined:
            points[-1] += (step.signal,)
        else:
            points.append((step.signal,) if isinstance(step, S.Inject) else ())
        joined = isinstance(step, S.Inject)
    return points


def _feed(
    ctx: ModelIndex, st: RuntimeState, points: list[tuple[str, ...]], done: int, records: list[Record]
) -> tuple[RuntimeState, int]:
    """Meets the next stable points while the machine is stable; `done`
    counts the points met so far."""
    while done < len(points) and st.stable():
        for signal in points[done]:
            st, rec = K.inject(ctx, st, signal)
            records.append(rec)
        done += 1
    return st, done


def schedules(
    ctx: ModelIndex, scenario: Optional[S.Scenario], *, max_steps: int, max_pool: int
) -> Iterator[Leaf]:
    """Every schedule's leaf, in canonical order: each node's steps in the
    order `enabled_steps` lists them."""
    points = _points(scenario)
    name = scenario.name if scenario else ""
    records: list[Record] = []
    st = K.boot(ctx)
    active = frozenset(dotted(p) for p, _ in st.active)
    node: Optional[tuple] = (*_feed(ctx, st, points, 0, records), active)  # the node to visit next
    visited = 0
    # frame: state, points met, steps not tried yet, path length, states made active
    stack: list[tuple] = []
    while True:
        if node is not None:
            st, done, active = node
            steps = K.enabled_steps(ctx, st)
            if steps and len(records) < max_steps and st.pool_load() <= max_pool:
                stack.append((st, done, iter(steps), len(records), active))
            else:
                finished = done == len(points)
                kind = "cut" if steps else "complete" if finished else "deadlock"
                trace = Trace(tuple(records), ctx.model.name, name, "tree")
                yield Leaf(kind, visited, RunResult(trace, st, scenario_done=finished), active)
            visited += 1
        if not stack:
            return
        st, done, steps, mark, active = stack[-1]
        del records[mark:]
        step = next(steps, None)
        if step is None:
            stack.pop()
            node = None
            continue
        st, rec = K.apply(ctx, st, step)
        records.append(rec)
        active = active | {dotted(p) for p, _ in st.active}
        node = (*_feed(ctx, st, points, done, records), active)
