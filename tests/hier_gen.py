"""Seeded generator of small hierarchical machines and their scenarios.

`flat_oracle` generates one region of simple states. The machines here have
what it cannot see: composite states with one or two nested (orthogonal)
regions, final states, entry and exit behaviors, doActivities that accept,
send to self and fork with `par` (two of them alive at once: a composite's
and its substate's, or one in each orthogonal region), deferral on
composite states, and internal and completion transitions. There is no
sequential oracle for them; `tree_oracle` walks their schedules one tree
path each, sharing no code with the explorer, and the explorer must agree
with it.

Every machine passes `validate`, and every schedule of every scenario ends:
external and completion transitions only move forward in their region's
state order (or into a final state), internal transitions keep their
state, and only doActivities send to self, so each state is entered a
bounded number of times and each doActivity runs a bounded number of times.
Sizes are kept small enough for the tree oracle's walk.

    machine = gen_hier_machine(seed)
    scenario = gen_hier_scenario(seed, machine)
    seeds = seeds_with("two dos alive at once")
"""

from __future__ import annotations

import random
from typing import Optional

from statebench import model as M
from statebench import scenario as S
from statebench.explorer import explore

TRIGGERS = ("e0", "e1", "e2")    # injected by the scenarios
SELF = ("s0",)                   # sent to self by doActivities
OUTPUTS = ("o0", "o1", "o2")     # sent to env
VARS = ("v",)


def gen_hier_machine(seed: int) -> M.MachineModel:
    rng = random.Random(seed)
    acts: list[M.Activity] = []
    count = [0]
    # doActivities left in the machine and in the top-level state being
    # built, and nodes left for them: each one multiplies the interleavings
    work = [2, 2, 3]

    def fresh(prefix: str) -> str:
        count[0] += 1
        return f"{prefix}{count[0]}"

    def define(body: list[M.Node]) -> str:
        acts.append(M.Activity(fresh("a"), tuple(body)))
        return acts[-1].name

    def plain_node() -> M.Node:
        roll = rng.random()
        if roll < 0.55:
            return M.SendSignal(rng.choice(OUTPUTS), to_env=True)
        if roll < 0.8:
            asg = M.Assignment("v", "v", "+", 1)
            return M.Task(asg.text(), asg)
        return M.Task(fresh("t"))

    def do_node() -> M.Node:
        roll = rng.random()
        if roll < 0.3:
            return M.AcceptEvent(tuple(rng.sample(TRIGGERS + SELF, rng.randint(1, 2))))
        if roll < 0.5:
            return M.SendSignal(rng.choice(SELF), to_env=False)
        if roll < 0.65 and work[2] >= 3:
            return M.Par(((plain_node(),), (plain_node(),)))
        if roll < 0.72:
            return M.FinalNode()
        return plain_node()

    def behavior(p: float) -> Optional[str]:
        """An entry, exit or effect behavior: no accept, no send to self."""
        return define([plain_node()]) if rng.random() < p else None

    def do_activity(p: float) -> Optional[str]:
        if rng.random() >= p or not all(work):
            return None
        work[0] -= 1
        work[1] -= 1
        if not work[1]:  # the second in its top-level state runs one plain node
            work[2] -= 1
            return define([plain_node()])
        body: list[M.Node] = []
        while work[2] and (not body or rng.random() < 0.5):
            body.append(do_node())
            work[2] -= 3 if isinstance(body[-1], M.Par) else 1
            if isinstance(body[-1], M.FinalNode):
                break
        return define(body)

    def guard() -> Optional[M.Guard]:
        if rng.random() >= 0.2:
            return None
        return M.Guard("v", rng.choice(tuple(M.GUARD_OPS)), rng.randint(0, 1))

    def region(depth: int, calm: float) -> M.Region:
        """A region; `calm` scales down the behaviors of an orthogonal one,
        whose steps interleave with its sibling's."""
        name = fresh("r")
        states = [state(depth, calm) for _ in range(rng.randint(2, 3 if depth == 0 else 2))]
        finals = [M.FinalState(fresh("F"))] if rng.random() < (0.7 if depth else 0.3) else []
        names = [s.name for s in states]
        transitions = [M.Transition(f"initial_{name}", "", names[0], M.TransitionKind.EXTERNAL,
                                    effect=behavior(0.2 * calm), is_initial=True)]

        def add(source: str, target: str, kind: M.TransitionKind, trigger: Optional[str]) -> None:
            transitions.append(M.Transition(fresh("T"), source, target, kind, trigger=trigger,
                                            guard=guard(), effect=behavior(0.3 * calm)))

        for i, src in enumerate(names):
            later = names[i + 1:] + [f.name for f in finals]
            used = rng.sample(TRIGGERS + SELF, len(TRIGGERS + SELF))
            if later and rng.random() < 0.7:
                add(src, rng.choice(later), M.TransitionKind.EXTERNAL, used.pop())
            if later and rng.random() < 0.3:
                add(src, rng.choice(later), M.TransitionKind.COMPLETION, None)
            if rng.random() < 0.3:
                add(src, src, M.TransitionKind.INTERNAL, used.pop())
        return M.Region(name, (M.InitialPseudostate(), *states, *finals), tuple(transitions))

    def state(depth: int, calm: float) -> M.State:
        if depth == 0:  # top-level states are never active together
            work[1] = 2
        composite = depth == 0 and rng.random() < 0.45
        orthogonal = composite and rng.random() < 0.4
        regions = tuple(region(depth + 1, 0.3 if orthogonal else 1) for _ in range(1 + orthogonal)) if composite else ()
        return M.State(
            fresh("S"),
            entry=behavior(0.35 * calm),
            exit=behavior(0.25 * calm),
            do_activity=None if orthogonal else do_activity(0.5 if composite else 0.4),
            defer=tuple(rng.sample(TRIGGERS, 1)) if composite and rng.random() < 0.5 else (),
            regions=regions,
        )

    machine = M.MachineModel(
        name=f"Hier{seed}",
        signals=TRIGGERS + SELF + OUTPUTS,
        variables=VARS,
        regions=(region(0, 1),),
        activities=tuple(acts),
    )
    issues = M.validate(machine)
    assert not issues, issues
    return machine


def gen_hier_scenario(seed: int, machine: M.MachineModel) -> S.Scenario:
    rng = random.Random(seed ^ 0x5EED)
    steps: list[S.Step] = []
    for _ in range(rng.randint(1, 2)):
        if steps and rng.random() < 0.6:
            steps.append(S.AwaitStable())
        steps.append(S.Inject(rng.choice(TRIGGERS)))
    ref = rng.choice(sorted(machine.state_refs))
    expectations = (
        S.EventuallyActive(ref),
        S.Emits(tuple(rng.sample(OUTPUTS, rng.randint(0, 2)))),
        S.NeverDiscards(rng.choice(TRIGGERS)),
    )
    return S.Scenario(name=f"hier{seed}", steps=tuple(steps), expectations=expectations)


def features(seed: int) -> set[str]:
    """The names of the generated features that the machine of `seed` has;
    "two dos alive at once" only if some state that its scenario reaches
    offers steps of two doActivity threads."""
    machine = gen_hier_machine(seed)
    acts = {a.name: a for a in machine.activities}
    found: set[str] = set()
    todo = list(machine.regions)
    while todo:
        region = todo.pop()
        found.update(t.kind.value for t in region.transitions if t.kind is not M.TransitionKind.EXTERNAL)
        for v in region.vertices:
            if isinstance(v, M.FinalState):
                found.add("final")
            if not isinstance(v, M.State):
                continue
            todo += v.regions
            named = {"composite": v.regions, "orthogonal": len(v.regions) == 2, "entry": v.entry,
                     "exit": v.exit, "defer on a composite": v.defer and v.regions}
            found.update(name for name, has in named.items() if has)
            for n in M.walk_body(acts[v.do_activity].body) if v.do_activity else ():
                if isinstance(n, M.AcceptEvent):
                    found.add("accept")
                elif isinstance(n, M.Par):
                    found.add("par")
                elif isinstance(n, M.SendSignal) and not n.to_env:
                    found.add("send to self")
    # an edge's first record is its step's, labelled by the thread that took it
    if any(len({e.records[0].thread for e in node.edges if e.records[0].thread.startswith("do")}) >= 2
           for node in explore(machine, gen_hier_scenario(seed, machine)).nodes):
        found.add("two dos alive at once")
    return found


def seeds_with(feature: str, seeds: range = range(20)) -> list[int]:
    """The seeds among `seeds` whose machine and scenario have `feature`."""
    return [seed for seed in seeds if feature in features(seed)]
