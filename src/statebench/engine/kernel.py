"""The micro-step kernel.

Two functions carry the whole semantics:

    enabled_steps(ctx, state) -> [MicroStep]   what could happen right now
    apply(ctx, state, step)   -> (state', Record)   one of them happening

plus `boot` to set up the initial compound transitions and `inject` for the
environment. Everything else (drivers, exploration, replay) is built on top
of these and knows nothing about state machine semantics.

Applicability has one definition: a step is applicable in a state iff
`enabled_steps` lists it there. Each listed step carries the state it was
enabled in and its operand (the thread and node, the occurrence, the
dispatch option, ...), and `apply` acts on that operand. Any other step is
looked up by equality in `enabled_steps` first; KernelError if it is not
there. `inject` is the environment's entry, not an enabled step: it adds a
signal to the pool and renders its record as `apply` does.

A walk may hand `enabled_steps`, `apply` and `inject` one table, `made`, kept
for the walk; `explore` does, and without one (`run`, replay) the kernel
makes no lookups. Each entry is a function of its key: a do or leg thread's
sorted step group under the thread value, and a pending dispatch's option
steps under the `PendingDispatch` value, each rebound to the current state
by a field copy; the do thread an InitDoActivity, RunAction or
RegisterDoAccept step leaves, under (step kind, thread, node); and each
rendered record, under its inputs. A do thread's ConsumeDeferred steps also
read the deferred pool, so `enabled_steps` builds them anew beside its group.

Scheduling model
----------------
Logical threads: the dispatcher ("sm"), one thread per compound transition
leg ("legN"), one per running doActivity ("doN"), plus "net" for self-sent
signals in flight and "env" for injections. A run-to-completion step spans
from the dispatcher committing an occurrence to the state machine until the
last leg it spawned finishes; doActivity threads run concurrently and their
steps interleave freely with leg steps.

A leg is a precompiled tuple of `LegStep`s, each of the `StepKind` of the
micro-step that takes it: AbortDoActivity, RunExitAction, ExitState and
ReleaseDeferred for each state it leaves, innermost first, RunEffectAction,
then EnterState, RunEntryAction and StartDoActivity for each state it
enters. A behavior run (exit, effect or entry) is a leg step with an
activity and takes one micro-step per node; `build_index` lists, in
`ModelIndex.runs`, the activities whose body is not empty, and a behavior
with an empty body is no leg step at all.

Step order: `enabled_steps` lists one group of steps per logical thread,
each sorted by `MicroStep.key()`: the unfinished doActivity threads, then
the legs, both in `st.threads` order (ascending tid, as `with_thread` keeps
it), then "net", then "sm"; a pending dispatch lists its option steps alone.
The dispatcher goes last, so the take-first strategy lets running activities
register their accepters before the next event is pulled from the pool.

Dispatch is two micro-steps: DispatchEvent pops an occurrence and computes
*at that instant* the complete decision table (which transitions fire after
priority arbitration, which doActivity accepters match, whether deferral
applies); then exactly one ChooseAccepter/DeferEvent/DiscardEvent step
commits one row of that table. While the decision is pending no other thread
runs, which keeps the published match analysis true when it is committed.

A wait point belongs to its doActivity thread: RegisterDoAccept adds the
accept node to the thread's `waiting`, routing an occurrence to it moves the
node from `waiting` into the thread's local pool, next to the occurrence,
and the dispatcher reads the accepters from the threads. Deferral and
acceptance interact in two directions. A registered wait point outranks deferral: if an active state
defers the signal but a wait point matches, the doActivity gets the
occurrence and the state machine itself is not offered it. And a newly
registered wait point looks at the deferred pool before fresh events: while
it matches a deferred occurrence, its thread's ConsumeDeferred step is
enabled (also in the middle of someone else's run-to-completion step) and
the wait point is withheld from fresh dispatch matching.

Completion events are generated only for states that actually have an
outgoing completion transition; they enter a separate queue dispatched ahead
of regular occurrences, and a detected-but-not-yet-generated completion
blocks dispatching entirely, so no regular event can overtake it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Union

from .. import model as M
from ..trace import Record
from .occurrences import (
    CompletionOccurrence,
    InvocationOccurrence,
    Occurrence,
    SignalOccurrence,
)
from .program import Program, compile_activity, describe
from .state import (
    ActivityExec,
    DoThread,
    LegStep,
    LegThread,
    Path,
    PendingDispatch,
    RuntimeState,
    _evolve,
    dotted,
)
from .steps import MicroStep, StepKind

TransitionId = tuple[str, str]     # (dotted region path, transition name)


# --- model index --------------------------------------------------------


@dataclass
class ModelIndex:
    """Precomputed lookups for one machine. Built once, never mutated."""

    model: M.MachineModel
    programs: dict[str, Program] = field(default_factory=dict)
    runs: dict[str, int] = field(default_factory=dict)   # activity -> entry node, bodies not empty
    vertex: dict[Path, M.Vertex] = field(default_factory=dict)
    state_regions: dict[Path, tuple[Path, ...]] = field(default_factory=dict)
    initial: dict[Path, M.Transition] = field(default_factory=dict)
    # (source path, transition); the region is `src[:-1]`, the target `src[:-1] + (t.target,)`
    transitions: dict[TransitionId, tuple[Path, M.Transition]] = field(default_factory=dict)
    by_trigger: dict[str, tuple[TransitionId, ...]] = field(default_factory=dict)
    completion_of: dict[Path, TransitionId] = field(default_factory=dict)
    defer_of: dict[Path, frozenset[str]] = field(default_factory=dict)
    root_regions: tuple[Path, ...] = ()


def build_index(model: M.MachineModel) -> ModelIndex:
    ctx = ModelIndex(model)
    # the first of duplicate definitions, as `validate` and `lint` read it
    ctx.programs = {a.name: compile_activity(model.activity(a.name)) for a in model.activities}
    ctx.runs = {name: p.entry for name, p in ctx.programs.items() if p.entry is not None}

    def walk_region(region: M.Region, prefix: Path) -> None:
        rpath = prefix + (region.name,)
        for t in region.transitions:
            if t.is_initial:
                ctx.initial[rpath] = t
                continue
            tid, src = (dotted(rpath), t.name), rpath + (t.source,)
            ctx.transitions[tid] = (src, t)
            if t.kind is M.TransitionKind.COMPLETION:
                ctx.completion_of[src] = tid
            elif t.trigger:
                ctx.by_trigger.setdefault(t.trigger, ())
                ctx.by_trigger[t.trigger] += (tid,)
        for v in region.vertices:
            if isinstance(v, M.InitialPseudostate):
                continue
            vpath = rpath + (v.name,)
            ctx.vertex[vpath] = v
            if isinstance(v, M.State):
                ctx.state_regions[vpath] = tuple(vpath + (r.name,) for r in v.regions)
                if v.defer:
                    ctx.defer_of[vpath] = frozenset(v.defer)
                for sub in v.regions:
                    walk_region(sub, vpath)

    for region in model.regions:
        walk_region(region, ())
    ctx.root_regions = tuple((r.name,) for r in model.regions)
    return ctx


# --- small helpers ------------------------------------------------------


def _payload(*items: tuple[str, "str | int"]) -> tuple:
    # canonical payload order: sorted by key, so serialization round-trips
    return tuple(sorted(items))


def _step(st: RuntimeState, operand, kind: StepKind, thread: str, *items: tuple[str, "str | int"]) -> MicroStep:
    return MicroStep(kind, thread, _payload(*items), st, operand)


def _without(queue: tuple, occ: Occurrence) -> tuple:
    return tuple(o for o in queue if o is not occ)


def _pool_digest(st: RuntimeState) -> str:
    """The records' digest of the four pools. `st` keeps it next to the
    pools it was taken from, and `_evolve` copies both into a successor,
    which reuses the digest while its pools are still equal."""
    pools = (st.queue_completion, st.queue_regular, st.deferred, st.in_flight)
    kept = st.__dict__.get("_pool_digest")
    if kept is None or kept[0] != pools:
        text = ";".join(",".join(o.brief() for o in pool) for pool in pools)
        kept = st.__dict__["_pool_digest"] = (pools, hashlib.sha1(text.encode()).hexdigest()[:10])
    return kept[1]


def _eval_term(term: Union[str, int], vars_: dict[str, int]) -> int:
    return term if isinstance(term, int) else vars_[term]


def _eval_guard(guard: Optional[M.Guard], st: RuntimeState) -> bool:
    return guard is None or M.GUARD_OPS[guard.op](dict(st.vars)[guard.var], guard.literal)


def _do_thread_for(st: RuntimeState, path: Path) -> Optional[DoThread]:
    for t in st.threads:
        if isinstance(t, DoThread) and t.state == path:
            return t
    return None


def _active_child(st: RuntimeState, region_path: Path) -> Optional[Path]:
    """The active vertex directly inside one region, if any."""
    depth = len(region_path) + 1
    for p, _ in st.active:
        if len(p) == depth and p[: len(region_path)] == region_path:
            return p
    return None


def _descends(path: Path, ancestor: Path) -> bool:
    return len(path) > len(ancestor) and path[: len(ancestor)] == ancestor


# --- leg construction ---------------------------------------------------


def _exit_cascade(ctx: ModelIndex, st: RuntimeState, path: Path) -> list[LegStep]:
    """Exit steps for one active vertex and everything inside it.

    Innermost states leave first; orthogonal siblings are sequenced in region
    declaration order within this leg (the interleaving freedom of interest
    lives between legs and doActivities, not inside one compound exit)."""
    v = ctx.vertex[path]
    steps: list[LegStep] = []
    if isinstance(v, M.FinalState):
        return [LegStep(StepKind.EXIT_STATE, path)]
    for rpath in ctx.state_regions.get(path, ()):
        child = _active_child(st, rpath)
        if child is not None:
            steps.extend(_exit_cascade(ctx, st, child))
    if v.do_activity:
        steps.append(LegStep(StepKind.ABORT_DO, path))
    if v.exit in ctx.runs:
        steps.append(LegStep(StepKind.RUN_EXIT_ACTION, path, activity=v.exit))
    steps.append(LegStep(StepKind.EXIT_STATE, path))
    if v.defer:
        steps.append(LegStep(StepKind.RELEASE_DEFERRED, path))
    return steps


def _entry_sequence(ctx: ModelIndex, path: Path) -> list[LegStep]:
    """Entry steps for one target vertex: enter, entry behavior, then start
    the doActivity; child regions spawn as independent legs once the entry
    behavior (or the bare entry) is done."""
    v = ctx.vertex[path]
    if isinstance(v, M.FinalState):
        return [LegStep(StepKind.ENTER_STATE, path)]
    has_regions = bool(ctx.state_regions.get(path))
    runs_entry = v.entry in ctx.runs
    steps = [LegStep(StepKind.ENTER_STATE, path, spawn=has_regions and not runs_entry)]
    if runs_entry:
        steps.append(LegStep(StepKind.RUN_ENTRY_ACTION, path, activity=v.entry, spawn=has_regions))
    if v.do_activity:
        steps.append(LegStep(StepKind.START_DO, path))
    return steps


def _leg(ctx: ModelIndex, st: RuntimeState, thread_id: int, region: Path, t: M.Transition) -> LegThread:
    """The leg of transition `t` of `region`: exit its source unless `t` is
    initial or internal, run its effect, enter its target unless `t` is
    internal."""
    crosses = t.kind is not M.TransitionKind.INTERNAL
    steps = _exit_cascade(ctx, st, region + (t.source,)) if crosses and not t.is_initial else []
    if t.effect in ctx.runs:
        name = f"initial@{dotted(region)}" if t.is_initial else t.name
        steps.append(LegStep(StepKind.RUN_EFFECT_ACTION, region, activity=t.effect, transition=name))
    if crosses:
        steps.extend(_entry_sequence(ctx, region + (t.target,)))
    return _leg_prepare(ctx, LegThread(thread_id, tuple(steps)))


def _leg_prepare(ctx: ModelIndex, leg: LegThread) -> LegThread:
    """Arms the strand cursor when the current leg step is a behavior run."""
    if leg.done or leg.exec is not None or not leg.current().activity:
        return leg
    return _evolve(leg, exec=ActivityExec((ctx.runs[leg.current().activity],)))


# --- strand machinery ---------------------------------------------------


def _advance_exec(prog: Program, ex: ActivityExec, nid: int) -> ActivityExec:
    """One strand finished node `nid`; route it onward through par forks and
    join barriers."""
    node = prog.nodes[nid]
    strands = [s for s in ex.strands if s != nid]
    joins = dict(ex.joins)
    if node.kind == "final":
        return ActivityExec((), ())

    def arrive(target: Optional[int]) -> None:
        while target is not None and prog.nodes[target].kind == "join":
            jid = target
            remaining = joins.get(jid, prog.nodes[jid].arity) - 1
            if remaining > 0:
                joins[jid] = remaining
                return
            joins.pop(jid, None)
            target = prog.nodes[jid].nxt
        if target is not None:
            strands.append(target)

    if node.kind == "par":
        for entry in node.branches:
            arrive(entry)
    else:
        arrive(node.nxt)
    return ActivityExec(tuple(sorted(strands)), tuple(sorted(joins.items())))


def _exec_node(
    ctx: ModelIndex, st: RuntimeState, prog: Program, nid: int, region: Path
) -> tuple[RuntimeState, Optional[tuple[str, str]]]:
    """State effect of running one task/send node. Accepts are handled by the
    caller (they pop routed occurrences); par/final have no state effect.

    `region` is the owning region of the behavior; env sends are observed as
    (signal, that region), which is what trace normalization groups by."""
    node = prog.nodes[nid]
    if node.kind == "task" and node.assignment is not None:
        vars_ = dict(st.vars)
        a = node.assignment
        value = _eval_term(a.left, vars_)
        if a.op is not None:
            rhs = _eval_term(a.right, vars_)
            value = value + rhs if a.op == "+" else value - rhs
        return st.with_var(a.target, value), None
    if node.kind == "send":
        if node.to_env:
            return st, (node.signal, dotted(region))
        occ = SignalOccurrence(node.signal, st.next_seq)
        return (
            _evolve(st, in_flight=st.in_flight + (occ,), next_seq=st.next_seq + 1),
            None,
        )
    return st, None


# --- dispatch analysis --------------------------------------------------


def _covers(ctx: ModelIndex, tid: TransitionId, path: Path) -> bool:
    """Would firing `tid` force `path` out of the configuration?"""
    src, t = ctx.transitions[tid]
    if t.kind is M.TransitionKind.INTERNAL:
        return path == src
    return path == src or _descends(path, src)


def _enabled_transitions(ctx: ModelIndex, st: RuntimeState, signal: str) -> list[TransitionId]:
    out = []
    for tid in ctx.by_trigger.get(signal, ()):
        src, t = ctx.transitions[tid]
        if st.is_active(src) and _eval_guard(t.guard, st):
            out.append(tid)
    return out


def _fired_set(ctx: ModelIndex, enabled: list[TransitionId]) -> tuple[TransitionId, ...]:
    """Priority arbitration: among conflicting transitions the deeper source
    wins; the survivors are pairwise conflict-free and fire together."""
    fired = []
    for tid in enabled:
        src = ctx.transitions[tid][0]
        beaten = False
        for other in enabled:
            if other == tid:
                continue
            osrc = ctx.transitions[other][0]
            if (_covers(ctx, tid, osrc) or _covers(ctx, other, src)) and len(osrc) > len(src):
                beaten = True
                break
        if not beaten:
            fired.append(tid)
    return tuple(sorted(fired))


def _backlog(st: RuntimeState, signals: tuple[str, ...]) -> Optional[SignalOccurrence]:
    """The oldest deferred occurrence a wait point accepting `signals` would
    take. While there is one, the wait point drains the deferred pool (its
    ConsumeDeferred step is enabled) and is withheld from fresh dispatch
    matching."""
    return next((occ for occ in st.deferred if occ.signal in signals), None)


def analyze_dispatch(ctx: ModelIndex, st: RuntimeState, occ: Occurrence) -> tuple[tuple, ...]:
    """The full decision table for dispatching `occ` in `st`.

    Options come back as the state machine's, if any, then the matching wait
    points by (thread id, node); `enabled_steps` orders their steps by key.
    Exactly one is committed by a ChooseAccepter/DeferEvent/DiscardEvent step."""
    if isinstance(occ, CompletionOccurrence):
        if st.status(occ.state) == "completed":
            tid = ctx.completion_of.get(occ.state)
            if tid is not None and _eval_guard(ctx.transitions[tid][1].guard, st):
                return (("sm", (tid,)),)
        return (("discard",),)

    signal = occ.signal
    enabled = _enabled_transitions(ctx, st, signal)
    fired = _fired_set(ctx, enabled)
    # the matching wait points, in (thread id, node) order
    accepters = [
        ("do", th.tid, nid)
        for th in st.threads
        if isinstance(th, DoThread)
        for nid in th.waiting
        if signal in (accepts := ctx.programs[th.activity].nodes[nid].signals)
        and _backlog(st, accepts) is None
    ]

    deferring = [p for p, _ in st.active if signal in ctx.defer_of.get(p, ())]
    source_paths = [ctx.transitions[t][0] for t in enabled]

    def overridden(p: Path) -> bool:
        return any(sp == p or _descends(sp, p) for sp in source_paths)

    effective_defer = any(not overridden(p) for p in deferring)

    options: list[tuple] = []
    if effective_defer:
        # a deferring state shadows the state machine entirely; doActivity
        # accepters still outrank the deferral
        options = accepters or [("defer",)]
    else:
        if fired:
            options.append(("sm", fired))
        options.extend(accepters)
        if not options:
            options = [("discard",)]
    return tuple(options)


# --- completion detection -----------------------------------------------


def _is_complete(ctx: ModelIndex, st: RuntimeState, path: Path) -> bool:
    v = ctx.vertex[path]
    assert isinstance(v, M.State)
    if v.do_activity:
        th = _do_thread_for(st, path)
        if th is None or not th.finished:
            return False
    for rpath in ctx.state_regions.get(path, ()):
        child = _active_child(st, rpath)
        if child is None or st.status(child) != "final":
            return False
    return True


def _refresh_completions(ctx: ModelIndex, st: RuntimeState) -> RuntimeState:
    """Promote entry_done states whose internal work just finished. Only
    states with an outgoing completion transition take part; anything else
    would only produce discard noise."""
    for path, status in st.active:
        if status != "entry_done" or path not in ctx.completion_of:
            continue
        if _is_complete(ctx, st, path):
            st = st.with_status(path, "completing")
    return st


# --- enabled steps -------------------------------------------------------


def _route(th: DoThread, node: int, occ: Occurrence) -> DoThread:
    """`th` with `occ` routed to its wait point `node`."""
    return _evolve(th, waiting=tuple(n for n in th.waiting if n != node), local=th.local + ((node, occ),))


def _routed(thread: DoThread, node: int) -> Optional[Occurrence]:
    for wp, occ in thread.local:
        if wp == node:
            return occ
    return None


def _do_steps(ctx: ModelIndex, st: RuntimeState, th: DoThread) -> list[MicroStep]:
    label = th.label()
    if th.invocation is not None:
        return [_step(st, (th, None), StepKind.INIT_DO, label, ("occ", th.invocation.brief()), ("state", dotted(th.state)))]
    prog = ctx.programs[th.activity]
    steps: list[MicroStep] = []
    for nid in th.exec.strands:
        node = prog.nodes[nid]
        if node.kind != "accept":
            steps.append(_step(st, (th, nid), StepKind.RUN_ACTION, label, ("node", nid), ("do", describe(node))))
        elif (occ := _routed(th, nid)) is not None:
            items = (("node", nid), ("do", describe(node)), ("occ", occ.brief()))
            steps.append(_step(st, (th, nid), StepKind.RUN_ACTION, label, *items))
        elif nid not in th.waiting:
            items = (("node", nid), ("signals", "|".join(node.signals)))
            steps.append(_step(st, (th, nid), StepKind.REGISTER_ACCEPT, label, *items))
    return _by_key(steps)


def _consume_steps(ctx: ModelIndex, st: RuntimeState, th: DoThread) -> list[MicroStep]:
    """Do thread `th`'s ConsumeDeferred steps in `st`: a registered wait point
    drains the deferred pool, any time, also mid-RTC; FIFO within the pool."""
    nodes, label = ctx.programs[th.activity].nodes, th.label()
    return [_step(st, (th, nid, occ), StepKind.CONSUME_DEFERRED, label, ("node", nid), ("occ", occ.brief()))
            for nid in th.exec.strands if nid in th.waiting and (occ := _backlog(st, nodes[nid].signals)) is not None]


def _leg_steps(ctx: ModelIndex, st: RuntimeState, leg: LegThread) -> list[MicroStep]:
    label = leg.label()
    step = leg.current()
    if not step.activity:
        return [_step(st, (leg, None), step.kind, label, ("state", dotted(step.path)))]
    assert leg.exec is not None
    prog = ctx.programs[step.activity]
    where = ("transition", step.transition) if step.transition else ("state", dotted(step.path))
    about = (("activity", step.activity), where)
    return _by_key(_step(st, (leg, n), step.kind, label, ("node", n), ("do", describe(prog.nodes[n])), *about) for n in leg.exec.strands)


_OPTION_KIND = {
    "sm": StepKind.CHOOSE_ACCEPTER,
    "do": StepKind.CHOOSE_ACCEPTER,
    "defer": StepKind.DEFER,
    "discard": StepKind.DISCARD,
}


def _option_step(st: RuntimeState, option: tuple) -> MicroStep:
    """The step that commits one row of the pending dispatch decision."""
    items = [("occ", st.pending.occurrence.brief())]
    if option[0] == "sm":
        items += [("accepter", "sm"), ("fired", ",".join(f"{r}:{n}" for r, n in option[1]))]
    elif option[0] == "do":
        items.append(("accepter", f"do{option[1]}@{option[2]}"))
    return _step(st, option, _OPTION_KIND[option[0]], "sm", *items)


def _option_steps(ctx: ModelIndex, st: RuntimeState, pending: PendingDispatch) -> list[MicroStep]:
    return _by_key(_option_step(st, o) for o in pending.options)


def _by_key(steps) -> list[MicroStep]:
    return sorted(steps, key=MicroStep.key)


def _group(build, ctx: ModelIndex, st: RuntimeState, value, made: Optional[dict]) -> list[MicroStep]:
    """`build(ctx, st, value)`, the sorted step group of `value` (a thread,
    or the pending dispatch) in `st`. With a table it is built once per
    equal `value` and kept in `made` under it, and each call rebinds the
    kept steps to `st` by a field copy, which reuses their keys."""
    if made is None:
        return build(ctx, st, value)
    group = made.get(value)
    if group is None:
        group = made[value] = build(ctx, st, value)
    return [_evolve(s, state=st) for s in group]


def enabled_steps(ctx: ModelIndex, st: RuntimeState, made: Optional[dict] = None) -> list[MicroStep]:
    """Every micro-step some logical thread could take next, in canonical
    order. Empty exactly when the machine is stable with a fully drained
    environment and no runnable doActivity work.

    `made` is the caller's per-walk table (see the module docstring); with
    one, each do or leg thread's step group, under the thread value, and a
    pending dispatch's option steps, under the `PendingDispatch` value, are
    built once and rebound to `st` by `_group`. A do thread's ConsumeDeferred
    steps name an occurrence of `st`'s deferred pool, which `apply` removes
    by identity, so each call builds them and sorts them into its group."""
    # a pending dispatch decision is committed before anything else moves
    if st.pending is not None:
        return _group(_option_steps, ctx, st, st.pending, made)

    steps = []
    for th in st.threads:
        if isinstance(th, DoThread) and not th.finished:
            group = _group(_do_steps, ctx, st, th, made)
            steps += _by_key(group + _consume_steps(ctx, st, th)) if th.waiting and st.deferred else group
    for th in st.threads:
        if isinstance(th, LegThread):
            steps += _group(_leg_steps, ctx, st, th, made)
    steps += _by_key(_step(st, occ, StepKind.DELIVER, "net", ("occ", occ.brief())) for occ in st.in_flight)

    # a detected completion is generated before any dispatch; the
    # completion pool goes first, and either pool dispatches its oldest
    if st.completion_pending():
        steps += _by_key(_step(st, path, StepKind.GENERATE_COMPLETION, "sm", ("state", dotted(path)))
                         for path, status in st.active if status == "completing")
    elif not st.rtc_active() and (pool := st.queue_completion or st.queue_regular):
        steps.append(_step(st, pool[0], StepKind.DISPATCH, "sm", ("occ", pool[0].brief())))
    return steps


# --- apply ----------------------------------------------------------------


class KernelError(Exception):
    """A step that is not enabled was applied, or an unknown signal injected."""


def _spawn_regions(ctx: ModelIndex, st: RuntimeState, path: Path) -> RuntimeState:
    for rpath in ctx.state_regions.get(path, ()):
        leg = _leg(ctx, st, st.next_tid, rpath, ctx.initial[rpath])
        st = _evolve(st.with_thread(leg), next_tid=st.next_tid + 1)
    return st


def _advance_leg(ctx: ModelIndex, st: RuntimeState, leg: LegThread) -> RuntimeState:
    """Move past the just-completed current step; spawn child regions where
    the completed step asks for it; drop the leg when finished."""
    completed = leg.current()
    if completed.kind is StepKind.RUN_ENTRY_ACTION:
        st = st.with_status(completed.path, "entry_done")
    leg = _evolve(leg, idx=leg.idx + 1, exec=None)
    if leg.done:
        st = st.without_thread(leg.tid)
    else:
        st = st.with_thread(_leg_prepare(ctx, leg))
    if completed.spawn:
        st = _spawn_regions(ctx, st, completed.path)
    return st


_THREAD_STEPS = (StepKind.INIT_DO, StepKind.RUN_ACTION, StepKind.REGISTER_ACCEPT)


def _thread_after(ctx: ModelIndex, kind: StepKind, th: DoThread, nid: Optional[int]) -> DoThread:
    """Do thread `th` after its step of `kind` (one of `_THREAD_STEPS`) at
    node `nid`: a function of these alone. RunAction's effect on the rest
    of the state is `_exec_node`'s."""
    if kind is StepKind.INIT_DO:
        strands = (ctx.runs[th.activity],) if th.activity in ctx.runs else ()
        return _evolve(th, invocation=None, exec=ActivityExec(strands))
    if kind is StepKind.REGISTER_ACCEPT:
        return _evolve(th, waiting=tuple(sorted(th.waiting + (nid,))))
    prog = ctx.programs[th.activity]
    node = prog.nodes[nid]
    if node.kind == "accept":
        th = _evolve(th, local=tuple(e for e in th.local if e[0] != nid))
    th = _evolve(th, exec=_advance_exec(prog, th.exec, nid))
    if node.kind == "final":
        th = _evolve(th, waiting=(), local=())
    return th


def apply(
    ctx: ModelIndex, st: RuntimeState, step: MicroStep, made: Optional[dict] = None
) -> tuple[RuntimeState, Record]:
    """Applies one micro-step, returning the successor state and the trace
    record. A step is applicable iff `enabled_steps(ctx, st)` lists it.

    `made` is the caller's per-walk table. It keeps the records rendered so
    far (see `_render`), and the do thread that each InitDoActivity,
    RunAction and RegisterDoAccept step leaves, under (step kind, thread,
    node): equal thread steps return one shared thread, while RunAction's
    effects on the rest of the state run on every call. Without a table
    the call builds its successor thread and renders its record afresh.

    A step that `enabled_steps` built for this very `st` acts on the operand
    it carries. Any other step (built by hand, or enabled in another state)
    is looked up by equality in `enabled_steps(ctx, st)`; KernelError if it
    is not there. `inject` is the environment's entry, not an enabled step,
    so an Inject step never applies here."""
    if step.state is not st:
        found = [s for s in enabled_steps(ctx, st) if s == step]
        if not found:
            raise KernelError(f"{step.key()} is not enabled")
        step = found[0]
    pre, arg = st, step.operand
    obs: Optional[tuple[str, str]] = None
    extra: list[tuple[str, "str | int"]] = []

    if step.kind is StepKind.DISPATCH:
        if isinstance(arg, CompletionOccurrence):
            st = _evolve(st, queue_completion=_without(st.queue_completion, arg))
        else:
            st = _evolve(st, queue_regular=_without(st.queue_regular, arg))
        options = analyze_dispatch(ctx, st, arg)
        st = _evolve(st, pending=PendingDispatch(arg, options))
        extra.append(("options", len(options)))

    elif step.kind in (StepKind.CHOOSE_ACCEPTER, StepKind.DEFER, StepKind.DISCARD):
        occ = st.pending.occurrence
        st = _evolve(st, pending=None)
        if arg[0] == "defer":
            st = _evolve(st, deferred=st.deferred + (occ,))
        elif arg[0] == "sm":
            st = _evolve(st, rtc_index=st.rtc_index + 1)
            for tid in arg[1]:
                src, t = ctx.transitions[tid]
                leg = _leg(ctx, st, st.next_tid, src[:-1], t)
                st = _evolve(st.with_thread(leg), next_tid=st.next_tid + 1)
                # a transition leg can be empty (internal, no effect): it
                # still counts as the event's run-to-completion step
                if leg.done:
                    st = st.without_thread(leg.tid)
        elif arg[0] == "do":
            _, tid, node = arg
            st = st.with_thread(_route(st.thread(tid), node, occ))
        # "discard": the occurrence is dropped

    elif step.kind in _THREAD_STEPS:
        th, nid = arg
        if step.kind is StepKind.RUN_ACTION:
            st, obs = _exec_node(ctx, st, ctx.programs[th.activity], nid, th.state[:-1])
        key = (step.kind, th, nid)
        after = None if made is None else made.get(key)
        if after is None:
            after = _thread_after(ctx, *key)
            if made is not None:
                made[key] = after
        st = st.with_thread(after)

    elif step.kind is StepKind.CONSUME_DEFERRED:
        th, nid, occ = arg
        st = _evolve(st, deferred=_without(st.deferred, occ)).with_thread(_route(th, nid, occ))

    elif step.kind is StepKind.DELIVER:
        st = _evolve(st, in_flight=_without(st.in_flight, arg), queue_regular=st.queue_regular + (arg,))

    elif step.kind is StepKind.GENERATE_COMPLETION:
        occ = CompletionOccurrence(arg, st.next_seq)
        st = _evolve(
            st.with_status(arg, "completed"),
            queue_completion=st.queue_completion + (occ,),
            next_seq=st.next_seq + 1,
        )
        extra.append(("occ", occ.brief()))

    else:
        # leg-owned steps; the node is set for a step of a behavior run
        leg, nid = arg
        cur = leg.current()

        if nid is not None:
            prog = ctx.programs[cur.activity]
            # effect phases carry the region path directly; entry and exit
            # behaviors carry the vertex path, whose parent is the region
            region = cur.path if cur.kind is StepKind.RUN_EFFECT_ACTION else cur.path[:-1]
            st, obs = _exec_node(ctx, st, prog, nid, region)
            ex = _advance_exec(prog, leg.exec, nid)
            if ex.strands:
                st = st.with_thread(_evolve(leg, exec=ex))
            else:
                st = _advance_leg(ctx, st, _evolve(leg, exec=ex))

        elif step.kind is StepKind.ABORT_DO:
            th = _do_thread_for(st, cur.path)
            if th is not None:
                extra.append(("live", "yes" if not th.finished else "no"))
                st = st.without_thread(th.tid)
            else:
                extra.append(("live", "no"))
            st = _advance_leg(ctx, st, leg)

        elif step.kind is StepKind.EXIT_STATE:
            st = _advance_leg(ctx, st.without_path(cur.path), leg)

        elif step.kind is StepKind.RELEASE_DEFERRED:
            def covered(o: SignalOccurrence) -> bool:
                return any(o.signal in ctx.defer_of.get(p, ()) for p, _ in st.active)

            released = tuple(o for o in st.deferred if not covered(o))
            st = _evolve(
                st,
                deferred=tuple(o for o in st.deferred if covered(o)),
                queue_regular=released + st.queue_regular,
            )
            extra.append(("released", ",".join(o.brief() for o in released) or "none"))
            st = _advance_leg(ctx, st, leg)

        elif step.kind is StepKind.ENTER_STATE:
            v = ctx.vertex[cur.path]
            if isinstance(v, M.FinalState):
                status = "final"
            else:
                status = "entering" if v.entry in ctx.runs else "entry_done"
            st = _advance_leg(ctx, st.with_status(cur.path, status), leg)

        else:  # StartDoActivity
            v = ctx.vertex[cur.path]
            th = DoThread(st.next_tid, cur.path, v.do_activity, InvocationOccurrence(st.next_seq))
            st = _evolve(st.with_thread(th), next_seq=st.next_seq + 1, next_tid=st.next_tid + 1)
            extra += [("thread", th.label()), ("activity", v.do_activity)]
            st = _advance_leg(ctx, st, leg)

    return _render(ctx, pre, st, step, obs, extra, {} if made is None else made)


def _render(
    ctx: ModelIndex, pre: RuntimeState, st: RuntimeState, step: MicroStep, obs, extra, made: dict
) -> tuple[RuntimeState, Record]:
    """Settles completions in the successor `st` of `pre` and renders the
    record of `step`, shared by `apply` and `inject`. A record is a function
    of its inputs (kind, thread and payload of the step, the extra payload
    items, pool digest, rtc and obs), so `made` maps those inputs to the
    record built from them, and equal records are built once per table."""
    st = _refresh_completions(ctx, st)
    # an "sm" choice opens a run-to-completion step even when all its legs
    # are empty; otherwise a step is inside one while some leg is alive
    in_rtc = (
        (step.kind is StepKind.CHOOSE_ACCEPTER and step.operand[0] == "sm")
        or LegThread in map(type, pre.threads)
        or LegThread in map(type, st.threads)
    )
    pool, rtc = _pool_digest(st), st.rtc_index if in_rtc else None
    key = (step.kind, step.thread, step.payload, *extra, pool, rtc, obs)
    record = made.get(key)
    if record is None:
        record = made[key] = Record(
            thread=step.thread,
            kind=step.kind._value_,  # `value` is a Python-level property
            payload=_payload(*step.payload, *extra),
            pool=pool,
            rtc=rtc,
            obs=obs,
            step=step.key(),
        )
    return st, record


# --- entry points ---------------------------------------------------------


def boot(ctx: ModelIndex) -> RuntimeState:
    """State just before the initial compound transitions run: one leg per
    top-level region, counted as run-to-completion step 1."""
    st = RuntimeState(
        vars=tuple(sorted((v, 0) for v in ctx.model.variables)),
        rtc_index=1,
    )
    for i, rpath in enumerate(ctx.root_regions):
        st = st.with_thread(_leg(ctx, st, i, rpath, ctx.initial[rpath]))
    return _evolve(st, next_tid=len(ctx.root_regions))


def inject(
    ctx: ModelIndex, st: RuntimeState, signal: str, made: Optional[dict] = None
) -> tuple[RuntimeState, Record]:
    """The environment's entry: `signal` joins the regular pool. Not an
    enabled step; `run` and `explore` call it at stable points only. `made`
    is the caller's per-walk table, whose records it shares as `apply` does."""
    if signal not in ctx.model.signals:
        raise KernelError(f"unknown signal {signal}")
    occ = SignalOccurrence(signal, st.next_seq)
    post = _evolve(st, queue_regular=st.queue_regular + (occ,), next_seq=st.next_seq + 1)
    step = MicroStep(StepKind.INJECT, "env", (("signal", signal),))
    return _render(ctx, st, post, step, None, [("occ", occ.brief())], {} if made is None else made)
