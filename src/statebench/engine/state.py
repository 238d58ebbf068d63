"""Immutable runtime state.

A RuntimeState is a value: every micro-step application builds a new one.
That is what makes exhaustive exploration honest — states compare equal
exactly when no scheduling decision can ever distinguish them again, so the
explorer may merge them.

Vertex paths name positions in the region tree as alternating region and
vertex names from the root, e.g. ("main", "Active", "temperature", "Wait1").
The active configuration maps each active path to a lifecycle status:

    entering   -> entry behavior still running
    entry_done -> entered; internal work may still be pending
    completing -> completion detected, completion event not yet generated
    completed  -> completion event sitting in (or through) the pool
    final      -> a FinalState occupies the path

Event pools: completion occurrences live in their own queue and always
dispatch before regular signal occurrences. The deferred pool keeps
occurrences set aside by deferring states. in_flight holds self-sent signals
between the send action and their (separately scheduled) arrival in the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional, Union

from .occurrences import CompletionOccurrence, InvocationOccurrence, Occurrence, SignalOccurrence
from .steps import StepKind

Path = tuple[str, ...]


def dotted(path: Path) -> str:
    return ".".join(path)


def _evolve(value, **changes):
    """`dataclasses.replace` for the frozen values of this module: a copy of
    `value`'s fields with `changes` applied. `replace` runs the generated
    `__init__`, which sets each field through `object.__setattr__`; filling
    the new instance dict in place costs about a quarter of that on a
    RuntimeState. Filled in place, the dict keeps sharing its keys with the
    class's other instances; a dict built apart would not, and would double
    the size of every thread that the explorer's memo keys hold. These
    values have no `__post_init__` and no slots, so the copy is equal to,
    and hashes like, the value `__init__` would build."""
    new = object.__new__(type(value))
    fields = new.__dict__
    fields.update(value.__dict__)
    fields.update(changes)
    return new


# --- logical threads ---------------------------------------------------


@dataclass(frozen=True)
class LegStep:
    """One precompiled step of a compound transition leg, of the kind of the
    micro-step that takes it. A behavior run (an exit, effect or entry
    behavior whose body is not empty) is a leg step with an `activity`; it
    takes one micro-step per node. An effect's path is its region's, any
    other leg step's path is its vertex's."""

    kind: StepKind
    path: Path = ()
    activity: str = ""
    transition: str = ""           # an effect's transition name
    spawn: bool = False            # spawn child region legs once this step is done


@dataclass(frozen=True)
class ActivityExec:
    """Progress inside one behavior execution: live strands plus join counters."""

    strands: tuple[int, ...]
    joins: tuple[tuple[int, int], ...] = ()   # (join node id, arrivals still missing)


@dataclass(frozen=True)
class LegThread:
    tid: int
    steps: tuple[LegStep, ...]
    idx: int = 0
    exec: Optional[ActivityExec] = None

    @property
    def done(self) -> bool:
        return self.idx >= len(self.steps)

    def current(self) -> LegStep:
        return self.steps[self.idx]

    def label(self) -> str:
        return f"leg{self.tid}"


@dataclass(frozen=True)
class DoThread:
    """A running doActivity. It owns its start event until InitDoActivity
    takes it, its wait points (the accept nodes where a strand registered
    with the dispatcher) and a local pool of the occurrences routed to them."""

    tid: int
    state: Path
    activity: str
    invocation: Optional[InvocationOccurrence] = None   # the start event, until taken
    exec: ActivityExec = ActivityExec(())
    waiting: tuple[int, ...] = ()  # registered accept node ids, ascending
    local: tuple[tuple[int, Occurrence], ...] = ()   # (wait point node id, occurrence)

    @property
    def finished(self) -> bool:
        return self.invocation is None and not self.exec.strands

    def label(self) -> str:
        return f"do{self.tid}"


Thread = Union[LegThread, DoThread]


# --- dispatch bookkeeping ----------------------------------------------


# Option forms inside PendingDispatch:
#   ("sm", (transition_id, ...))   fire these non-conflicting transitions
#   ("do", tid, node)              route to that thread's wait point
#   ("defer",)                     move to the deferred pool
#   ("discard",)                   drop
# transition_id = (region path joined with ".", transition name)
Option = tuple


@dataclass(frozen=True)
class PendingDispatch:
    occurrence: Occurrence
    options: tuple[Option, ...]


# --- the state value ----------------------------------------------------


@dataclass(frozen=True)
class RuntimeState:
    active: tuple[tuple[Path, str], ...] = ()
    queue_completion: tuple[CompletionOccurrence, ...] = ()
    queue_regular: tuple[SignalOccurrence, ...] = ()
    deferred: tuple[SignalOccurrence, ...] = ()
    in_flight: tuple[SignalOccurrence, ...] = ()
    threads: tuple[Thread, ...] = ()
    vars: tuple[tuple[str, int], ...] = ()
    pending: Optional[PendingDispatch] = None
    rtc_index: int = 0             # ordinal of the most recent run-to-completion step
    next_seq: int = 0
    next_tid: int = 0

    # -- derived views --

    def status(self, path: Path) -> Optional[str]:
        for p, st in self.active:
            if p == path:
                return st
        return None

    def is_active(self, path: Path) -> bool:
        return self.status(path) is not None

    def rtc_active(self) -> bool:
        """True while a run-to-completion step is in progress."""
        if self.pending is not None:
            return True
        return any(isinstance(t, LegThread) for t in self.threads)

    def completion_pending(self) -> bool:
        return any(st == "completing" for _, st in self.active)

    def stable(self) -> bool:
        """Quiescent from the machine's point of view.

        doActivity threads may still be running or parked at accept nodes;
        stability only means no run-to-completion step can start or is in
        progress and nothing is waiting to be delivered.
        """
        return (
            not self.rtc_active()
            and not self.completion_pending()
            and not self.queue_completion
            and not self.queue_regular
            and not self.in_flight
        )

    def thread(self, tid: int) -> Thread:
        for t in self.threads:
            if t.tid == tid:
                return t
        raise KeyError(tid)

    def pool_load(self) -> int:
        """Combined occupancy of all pools: what `max_pool` bounds."""
        return len(self.queue_regular) + len(self.queue_completion) + len(self.deferred) + len(self.in_flight)

    # -- functional updates --

    def with_thread(self, thread: Thread) -> RuntimeState:
        rest = tuple(t for t in self.threads if t.tid != thread.tid)
        return _evolve(self, threads=tuple(sorted(rest + (thread,), key=lambda t: t.tid)))

    def without_thread(self, tid: int) -> RuntimeState:
        return _evolve(self, threads=tuple(t for t in self.threads if t.tid != tid))

    def with_status(self, path: Path, status: str) -> RuntimeState:
        entries = tuple((p, status if p == path else st) for p, st in self.active)
        if not self.is_active(path):
            entries = tuple(sorted(entries + ((path, status),)))
        return _evolve(self, active=entries)

    def without_path(self, path: Path) -> RuntimeState:
        return _evolve(self, active=tuple((p, st) for p, st in self.active if p != path))

    def with_var(self, name: str, value: int) -> RuntimeState:
        return _evolve(self, vars=tuple(sorted(((n, value if n == name else v) for n, v in self.vars))))

    # -- canonical identity --

    def key(self) -> tuple:
        """Hashable identity for memoization; covers everything that can
        influence future behavior: the fields `==` compares, in order."""
        return _key_fields(self)

    def config_text(self) -> str:
        """Human-oriented snapshot of the active state configuration."""
        leaves = []
        paths = {p for p, _ in self.active}
        for p in sorted(paths):
            if not any(q != p and q[: len(p)] == p for q in paths):
                leaves.append(dotted(p))
        return "[" + ", ".join(leaves) + "]"


_key_fields = attrgetter(*(f.name for f in fields(RuntimeState) if f.compare))
