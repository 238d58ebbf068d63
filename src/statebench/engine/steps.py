"""Micro-step vocabulary.

Every observable scheduling decision is one MicroStep. The kernel offers a
set of enabled steps; applying one yields exactly one successor state and one
trace record. Anything two logical threads could interleave on must show up
here as separate steps, otherwise the explorer cannot see the choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class StepKind(Enum):
    DISPATCH = "DispatchEvent"
    CHOOSE_ACCEPTER = "ChooseAccepter"
    DEFER = "DeferEvent"
    DISCARD = "DiscardEvent"
    RUN_ACTION = "RunAction"
    RUN_EXIT_ACTION = "RunExitAction"
    RUN_EFFECT_ACTION = "RunEffectAction"
    RUN_ENTRY_ACTION = "RunEntryAction"
    EXIT_STATE = "ExitState"
    ENTER_STATE = "EnterState"
    START_DO = "StartDoActivity"
    INIT_DO = "InitDoActivity"
    ABORT_DO = "AbortDoActivity"
    REGISTER_ACCEPT = "RegisterDoAccept"
    CONSUME_DEFERRED = "ConsumeDeferred"
    GENERATE_COMPLETION = "GenerateCompletion"
    RELEASE_DEFERRED = "ReleaseDeferred"
    DELIVER = "DeliverInFlight"
    INJECT = "Inject"


# Payload values are restricted to strings and ints so steps stay hashable
# and render identically everywhere (trace text, structured output, replay
# scripts).
Payload = tuple[tuple[str, "str | int"], ...]


@dataclass(frozen=True)
class MicroStep:
    kind: StepKind
    thread: str
    payload: Payload = ()
    # set by `enabled_steps`, outside the step's identity: the state the
    # step was enabled in, and what `apply` acts on there
    state: object = field(default=None, compare=False, repr=False)
    operand: object = field(default=None, compare=False, repr=False)

    def key(self) -> str:
        """Stable identity used by replay scripts and trace records."""
        parts = [self.kind.value, self.thread]
        parts.extend(f"{k}={v}" for k, v in self.payload)
        return "|".join(parts)


def sort_group(thread: str) -> tuple[int, int]:
    """Canonical ordering of logical threads in the enabled-step list.

    doActivity threads come first, then compound transition legs, each by
    thread id as a number, then delivery and machine bookkeeping. The
    dispatcher sorting last means the take-first strategy lets running
    activities make progress (and register their accepters) before the next
    event is pulled from the pool.
    """
    if thread.startswith("do"):
        return (0, int(thread[2:]))
    if thread.startswith("leg"):
        return (1, int(thread[3:]))
    if thread == "net":
        return (2, 0)
    return (3, 0)
