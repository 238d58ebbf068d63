"""Micro-step vocabulary.

Every observable scheduling decision is one MicroStep. The kernel offers a
set of enabled steps; applying one yields exactly one successor state and one
trace record. Anything two logical threads could interleave on must show up
here as separate steps, otherwise the explorer cannot see the choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..trace import Payload


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

    __hash__ = object.__hash__   # members are singletons; Enum's hash rehashes the name


@dataclass(frozen=True)
class MicroStep:
    kind: StepKind
    thread: str
    payload: Payload = ()
    # set by `enabled_steps`, outside the step's identity: the state the
    # step was enabled in, and what `apply` acts on there
    state: object = field(default=None, compare=False, repr=False)
    operand: object = field(default=None, compare=False, repr=False)
    # `key()`, rendered once: the canonical sort, the record and a replay
    # script all read it
    _key: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        parts = [self.kind._value_, self.thread]  # a plain attribute; `value` is a property
        parts.extend(f"{k}={v}" for k, v in self.payload)
        object.__setattr__(self, "_key", "|".join(parts))

    def key(self) -> str:
        """Stable identity used by replay scripts and trace records."""
        return self._key
