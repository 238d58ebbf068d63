"""Event occurrences and pool helpers.

Three occurrence kinds flow through the machinery:

- SignalOccurrence: an injected or self-sent signal instance. seq numbers are
  allocated per machine execution, so two injections of the same signal stay
  distinguishable in traces and pools.
- CompletionOccurrence: emitted when a state finishes its internal work.
  These jump the queue: the pool keeps them in a separate front section that
  is always dispatched before regular signal occurrences.
- InvocationOccurrence: the start event of a doActivity, held by its thread
  until InitDoActivity takes it; it never enters the machine pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class SignalOccurrence:
    signal: str
    seq: int

    def brief(self) -> str:
        return f"{self.signal}#{self.seq}"


@dataclass(frozen=True)
class CompletionOccurrence:
    state: tuple[str, ...]
    seq: int

    def brief(self) -> str:
        return f"completion({'.'.join(self.state)})#{self.seq}"


@dataclass(frozen=True)
class InvocationOccurrence:
    seq: int

    def brief(self) -> str:
        return f"invocation#{self.seq}"


Occurrence = Union[SignalOccurrence, CompletionOccurrence, InvocationOccurrence]
