"""Scenario types: the input script driven against a machine.

A scenario is a sequence of environment steps (inject a signal, or wait for
the machine to settle) plus optional expectations checked over explored
traces. Expectations are data here, judged on one run by `evaluate_run` and
over every schedule by `TraceSet.check`, both through `trace`'s record tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .model import SourceSpan


@dataclass(frozen=True)
class Inject:
    signal: str
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class AwaitStable:
    span: Optional[SourceSpan] = field(default=None, compare=False)


Step = Union[Inject, AwaitStable]


@dataclass(frozen=True)
class EventuallyActive:
    """Some point of the trace has this state active. Dotted path or bare name."""

    state: str
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Emits:
    """The whole env-visible output of the trace equals this sequence."""

    signals: tuple[str, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class NeverDiscards:
    signal: str
    span: Optional[SourceSpan] = field(default=None, compare=False)


Expectation = Union[EventuallyActive, Emits, NeverDiscards]


@dataclass(frozen=True)
class Scenario:
    name: str
    steps: tuple[Step, ...]
    expectations: tuple[Expectation, ...] = ()
    span: Optional[SourceSpan] = field(default=None, compare=False)
