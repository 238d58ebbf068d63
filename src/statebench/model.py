"""Syntax tree for state machine models.

A machine is a tree of regions and vertices plus a flat table of named
activities. Behaviors (entry, exit, effect, doActivity) all reference
activities by name; the engine decides how activity nodes interleave, the
model layer only owns shape and well-formedness.

Node spans point back into source text when the model came from the parser;
models built in code leave them as None. Spans never participate in equality
so parse -> pretty-print -> parse round-trips compare structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional, Union


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int
    length: int = 1

    def label(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


# --- activity nodes ---------------------------------------------------------

GUARD_OPS = ("==", "!=", "<", ">")


@dataclass(frozen=True)
class Assignment:
    """target := left (op right)?  where left/right are variable names or ints."""

    target: str
    left: Union[str, int]
    op: Optional[str] = None
    right: Optional[Union[str, int]] = None

    def text(self) -> str:
        rhs = _term_text(self.left)
        if self.op is not None:
            rhs += f" {self.op} {_term_text(self.right)}"
        return f"{self.target} := {rhs}"


def _term_text(term: Union[str, int, None]) -> str:
    return str(term)


@dataclass(frozen=True)
class Task:
    label: str
    assignment: Optional[Assignment] = None
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class SendSignal:
    signal: str
    to_env: bool  # False -> sent to the owning machine itself
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class AcceptEvent:
    signals: tuple[str, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Par:
    branches: tuple[tuple["Node", ...], ...]
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class FinalNode:
    span: Optional[SourceSpan] = field(default=None, compare=False)


Node = Union[Task, SendSignal, AcceptEvent, Par, FinalNode]


@dataclass(frozen=True)
class Activity:
    name: str
    body: tuple[Node, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False)


# --- vertices, transitions, regions ----------------------------------------


@dataclass(frozen=True)
class State:
    name: str
    entry: Optional[str] = None     # activity names
    exit: Optional[str] = None
    do_activity: Optional[str] = None
    defer: tuple[str, ...] = ()
    regions: tuple["Region", ...] = ()
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class InitialPseudostate:
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class FinalState:
    name: str
    span: Optional[SourceSpan] = field(default=None, compare=False)


Vertex = Union[State, InitialPseudostate, FinalState]


class TransitionKind(Enum):
    EXTERNAL = "external"
    INTERNAL = "internal"
    COMPLETION = "completion"


@dataclass(frozen=True)
class Guard:
    var: str
    op: str
    literal: int

    def text(self) -> str:
        return f"{self.var} {self.op} {self.literal}"


@dataclass(frozen=True)
class Transition:
    name: str
    source: str  # vertex name within the owning region; "" for initial
    target: str
    kind: TransitionKind
    trigger: Optional[str] = None     # signal name; None for completion/initial
    guard: Optional[Guard] = None
    effect: Optional[str] = None      # activity name
    is_initial: bool = False
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Region:
    name: str
    vertices: tuple[Vertex, ...]
    transitions: tuple[Transition, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False)

    def initial_transition(self) -> Optional[Transition]:
        for t in self.transitions:
            if t.is_initial:
                return t
        return None


@dataclass(frozen=True)
class MachineModel:
    name: str
    signals: tuple[str, ...]
    variables: tuple[str, ...]
    regions: tuple[Region, ...]
    activities: tuple[Activity, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False)

    @cached_property
    def _activity_by_name(self) -> dict[str, Activity]:
        # built once (the model is frozen); reversed, so that the first of
        # duplicate definitions wins, which is the one `validate` reads
        return {a.name: a for a in reversed(self.activities)}

    def activity(self, name: str) -> Activity:
        return self._activity_by_name[name]


# --- classification ---------------------------------------------------------


class VertexClass(Enum):
    SIMPLE = "simple"
    COMPOSITE_SINGLE = "composite_single"
    COMPOSITE_ORTHOGONAL = "composite_orthogonal"
    FINAL = "final"
    INITIAL = "initial"


def classify_vertex(vertex: Vertex) -> VertexClass:
    if isinstance(vertex, InitialPseudostate):
        return VertexClass.INITIAL
    if isinstance(vertex, FinalState):
        return VertexClass.FINAL
    if not vertex.regions:
        return VertexClass.SIMPLE
    if len(vertex.regions) == 1:
        return VertexClass.COMPOSITE_SINGLE
    return VertexClass.COMPOSITE_ORTHOGONAL


# --- validation --------------------------------------------------------------


@dataclass(frozen=True)
class ModelError:
    code: str
    message: str
    span: Optional[SourceSpan] = field(default=None, compare=False)

    def __str__(self) -> str:
        where = f" at {self.span.label()}" if self.span else ""
        return f"{self.code}: {self.message}{where}"


def validate(model: MachineModel) -> list[ModelError]:
    """Well-formedness check. Returns [] when the model is executable.

    Rules beyond plain name resolution:
    - every region has exactly one initial pseudostate with exactly one
      outgoing, trigger-free, guard-free transition;
    - two transitions in one region sharing a source and trigger are rejected
      (guards are not consulted; such pairs are ambiguous at dispatch);
    - at most one completion transition per source state;
    - activities used as entry/exit/effect behaviors must not contain
      AcceptEvent nodes (a behavior blocked inside a run-to-completion step
      could never be served and would wedge the machine);
    - a FinalNode may only close a block.
    """
    errors: list[ModelError] = []
    signals = set(model.signals)
    variables = set(model.variables)
    activity_names = set()

    for a in model.activities:
        if a.name in activity_names:
            errors.append(ModelError("DuplicateActivity", f"activity {a.name!r} defined twice", a.span))
        activity_names.add(a.name)
        _check_block(a.body, a.name, signals, variables, errors)

    seen_states: dict[str, Optional[SourceSpan]] = {}
    for region in model.regions:
        _check_region(region, model, signals, activity_names, seen_states, errors)
    return errors


def _check_block(body: tuple[Node, ...], owner: str, signals: set[str],
                 variables: set[str], errors: list[ModelError]) -> None:
    for i, node in enumerate(body):
        if isinstance(node, FinalNode) and i != len(body) - 1:
            errors.append(ModelError("MisplacedFinal", f"final node must end its block in activity {owner!r}", node.span))
        if isinstance(node, Task) and node.assignment is not None:
            asg = node.assignment
            for term in (asg.target, asg.left, asg.right):
                if isinstance(term, str) and term not in variables:
                    errors.append(ModelError("UnknownVariable", f"variable {term!r} in activity {owner!r}", node.span))
        if isinstance(node, SendSignal) and node.signal not in signals:
            errors.append(ModelError("UnknownSignal", f"signal {node.signal!r} sent in activity {owner!r}", node.span))
        if isinstance(node, AcceptEvent):
            for s in node.signals:
                if s not in signals:
                    errors.append(ModelError("UnknownSignal", f"signal {s!r} accepted in activity {owner!r}", node.span))
        if isinstance(node, Par):
            for branch in node.branches:
                _check_block(branch, owner, signals, variables, errors)


def _block_has_accept(body: tuple[Node, ...]) -> bool:
    for node in body:
        if isinstance(node, AcceptEvent):
            return True
        if isinstance(node, Par) and any(_block_has_accept(b) for b in node.branches):
            return True
    return False


def _check_behavior_ref(name: Optional[str], role: str, owner: str, model: MachineModel,
                        activity_names: set[str], errors: list[ModelError],
                        span: Optional[SourceSpan], allow_accept: bool) -> None:
    if name is None:
        return
    if name not in activity_names:
        errors.append(ModelError("UnknownActivity", f"{role} behavior {name!r} of {owner!r} is not defined", span))
        return
    if not allow_accept and _block_has_accept(model.activity(name).body):
        errors.append(ModelError(
            "AcceptInBehavior",
            f"{role} behavior {name!r} of {owner!r} contains an accept node; "
            "only doActivities may wait for events", span))


def _check_region(region: Region, model: MachineModel, signals: set[str],
                  activity_names: set[str], seen_states: dict[str, Optional[SourceSpan]],
                  errors: list[ModelError]) -> None:
    names: dict[str, Vertex] = {}
    initial_count = 0
    for v in region.vertices:
        if isinstance(v, InitialPseudostate):
            initial_count += 1
            continue
        if v.name in names:
            errors.append(ModelError("DuplicateVertex", f"vertex {v.name!r} defined twice in region {region.name!r}", v.span))
        names[v.name] = v
        if v.name in seen_states:
            errors.append(ModelError("DuplicateVertex", f"state name {v.name!r} reused across regions", v.span))
        seen_states[v.name] = v.span
        if isinstance(v, State):
            _check_behavior_ref(v.entry, "entry", v.name, model, activity_names, errors, v.span, allow_accept=False)
            _check_behavior_ref(v.exit, "exit", v.name, model, activity_names, errors, v.span, allow_accept=False)
            _check_behavior_ref(v.do_activity, "do", v.name, model, activity_names, errors, v.span, allow_accept=True)
            for s in v.defer:
                if s not in signals:
                    errors.append(ModelError("UnknownSignal", f"deferred signal {s!r} on state {v.name!r}", v.span))
            for sub in v.regions:
                _check_region(sub, model, signals, activity_names, seen_states, errors)

    if initial_count == 0:
        errors.append(ModelError("MissingInitial", f"region {region.name!r} has no initial pseudostate", region.span))
    elif initial_count > 1:
        errors.append(ModelError("MultipleInitial", f"region {region.name!r} has {initial_count} initial pseudostates", region.span))

    initial_transitions = [t for t in region.transitions if t.is_initial]
    if initial_count == 1 and len(initial_transitions) != 1:
        errors.append(ModelError("MissingInitial", f"region {region.name!r} needs exactly one initial transition, found {len(initial_transitions)}", region.span))
    for t in initial_transitions:
        if t.trigger is not None or t.guard is not None:
            errors.append(ModelError("GuardOnInitial", f"initial transition {t.name!r} must have no trigger and no guard", t.span))

    dispatch_keys: set[tuple[str, Optional[str]]] = set()
    transition_names: set[str] = set()
    for t in region.transitions:
        if t.name in transition_names:
            errors.append(ModelError("DuplicateTransition", f"transition name {t.name!r} reused in region {region.name!r}", t.span))
        transition_names.add(t.name)
        if not t.is_initial:
            if t.source not in names:
                errors.append(ModelError("UnknownReference", f"transition {t.name!r} source {t.source!r} not in region {region.name!r}", t.span))
            elif isinstance(names[t.source], FinalState):
                errors.append(ModelError("TransitionFromFinal", f"transition {t.name!r} leaves final state {t.source!r}", t.span))
        if t.target not in names:
            errors.append(ModelError("UnknownReference", f"transition {t.name!r} target {t.target!r} not in region {region.name!r}", t.span))
        if t.kind is TransitionKind.INTERNAL:
            if t.source != t.target:
                errors.append(ModelError("BadInternal", f"internal transition {t.name!r} must stay on its state", t.span))
            if t.trigger is None:
                errors.append(ModelError("BadInternal", f"internal transition {t.name!r} needs a trigger", t.span))
        if t.trigger is not None and t.trigger not in signals:
            errors.append(ModelError("UnknownReference", f"transition {t.name!r} trigger {t.trigger!r} is not a declared signal", t.span))
        if t.guard is not None and t.guard.var not in model.variables:
            errors.append(ModelError("UnknownVariable", f"guard variable {t.guard.var!r} on transition {t.name!r}", t.span))
        _check_behavior_ref(t.effect, "effect", t.name, model, activity_names, errors, t.span, allow_accept=False)
        if not t.is_initial:
            key = (t.source, t.trigger)
            if key in dispatch_keys:
                what = f"on {t.trigger!r}" if t.trigger else "on completion"
                errors.append(ModelError("ConflictingTransitions", f"state {t.source!r} has two same-level transitions {what}", t.span))
            dispatch_keys.add(key)
