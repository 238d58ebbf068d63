"""Static analysis of doActivity usage.

Running an activity inside a state buys concurrency and pays for it in
scheduling sensitivity. Most of the ways this bites are visible in the model
structure alone: a doActivity that accepts a signal some transition also
wants, a completion transition on a state whose activity never terminates, a
deferred signal the activity will steal back mid run-to-completion step.

The linter classifies every state along a handful of structural axes, matches
eleven named usage patterns on top of them, and annotates each match with the
scheduling hazards known to apply, weighted by how hard they typically bite:

    important  - will produce schedule-dependent behavior in routine runs
    applicable - real in this shape, needs specific timing to surface
    slight     - technically possible, rarely the actual failure

A state can match several patterns at once; findings are deliberately
overlapping rather than folded together, because each pattern carries its own
explanation and its own hazard weighting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import model as M

# --- severity ---------------------------------------------------------------

IMPORTANT = "important"
APPLICABLE = "applicable"
SLIGHT = "slight"

_RANK = {IMPORTANT: 2, APPLICABLE: 1, SLIGHT: 0}


# --- issue registry -----------------------------------------------------------

ISSUES: dict[str, str] = {
    "lateStart": "the activity starts asynchronously; an event arriving right "
    "after entry can be processed before a single activity action has run",
    "concurrentInternalTransition": "internal transition effects interleave "
    "with activity actions; shared variables see both orders",
    "substateExpectsDoPartsFinished": "substate behavior can run before the "
    "parent activity has produced what the substate relies on",
    "concurrentSubstate": "substate transitions fire while the parent "
    "activity is still running",
    "loseEventWhileInDo": "signals arriving while the activity runs match no "
    "transition here and are discarded",
    "selfSignalReorder": "a self-sent signal goes through the event pool and "
    "can arrive behind or ahead of other occurrences",
    "lateAccepterReg": "an occurrence dispatched before the accept action "
    "registers is never offered to the activity",
    "smCompeteForEvents": "a transition trigger and an activity accept match "
    "the same signal; which one wins depends on scheduling",
    "deferredEventsPriority": "released deferred occurrences re-enter ahead "
    "of the pool, changing the apparent arrival order",
    "multipleEventsDeferred": "several deferred occurrences release together "
    "in deferral order; later handlers see a backlog",
    "deferOverridingTransition": "deferral only holds while no transition "
    "from the deferring state or below can fire; one enabled transition "
    "cancels it",
    "deferIsConfigSensitive": "whether the signal is deferred depends on "
    "which substates are active at that moment",
    "stealDeferredEvents": "a newly registered accepter takes matching "
    "deferred occurrences immediately, even during another event's "
    "run-to-completion step",
    "abortEvenBeforeRun": "an aborting event processed right after entry "
    "kills the activity before its first action",
    "abortDuringAction": "the activity can be aborted between any two "
    "actions, leaving partial effects",
    "doActivityForever": "if the activity never terminates, the completion "
    "transition never fires",
    "abortWithoutWaitPoint": "aborting an activity parked at an accept "
    "discards the wait; an already routed occurrence is lost",
    "completionNeedsRegionInFinalState": "completion of a composite also "
    "requires every region to reach a final state, not just the activity "
    "to finish",
}


# --- the pattern catalogue ------------------------------------------------------


@dataclass(frozen=True)
class Pattern:
    """One usage pattern: the states it matches, the hazards that apply there
    with how hard they usually bite, and longer-form guidance."""

    applies: Callable[[StateAxes], bool]
    hazards: tuple[tuple[str, str], ...]  # (issue, severity), in report order
    explanation: str


# A state's findings come in this order.
PATTERNS: dict[str, Pattern] = {
    "doInSimpleState": Pattern(
        applies=lambda a: (
            a.top_level
            and a.simple
            and a.has_do
            and not a.accepts
            and not (a.self_sends & a.outgoing_triggers)
            and bool(a.outgoing_triggers)
            and not a.has_completion_out
        ),
        hazards=(
            ("lateStart", IMPORTANT),
            ("abortEvenBeforeRun", IMPORTANT),
            ("abortDuringAction", IMPORTANT),
        ),
        explanation=(
            "A simple state runs background work while ordinary triggered "
            "transitions can leave it at any time. The activity starts only "
            "after entry finishes and dies the moment a transition fires, so "
            "there is no point in its body it is guaranteed to reach. Anything "
            "the rest of the model relies on must not live only inside this "
            "activity."
        ),
    ),
    "doWithCompletionTransition": Pattern(
        applies=lambda a: a.top_level and a.simple and a.has_do and not a.accepts and a.has_completion_out,
        hazards=(
            ("loseEventWhileInDo", IMPORTANT),
            ("deferredEventsPriority", SLIGHT),
            ("multipleEventsDeferred", SLIGHT),
            ("abortEvenBeforeRun", SLIGHT),
            ("abortDuringAction", SLIGHT),
            ("doActivityForever", IMPORTANT),
        ),
        explanation=(
            "The state is left via a completion transition when its activity "
            "finishes. Until then, arriving signals are dispatched against a "
            "state that has no triggered exits: they are dropped. If the "
            "activity can fail to terminate, the state never completes. Consider "
            "deferring the signals the state should survive, and make sure the "
            "activity provably ends."
        ),
    ),
    "doWithSelfSignaling": Pattern(
        applies=lambda a: (
            a.top_level
            and a.simple
            and a.has_do
            and not a.accepts
            and bool(a.self_sends & a.outgoing_triggers)
        ),
        hazards=(
            ("selfSignalReorder", IMPORTANT),
            ("deferredEventsPriority", SLIGHT),
            ("multipleEventsDeferred", SLIGHT),
            ("abortEvenBeforeRun", SLIGHT),
            ("abortDuringAction", SLIGHT),
        ),
        explanation=(
            "The activity signals its own machine to drive a transition. The "
            "self-sent occurrence is delivered through the pool like any other "
            "event, so it races whatever else the environment injects; the "
            "transition may fire later than the send, after other events have "
            "been processed, or find the machine in a different state."
        ),
    ),
    "doWithInternalTransition": Pattern(
        applies=lambda a: a.top_level and a.simple and a.has_do and bool(a.internal_triggers),
        hazards=(
            ("lateStart", APPLICABLE),
            ("concurrentInternalTransition", IMPORTANT),
            ("substateExpectsDoPartsFinished", APPLICABLE),
            ("abortEvenBeforeRun", SLIGHT),
            ("abortDuringAction", SLIGHT),
        ),
        explanation=(
            "Internal transitions do not stop the activity, which is usually "
            "the point, but their effects run interleaved with the activity's "
            "own actions. If both touch the same variables, every interleaving "
            "is a possible outcome. Keep the effect and the activity on "
            "disjoint data or accept the races."
        ),
    ),
    "doAcceptingEvents": Pattern(
        applies=lambda a: a.simple and a.has_do and bool(a.accepts) and not (a.defers & a.accepts),
        hazards=(
            ("lateStart", APPLICABLE),
            ("lateAccepterReg", IMPORTANT),
            ("smCompeteForEvents", IMPORTANT),
            ("abortEvenBeforeRun", APPLICABLE),
            ("abortDuringAction", APPLICABLE),
            ("abortWithoutWaitPoint", IMPORTANT),
        ),
        explanation=(
            "The activity waits for signals itself. The wait point only exists "
            "once the accept action runs, so early occurrences pass it by, and "
            "any transition triggered by the same signal competes with the "
            "accept for each occurrence. Aborting the state while the activity "
            "is parked at the accept silently drops the wait."
        ),
    ),
    "doAcceptWithDefer": Pattern(
        applies=lambda a: a.simple and a.has_do and bool(a.accepts) and bool(a.defers & a.accepts),
        hazards=(
            ("lateStart", APPLICABLE),
            ("lateAccepterReg", APPLICABLE),
            ("smCompeteForEvents", APPLICABLE),
            ("deferredEventsPriority", IMPORTANT),
            ("multipleEventsDeferred", IMPORTANT),
            ("deferOverridingTransition", IMPORTANT),
            ("deferIsConfigSensitive", SLIGHT),
            ("abortEvenBeforeRun", APPLICABLE),
            ("abortDuringAction", APPLICABLE),
            ("abortWithoutWaitPoint", SLIGHT),
        ),
        explanation=(
            "Deferring the accepted signal closes the early-arrival gap: "
            "occurrences that would have been lost wait in the deferred pool "
            "and the accept takes them from there. The cost is priority "
            "inversion: deferred occurrences outrank fresh ones on release, and "
            "any transition on the same signal cancels the deferral entirely."
        ),
    ),
    "doInCompositeParent": Pattern(
        applies=lambda a: a.composite and a.has_do,
        hazards=(
            ("lateStart", APPLICABLE),
            ("concurrentInternalTransition", APPLICABLE),
            ("substateExpectsDoPartsFinished", IMPORTANT),
            ("concurrentSubstate", IMPORTANT),
            ("lateAccepterReg", SLIGHT),
            ("smCompeteForEvents", SLIGHT),
            ("abortEvenBeforeRun", SLIGHT),
            ("abortDuringAction", SLIGHT),
            ("abortWithoutWaitPoint", SLIGHT),
            ("completionNeedsRegionInFinalState", IMPORTANT),
        ),
        explanation=(
            "The composite's activity runs beside everything its regions do. "
            "Substates cannot assume any part of the parent activity has "
            "happened, and the composite only completes when the activity "
            "finishes AND every region reaches a final state; forgetting the "
            "final state leaves the machine waiting forever."
        ),
    ),
    "doInSubstate": Pattern(
        applies=lambda a: a.nested and a.has_do,
        hazards=(
            ("lateStart", APPLICABLE),
            ("lateAccepterReg", SLIGHT),
            ("smCompeteForEvents", APPLICABLE),
            ("abortEvenBeforeRun", APPLICABLE),
            ("abortDuringAction", APPLICABLE),
            ("abortWithoutWaitPoint", SLIGHT),
            ("completionNeedsRegionInFinalState", SLIGHT),
        ),
        explanation=(
            "The activity lives in a nested state, so both the local region and "
            "every ancestor transition can abort it; the set of events that can "
            "kill the work is larger than the state's own outgoing transitions "
            "suggests."
        ),
    ),
    "multipleDoActivities": Pattern(
        applies=lambda a: a.composite and a.has_do and bool(a.descendant_do),
        hazards=(
            ("lateStart", SLIGHT),
            ("substateExpectsDoPartsFinished", APPLICABLE),
            ("concurrentSubstate", APPLICABLE),
            ("lateAccepterReg", APPLICABLE),
            ("smCompeteForEvents", APPLICABLE),
            ("abortEvenBeforeRun", SLIGHT),
            ("abortDuringAction", SLIGHT),
            ("abortWithoutWaitPoint", SLIGHT),
            ("completionNeedsRegionInFinalState", APPLICABLE),
        ),
        explanation=(
            "Parent and descendant activities run concurrently with each other "
            "and with the regions. Orderings between the two activity bodies "
            "are completely unconstrained; any shared signal or variable is a "
            "race. Exits abort inner activities first, parents last."
        ),
    ),
    "compositeDeferAndAccept": Pattern(
        applies=lambda a: a.composite and a.has_do and bool(a.defers & a.accepts),
        hazards=(
            ("lateStart", SLIGHT),
            ("substateExpectsDoPartsFinished", APPLICABLE),
            ("concurrentSubstate", APPLICABLE),
            ("lateAccepterReg", APPLICABLE),
            ("smCompeteForEvents", SLIGHT),
            ("deferredEventsPriority", APPLICABLE),
            ("multipleEventsDeferred", SLIGHT),
            ("deferOverridingTransition", APPLICABLE),
            ("deferIsConfigSensitive", IMPORTANT),
            ("stealDeferredEvents", IMPORTANT),
            ("abortEvenBeforeRun", SLIGHT),
            ("abortDuringAction", SLIGHT),
            ("abortWithoutWaitPoint", SLIGHT),
            ("completionNeedsRegionInFinalState", SLIGHT),
        ),
        explanation=(
            "The composite defers a signal its own activity accepts. Whether an "
            "occurrence is deferred depends on the active substates at dispatch "
            "time, and once the accept registers it takes deferred occurrences "
            "immediately, even in the middle of another event's "
            "run-to-completion step. Behavior is very sensitive to timing; "
            "model with care."
        ),
    ),
    "doInOrthogonalRegions": Pattern(
        applies=lambda a: a.has_do and a.region_count >= 2,
        hazards=(
            ("lateStart", SLIGHT),
            ("substateExpectsDoPartsFinished", APPLICABLE),
            ("concurrentSubstate", APPLICABLE),
            ("lateAccepterReg", APPLICABLE),
            ("smCompeteForEvents", SLIGHT),
            ("abortEvenBeforeRun", SLIGHT),
            ("abortDuringAction", SLIGHT),
            ("abortWithoutWaitPoint", SLIGHT),
            ("completionNeedsRegionInFinalState", APPLICABLE),
        ),
        explanation=(
            "The activity runs beside two or more orthogonal regions. Region "
            "moves and activity actions interleave freely, and completion "
            "requires all regions to reach final states while the activity also "
            "finishes. The region count multiplies the schedule space."
        ),
    ),
}


# --- structural axes ----------------------------------------------------------


@dataclass(frozen=True)
class StateAxes:
    """Everything the pattern predicates need to know about one state."""

    nested: bool                   # lives inside another state
    region_count: int
    has_do: bool
    accepts: frozenset[str]        # signals the doActivity accepts
    defers: frozenset[str]
    self_sends: frozenset[str]     # signals the doActivity sends to self
    outgoing_triggers: frozenset[str]
    internal_triggers: frozenset[str]
    has_completion_out: bool
    descendant_do: tuple[str, ...]  # dotted paths of nested states with a do

    @property
    def composite(self) -> bool:
        return self.region_count > 0

    @property
    def simple(self) -> bool:
        return self.region_count == 0

    @property
    def top_level(self) -> bool:
        return not self.nested


def _activity_signals(model: M.MachineModel, name: Optional[str]) -> tuple[frozenset[str], frozenset[str]]:
    """The signals the activity `name` accepts, and those it sends to self."""
    body = model.activity(name).body if name is not None else ()
    accepts: set[str] = set()
    self_sends: set[str] = set()
    for node in M.walk_body(body):
        if isinstance(node, M.AcceptEvent):
            accepts.update(node.signals)
        elif isinstance(node, M.SendSignal) and not node.to_env:
            self_sends.add(node.signal)
    return frozenset(accepts), frozenset(self_sends)


def classify(model: M.MachineModel) -> dict[str, StateAxes]:
    """Structural axes for every state, keyed by dotted path."""
    axes: dict[str, StateAxes] = {}

    def walk_region(region: M.Region, prefix: str, nested: bool) -> list[str]:
        """Returns dotted paths of do-carrying states in this subtree."""
        rpath = f"{prefix}{region.name}"
        do_paths: list[str] = []
        for v in region.vertices:
            if not isinstance(v, M.State):
                continue
            path = f"{rpath}.{v.name}"
            inner_do: list[str] = []
            for sub in v.regions:
                inner_do.extend(walk_region(sub, f"{path}.", True))
            outgoing: set[str] = set()
            internal: set[str] = set()
            completion_out = False
            for t in region.transitions:
                if t.is_initial or t.source != v.name:
                    continue
                if t.kind is M.TransitionKind.INTERNAL:
                    if t.trigger:
                        internal.add(t.trigger)
                elif t.kind is M.TransitionKind.COMPLETION:
                    completion_out = True
                elif t.trigger:
                    outgoing.add(t.trigger)
            accepts, self_sends = _activity_signals(model, v.do_activity)
            axes[path] = StateAxes(
                nested=nested,
                region_count=len(v.regions),
                has_do=v.do_activity is not None,
                accepts=accepts,
                defers=frozenset(v.defer),
                self_sends=self_sends,
                outgoing_triggers=frozenset(outgoing),
                internal_triggers=frozenset(internal),
                has_completion_out=completion_out,
                descendant_do=tuple(inner_do),
            )
            if v.do_activity is not None:
                do_paths.append(path)
            do_paths.extend(inner_do)
        return do_paths

    for region in model.regions:
        walk_region(region, "", False)
    return axes


# --- findings ----------------------------------------------------------------


@dataclass(frozen=True)
class Issue:
    name: str
    severity: str

    @property
    def description(self) -> str:
        return ISSUES[self.name]


@dataclass(frozen=True)
class Finding:
    state: str                     # dotted path
    pattern: str
    issues: tuple[Issue, ...]

    def line(self) -> str:
        issues = ", ".join(f"{i.name}({i.severity[0]})" for i in self.issues)
        return f"{self.state}: {self.pattern} -> {issues}"


def lint(model: M.MachineModel, severity: str = APPLICABLE) -> list[Finding]:
    """Every (state, pattern) match whose hazard list is non-empty at the
    given severity threshold. `severity` names the *weakest* level included:
    "important" reports only the hard-hitting hazards, "slight" everything."""
    if severity not in _RANK:
        raise ValueError(f"unknown severity {severity!r}")
    floor = _RANK[severity]
    findings = []
    for path, a in sorted(classify(model).items()):
        for name, pattern in PATTERNS.items():
            if not pattern.applies(a):
                continue
            issues = tuple(
                Issue(iname, sev) for iname, sev in pattern.hazards if _RANK[sev] >= floor
            )
            if issues:
                findings.append(Finding(path, name, issues))
    return findings


def explain(pattern: str) -> str:
    """Longer-form guidance for one pattern name."""
    return PATTERNS[pattern].explanation
