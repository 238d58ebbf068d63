"""Exhaustive exploration of scheduling choices.

One scenario, one machine, every schedule: the explorer walks the tree of
enabled micro-steps depth-first and shares identical futures. A node is a
runtime state (configuration, pools, threads, variables — everything
behavior-relevant), a scenario index and the path length in records. Paths
that reach the same node have the same continuations, step bound included,
so the tree collapses into a DAG and pruning is lossless: counts and
observable classes are exact and do not depend on the order of the walk.
Every edge adds a record, so the DAG has no cycle, and a state reached at
several path lengths is a node per length. The step bound counts records
per schedule, forced scenario injections included (they sit inside edge
record lists but never fork the DAG), as `run` does; like `run`, the bounds
cut only where a step is still enabled.

The DAG is flat int arrays, as in SPIN's compact state storage. The walk
numbers nodes as they finish, so ids are a topological order (children
first, the root last), and stores a node's edges then, side by side: node
n's edges are `first[n]` up to `first[n + 1]`, edge i leads to `child[i]` by
the label `labels[label[i]]`, and `terminal[n]` is 1 at a terminal node. A
label is a `(records, obs)` pair: the edge's records (the step's, then any
forced injections) and their observables, one per distinct record list and
shared by every edge that has it. `explore` hands `K.enabled_steps`,
`K.apply` and `K.inject` one table for the walk (see the kernel's module
docstring). In it each distinct thread's step group, each distinct do
thread step's successor thread and each distinct record is built once,
except the steps of a do thread with a registered wait point while the
deferred pool is not empty, which are built afresh. So labels are looked up
by their records' identities, and the memo key's `threads` component mostly
reads the hashes its shared threads keep. These tables are local to the
walk. `TraceSet.nodes` builds `Node` and `Edge` objects from the arrays on
first read, for readers outside this module; no query reads it.

A node's memo key packs small ints into one `bytes`: one id per compared
`RuntimeState` field, then the scenario index and the depth. One table local
to the walk gives each distinct component value (by `==`) the next id, so
the memo holds one object per distinct value: SPIN's collapse compression
(Holzmann, "State compression in SPIN", 1997). A component the step left
identical (`is`) to the parent's keeps the parent's id, so only changed
components are hashed. Two keys are equal exactly when the states' `key()`
tuples are; hash compaction or bitstate hashing would store less, but would
let two states share a key now and then and lose the exact counts.

Every query runs on three iterative passes, so no depth of the DAG can
exhaust the interpreter's stack: `_count(monitor)`, the exact number of
complete traces a monitor accepts, one pass from the root down over the
product of the DAG and the monitor's states; `_accepted(monitor)`, the
complete record paths it accepts in canonical edge order (the order the
kernel enabled them), never entering again a (node, state) pair that led to
no accepted path; and `_class_witnesses(seqs)`, below. A monitor is a triple
`(start, step, accept)`: the state at the root, `step(state, label)` giving
the state after an edge with that label (None rejects every path through
it), and `accept(state)`, judged at a terminal node. `total`, the discard
count and the `eventually-active` and `never-discards` expectations are
monitors, whose witness and counterexample are the first passing and the
first failing path. S becomes active exactly on an `EnterState` record
whose `state` is S's dotted path.

`partition` runs on the DAG's observational quotient, which merges nodes
whose complete traces below emit equal multisets of observable sequences:
a class is keyed by whether the node is terminal and the sorted (obs, child
class) pairs of its edges, computed children first, and a node whose only
way on is one silent edge has its child's (`s3`: 3,381 classes for 38,674
nodes). Silent edges are removed once per class (Mohri, "Generic
epsilon-removal and input epsilon-normalization algorithms for weighted
transducers", 2002): a class's row counts its silent paths to a terminal
class and, per obs and class d, those that end in an edge emitting obs into
d. The classes come from a depth-first walk over the observable prefixes,
the weighted subset construction done on the fly (Mohri, "Finite-state
transducers in language and speech processing", 1997): a prefix's frontier
maps each class to the paths that read the prefix to it, and the rows give
its count and, grouped by obs, the next frontiers, pushed in reverse order
so that the prefixes come out sorted (an edge emits at most one obs).

Class witnesses serve a capped `traces` (one call for all its classes),
`find_trace`, and the `emits` expectation, whose witness and counterexample
are the first path of the first class (in `partition` order) on that side.
For each `seq`, the search finds the first complete path in canonical edge
order whose observables are exactly `seq`. It follows only edges whose obs
is empty or the next entry of `seq`, into children that have a quotient
class. A dead end is a fact about a (class, suffix) pair, not only about the
node and the sequence it was found for: the nodes of one class have equal
observable futures. So the search enters each (class, suffix) pair it left
without a path from no node again, for every sequence of the call; a
suffix's id comes from a table, local to the call, keyed by (its first obs,
the id of the rest).

Observable equivalence: two complete traces are in the same class when their
sequences of environment sends (signal plus emitting root region) are equal.
The normalized view projects each trace onto its root regions separately and
compares the per-region sequences instead, which identifies traces that
differ only in how independent regions' outputs interleave.
"""

from __future__ import annotations

from array import array
from struct import Struct
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Union

from . import model as M
from . import scenario as S
from .engine import kernel as K
from .engine.driver import advance_scenario
from .engine.kernel import ModelIndex
from .engine.state import RuntimeState, dotted
from .trace import Record, Trace


@dataclass(frozen=True)
class ExploreBounds:
    max_micro_steps: int = 200     # records per path, injections included
    max_traces: int = 10000        # materialization cap
    max_pool: int = 64             # combined occupancy of all pools

    def __post_init__(self) -> None:
        # a negative cap would slice `traces` from the end, and a negative
        # bound would cut every schedule at its first step
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"ExploreBounds.{f.name} must not be negative, got {getattr(self, f.name)}")


@dataclass(frozen=True, slots=True)
class Edge:  # of the `TraceSet.nodes` view, as `Node` is
    records: tuple[Record, ...]    # the step's record plus any forced injections
    child: int
    obs: tuple[tuple[str, str], ...]  # at most one: injections emit nothing, and `partition` relies on it


@dataclass(frozen=True, slots=True)
class Node:
    edges: tuple[Edge, ...] = ()   # none at leaves: terminal, deadlocked, truncated
    terminal: bool = False         # no enabled steps, scenario finished


@dataclass
class ExploreStats:
    nodes: int = 0
    edges: int = 0
    deadlocks: int = 0
    truncated: int = 0             # nodes cut by the step or pool bound
    discard_traces: int = 0        # complete traces containing a DiscardEvent


@dataclass(frozen=True)
class ExpectationVerdict:
    expectation: S.Expectation
    verdict: str                   # all | some | none
    witness: Optional[Trace]
    counterexample: Optional[Trace]

    @property
    def ok(self) -> bool:
        return self.verdict == "all"


if TYPE_CHECKING:  # aliases for annotations only
    Obs = tuple[tuple[str, str], ...]
    Label = tuple[tuple[Record, ...], Obs]  # an edge's records and their observables
    Monitor = tuple[Any, Callable[[Any, Label], Any], Callable[[Any], bool]]  # start, step, accept
    Paths = dict[Obs, dict[int, int]]  # obs -> class id -> paths

_EVERY: Monitor = (True, lambda s, e: s, lambda s: True)


def _merge(into: Paths, paths: Paths, w: int) -> None:
    """Adds `w` times each path count of `paths` into `into`."""
    for obs, dests in paths.items():
        acc = into.setdefault(obs, {})
        for c, m in dests.items():
            acc[c] = acc.get(c, 0) + w * m


def _flag_monitor(hit: Callable[[Label], bool], want: bool) -> Monitor:
    """Whether `hit` held on some followed edge's label; accepts the paths
    where that equals `want`."""
    return False, (lambda s, lab: s or hit(lab)), (lambda s: s == want)


def _discards(lab: Label, prefix: str = "") -> bool:
    """Whether the edge discards an occurrence whose brief starts with `prefix`."""
    return any(
        r.kind == "DiscardEvent" and str(dict(r.payload).get("occ", "")).startswith(prefix)
        for r in lab[0]
    )


def _enters(lab: Label, state: str) -> bool:
    """Whether the edge makes the state with dotted path `state` active."""
    return any(r.kind == "EnterState" and dict(r.payload).get("state") == state for r in lab[0])


@dataclass(eq=False, repr=False)
class TraceSet:
    """The result of one exploration: a trace DAG plus the queries the rest
    of the toolchain needs (counts, classes, witnesses, expectation checks).

    `traces` materializes every complete trace when the exact total fits the
    bound, so partition counts sum to len(traces); otherwise
    `truncated_traces` is set and it holds the class witnesses of the first
    `max_traces` observable classes, in `partition` order."""

    ctx: ModelIndex
    scenario: Optional[S.Scenario]
    bounds: ExploreBounds
    first: array                   # the DAG's arrays: see the module docstring
    child: array
    label: array
    terminal: bytearray
    labels: list[Label]
    root_records: tuple[Record, ...]
    stats: ExploreStats

    @property
    def root(self) -> int:
        return len(self.terminal) - 1

    @cached_property
    def nodes(self) -> list[Node]:
        """The DAG as `Node` and `Edge` objects, built on first read for
        readers outside this module; no query reads it."""
        first, child, label, labels = self.first, self.child, self.label, self.labels
        edges = [Edge(labels[label[i]][0], child[i], labels[label[i]][1]) for i in range(len(child))]
        return [Node(tuple(edges[first[nid] : first[nid + 1]]), bool(t)) for nid, t in enumerate(self.terminal)]

    # -- the generic queries -------------------------------------------------

    def _count(self, monitor: Monitor) -> int:
        """Exact number of complete traces `monitor` accepts. Nodes are
        numbered children first, so in reverse each node's row (monitor state
        -> paths from the root) is whole when it is read, and freed then."""
        start, step, accept = monitor
        first, child, label, labels, terminal = self.first, self.child, self.label, self.labels, self.terminal
        rows: dict[int, dict[Any, int]] = {self.root: {start: 1}}
        count = 0
        for nid in reversed(range(len(terminal))):
            row = rows.pop(nid)  # the root's, or filled in by an edge into the node
            if terminal[nid]:
                count += sum(cnt for s, cnt in row.items() if accept(s))
            for i in range(first[nid], first[nid + 1]):  # none at leaves: terminal, deadlocked, truncated
                below = rows.setdefault(child[i], {})
                lab = labels[label[i]]
                for s, cnt in row.items():
                    s2 = step(s, lab)
                    if s2 is not None:
                        below[s2] = below.get(s2, 0) + cnt
        return count

    def _accepted(self, monitor: Monitor) -> Iterator[tuple[Record, ...]]:
        """Record paths of the complete traces `monitor` accepts, in
        canonical edge order."""
        start, step, accept = monitor
        first, child, label, labels, terminal = self.first, self.child, self.label, self.labels, self.terminal
        root, path = self.root, list(self.root_records)
        if terminal[root]:
            if accept(start):
                yield tuple(path)
            return
        dead: set[tuple[int, Any]] = set()
        # frame: node id, monitor state, edge iterator, path length, yielded
        stack = [[root, start, iter(range(first[root], first[root + 1])), len(path), False]]
        while stack:
            frame = stack[-1]
            _, s, edges, mark, _ = frame
            for i in edges:
                lab, c = labels[label[i]], child[i]
                s2 = step(s, lab)
                if s2 is None or (c, s2) in dead:
                    continue
                del path[mark:]
                path.extend(lab[0])
                if not terminal[c]:
                    stack.append([c, s2, iter(range(first[c], first[c + 1])), len(path), False])
                    break
                if accept(s2):
                    frame[4] = True
                    yield tuple(path)
            else:
                stack.pop()
                if not frame[4]:
                    dead.add((frame[0], s))
                elif stack:
                    stack[-1][4] = True

    def _class_witnesses(self, seqs: Iterable[Obs]) -> Iterator[Trace]:
        """The class witness of each `seq` of `seqs` (keys of `partition`),
        with dead ends shared by all of them; see the module docstring."""
        first, child, label, labels, terminal = self.first, self.child, self.label, self.labels, self.terminal
        cls, root = self._class_of, self.root
        width = len(cls)  # the dead end (class c, suffix id s) is s * width + c
        # (first obs, id of the rest) -> id, () being 0; -1 if it ends no dead end
        suffixes: dict[tuple[tuple[str, str], int], int] = {}
        dead: set[int] = set()
        for seq in seqs:
            n = len(seq)
            sids = [-1] * n + [0]  # sids[pos]: the id of seq[pos:]
            for pos in reversed(range(n)):
                sids[pos] = suffixes.get((seq[pos], sids[pos + 1]), -1)
            path = list(self.root_records)
            found = terminal[root] and not seq  # else a terminal root, with no edges, is a dead end
            # frame: class, position in seq, edge iterator, path length
            stack = [(cls[root], 0, iter(range(first[root], first[root + 1])), len(path))]
            while stack and not found:
                c, pos, edges, mark = stack[-1]
                for i in edges:
                    d = cls[nid := child[i]]
                    if d is None:
                        continue
                    records, obs = labels[label[i]]
                    at = pos
                    if obs:
                        if pos == n or obs[0] != seq[pos]:
                            continue
                        at += 1
                    if sids[at] * width + d in dead:  # never with sids[at] == -1
                        continue
                    del path[mark:]
                    path.extend(records)
                    if not terminal[nid]:
                        stack.append((d, at, iter(range(first[nid], first[nid + 1])), len(path)))
                        break
                    if at == n:
                        found = True
                        break
                else:
                    stack.pop()
                    if sids[pos] < 0:  # the suffix gets an id, and so do its own suffixes
                        for k in reversed(range(pos, n)):
                            sids[k] = suffixes.setdefault((seq[k], sids[k + 1]), len(suffixes) + 1)
                    dead.add(sids[pos] * width + c)
            if not found:
                raise ValueError(f"no complete trace emits {seq}")
            yield self._mk_trace(tuple(path))

    # -- counting ----------------------------------------------------------

    @cached_property
    def total(self) -> int:
        return self._count(_EVERY)

    # -- observable classes --------------------------------------------------

    @cached_property
    def _class_of(self) -> list[Optional[int]]:
        """DAG node id -> quotient class id (None: no complete trace below),
        class ids numbered as first met, children first; see the module docstring."""
        cls: list[Optional[int]] = [None] * len(self.terminal)
        ids: dict[tuple, int] = {}  # class key -> class id
        for nid, terminal in enumerate(self.terminal):
            pairs = self._pairs(nid, cls)
            if len(pairs) == 1 and not pairs[0][0]:  # one silent way on: the child's future
                cls[nid] = pairs[0][1]
            elif pairs or terminal:  # else no complete trace below: no class
                cls[nid] = ids.setdefault((terminal, tuple(pairs)), len(ids))
        return cls

    def _pairs(self, nid: int, cls: list[Optional[int]]) -> list[tuple[Obs, int]]:
        """The sorted (obs, child class) pairs of the node's edges into
        children that have a quotient class."""
        child, label, labels = self.child, self.label, self.labels
        out = range(self.first[nid], self.first[nid + 1])
        return sorted((labels[label[i]][1], cls[child[i]]) for i in out if cls[child[i]] is not None)

    def _quotient(self) -> list[tuple[int, Paths]]:
        """The DAG's observational quotient with its silent edges removed (see
        the module docstring): one row `(ends, {obs: {class: paths}})` per
        class, numbered children first with the root's class last, each built
        at the first node of its class. Empty when no complete trace exists."""
        cls = self._class_of
        rows: list[tuple[int, Paths]] = []
        for nid, terminal in enumerate(self.terminal):
            if cls[nid] != len(rows):  # no class, or one with a row already
                continue
            pairs = self._pairs(nid, cls)
            paths: Paths = {}
            for obs, child in pairs:  # a silent pair takes the child's row, built already
                _merge(paths, {obs: {child: 1}} if obs else rows[child][1], 1)
            rows.append((terminal + sum(rows[d][0] for obs, d in pairs if not obs), paths))
        root = cls[self.root]
        return [] if root is None else rows[: root + 1]  # later classes are not below the root

    def _classes(self) -> Iterator[tuple[tuple[tuple[str, str], ...], int]]:
        """Each class's (sequence, count), sorted: the module docstring's prefix walk."""
        rows = self._quotient()
        stack = [((), {len(rows) - 1: 1})] if rows else []
        while stack:
            prefix, frontier = stack.pop()  # class id -> paths that read prefix
            count = sum(w * rows[c][0] for c, w in frontier.items())
            nexts: Paths = {}
            for c, w in frontier.items():
                _merge(nexts, rows[c][1], w)
            if count:
                yield prefix, count
            stack.extend((prefix + obs, nexts[obs]) for obs in sorted(nexts, reverse=True))

    @cached_property
    def partition(self) -> dict[tuple[tuple[str, str], ...], int]:
        """Exact count of complete traces per observable sequence, in sorted order."""
        return dict(self._classes())

    def _project(self, key: Callable[[tuple[tuple[str, str], ...]], tuple]) -> dict[tuple, int]:
        """The partition's counts summed per `key(sequence)`, in sorted order."""
        out: dict[tuple, int] = {}
        for seq, cnt in self.partition.items():
            k = key(seq)
            out[k] = out.get(k, 0) + cnt
        return dict(sorted(out.items()))

    def signal_partition(self) -> dict[tuple[str, ...], int]:
        """Classes keyed by signal sequence only (region dropped)."""
        return self._project(lambda seq: tuple(sig for sig, _ in seq))

    def normalized_partition(self) -> dict[tuple, int]:
        """Classes after projecting observations onto their root regions:
        interleavings of independent regions' outputs collapse together."""
        return self._project(lambda seq: tuple(
            (region, tuple(sig for sig, r in seq if r == region))
            for region in sorted({region for _, region in seq})
        ))

    # -- materialization ------------------------------------------------------

    def _mk_trace(self, records: tuple[Record, ...]) -> Trace:
        scenario = self.scenario.name if self.scenario else ""
        return Trace(records, model=self.ctx.model.name, scenario=scenario, strategy="explore")

    @cached_property
    def truncated_traces(self) -> bool:
        return self.total > self.bounds.max_traces

    @cached_property
    def traces(self) -> tuple[Trace, ...]:
        if not self.truncated_traces:
            return tuple(self._mk_trace(p) for p in self._accepted(_EVERY))
        return tuple(self._class_witnesses(islice(self.partition, self.bounds.max_traces)))

    def find_trace(self, signals: tuple[str, ...]) -> Optional[Trace]:
        """Witness whose env-send signal sequence equals `signals` exactly
        (emitting region ignored)."""
        for seq in self.partition:
            if tuple(sig for sig, _ in seq) == signals:
                return next(self._class_witnesses((seq,)))
        return None

    # -- expectation checking ---------------------------------------------

    def check(self, expectation: S.Expectation) -> ExpectationVerdict:
        """Judges `expectation` by the number of complete traces that meet
        it. The witness is the first path, in canonical edge order, that
        meets it, and the counterexample the first that does not: among all
        paths for `eventually-active` and `never-discards`, and for `emits`
        among those of the first observable class (in `partition` order) on
        that side."""
        exp = expectation
        if isinstance(exp, S.Emits):
            hit = {seq: tuple(sig for sig, _ in seq) == exp.signals for seq in self.partition}
            good = sum(cnt for seq, cnt in self.partition.items() if hit[seq])

            def first(ok: bool) -> Trace:  # the first observable class on that side
                return next(self._class_witnesses((next(seq for seq in hit if hit[seq] == ok),)))

        else:
            if isinstance(exp, S.EventuallyActive):
                target = dotted(self.ctx.model.state_refs[exp.state])

                def monitor(ok: bool) -> Monitor:  # at the root nothing is active yet
                    return _flag_monitor(lambda e: _enters(e, target), ok)

            else:
                assert isinstance(exp, S.NeverDiscards)
                prefix = exp.signal + "#"

                def monitor(ok: bool) -> Monitor:
                    return _flag_monitor(lambda e: _discards(e, prefix), not ok)

            good = self._count(monitor(True))

            def first(ok: bool) -> Trace:
                return self._mk_trace(next(self._accepted(monitor(ok))))

        if good == 0:
            verdict = "none"
        elif good == self.total and not self.stats.truncated:
            verdict = "all"
        else:
            verdict = "some"
        witness = first(True) if good else None
        counter = first(False) if good < self.total else None
        return ExpectationVerdict(exp, verdict, witness, counter)

    def check_all(self) -> list[ExpectationVerdict]:
        if self.scenario is None:
            return []
        return [self.check(e) for e in self.scenario.expectations]


# --- the builder -------------------------------------------------------------


def explore(
    source: Union[M.MachineModel, ModelIndex],
    scenario: Optional[S.Scenario] = None,
    bounds: Optional[ExploreBounds] = None,
) -> TraceSet:
    """Walk every schedule of `scenario` on the machine."""
    ctx = source if isinstance(source, ModelIndex) else K.build_index(source)
    bnd = bounds or ExploreBounds()
    first, child, label, terminal = array("I", [0]), array("I"), array("I"), bytearray()
    keymap: dict[bytes, int] = {}
    # a key is one 4-byte unsigned int per `key()` component (a compared
    # field), then idx and depth: exact for every value below 2**32, and
    # struct raises rather than wrap a larger one
    pack = Struct(f"={sum(f.compare for f in fields(RuntimeState)) + 2}I").pack
    comp_ids: dict[Any, int] = {}  # component value -> id, one id per == class
    labels: list[Label] = []
    label_ids: dict[tuple[int, ...], int] = {}  # the ids of a label's records -> label id
    observed: dict[Obs, Obs] = {}  # one shared tuple per distinct obs
    made: dict = {}  # the kernel's table for this walk: step groups, successor threads, records
    stats = ExploreStats()
    scn_len = len(scenario.steps) if scenario else 0
    # frames of the nodes being expanded: memo key, its component ids, state
    # components, state, scenario index, depth (records on the path), step
    # iterator, the edges so far as child and label ids in a row, and the
    # label of the edge from the frame below
    stack: list[tuple] = []

    def finish(key: bytes, edges: list[int], term: bool, lab: Optional[int]) -> None:
        """Numbers a finished new node, children before parents so that the
        root is last, stores its edges and links it by `lab` to the frame on
        top of the stack."""
        child.extend(edges[::2])
        label.extend(edges[1::2])
        first.append(len(child))
        terminal.append(term)
        keymap[key] = len(terminal) - 1
        if stack:
            stack[-1][7].extend((len(terminal) - 1, lab))

    def visit(st: RuntimeState, idx: int, depth: int, lab: Optional[int]) -> None:
        """The node of (st, idx, depth), reached by `lab`; a new node with
        steps goes on the stack, to be finished after its last child."""
        comps = st.key()
        if stack:  # a component the step left identical keeps the parent's id
            pids, pcomps = stack[-1][1:3]
            ids = [
                p if c is pc else comp_ids.setdefault(c, len(comp_ids))
                for c, pc, p in zip(comps, pcomps, pids)
            ]
        else:
            ids = [comp_ids.setdefault(c, len(comp_ids)) for c in comps]
        key = pack(*ids, idx, depth)
        nid = keymap.get(key)
        if nid is not None:  # never the root: the stack holds its parent
            stack[-1][7].extend((nid, lab))
            return
        stats.nodes += 1
        steps = K.enabled_steps(ctx, st, made)
        if steps and (depth >= bnd.max_micro_steps or st.pool_load() > bnd.max_pool):
            stats.truncated += 1
        elif steps:
            stack.append((key, ids, comps, st, idx, depth, iter(steps), [], lab))
            return
        elif idx < scn_len:
            stats.deadlocks += 1
        finish(key, [], not steps and idx >= scn_len, lab)

    boot_records: list[Record] = []
    st0, idx0 = advance_scenario(ctx, K.boot(ctx), scenario, 0, boot_records, made)
    visit(st0, idx0, len(boot_records), None)
    while stack:
        key, _, _, st, idx, depth, steps, edges, lab = stack[-1]
        step = next(steps, None)
        if step is None:
            stack.pop()
            finish(key, edges, False, lab)
            continue
        st2, rec = K.apply(ctx, st, step, made)
        recs = [rec]
        st3, idx2 = advance_scenario(ctx, st2, scenario, idx, recs, made)
        rids = tuple(map(id, recs))  # equal records are one object (see `made`)
        lab = label_ids.get(rids)
        if lab is None:
            obs = tuple(r.obs for r in recs if r.obs is not None)
            lab = label_ids[rids] = len(labels)
            labels.append((tuple(recs), observed.setdefault(obs, obs)))
        visit(st3, idx2, depth + len(recs), lab)
        stats.edges += 1

    result = TraceSet(ctx, scenario, bnd, first, child, label, terminal, labels, tuple(boot_records), stats)
    stats.discard_traces = result._count(_flag_monitor(_discards, True))
    return result
