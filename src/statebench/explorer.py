"""Exhaustive exploration of scheduling choices.

One scenario, one machine, every schedule: the explorer walks the tree of
enabled micro-steps depth-first and shares identical futures. A node is a
runtime state (configuration, pools, threads, variables — everything
behavior-relevant), a scenario index and the path length in records. Paths
that reach the same node have the same continuations, step bound included,
so the tree collapses into a DAG and pruning is lossless: counts and
observable classes are exact and do not depend on the order of the walk.
Every edge adds a record, so no edge leads back into the current path and
the DAG has no cycle. A state reached at several path lengths is a node per
length, so the DAG can be larger than the graph of runtime states.

The step bound counts records per schedule, forced scenario injections
included (they sit inside edge record lists but never fork the DAG), as
`run` does; like `run`, the bounds cut only where a step is still enabled.

An edge holds its label and its child. The label is the edge's records (the
step's record, then any forced injections) and their observables. Labels
repeat across the DAG far more than nodes do, so each walk keeps one
`(records, obs)` pair per distinct record list, which every edge with that
list shares, and one tuple per distinct obs. The sharing is exact (equal
values are interchangeable), and its tables are local to the walk, so no
cache outlives the result. Each distinct step record is built once per walk:
`explore` hands `K.apply` a table, local to the walk as well, of the records
rendered so far by their inputs, so equal step records are one object
(injections, which `inject` renders, are not in it).

A node's memo key is a flat tuple of small ints: one id per compared
`RuntimeState` field, then the scenario index and the depth. The ids come
from one table local to the walk that gives each distinct component value
(by `==`) the next id, so equal values get one id, and the memo holds one
object per distinct value, however many equal copies the walk builds. This
is SPIN's collapse compression (Holzmann, "State compression in SPIN",
1997). A step leaves most components of its state identical (`is`) to the
parent's, and those keep the parent's ids, so only the components the step
changed are hashed.
The key is exact: ids are a function of `==` classes, so two keys are equal
exactly when the states' `key()` tuples are, and the DAG is the one a key of
whole states would give. Hash compaction and bitstate hashing would store
less, but let two different states share a key now and then, and so lose the
exact counts.

Every query runs on four generic pieces, all iterative, so no depth of the
DAG can exhaust the interpreter's stack:

- the builder, `explore`: a depth-first walk on an explicit stack that
  numbers nodes as they finish, so ids are a topological order: every child
  comes before its parent, and the root is last;
- `TraceSet._count(monitor)`: the exact number of complete traces a monitor
  accepts, one pass over the product of the DAG and the monitor's states,
  from the root down, that frees each node's row once it is read;
- `TraceSet._accepted(monitor)`: the complete record paths a monitor
  accepts, in canonical edge order (each node's edges in the order the
  kernel enabled them). A (node, state) pair that led to no accepted path is
  never entered again;
- `TraceSet._class_witness(seq)`: the first complete path, in canonical edge
  order, whose observables are exactly `seq`, searched over the DAG by
  (quotient class, position in `seq`); see below.

A monitor is a triple `(start, step, accept)`: the state at the root,
`step(state, edge)` giving the state after a followed edge (None rejects the
edge and every path through it), and `accept(state)`, judged at a terminal
node. `total`, the discard count and the `eventually-active` and
`never-discards` expectations are monitors; for the two expectations the
witness and the counterexample are the first passing and the first failing
path. DAG nodes hold no runtime state, so `eventually-active S` is judged
from the records: S becomes active exactly on an `EnterState` record whose
`state` is S's dotted path.

`partition` runs on the DAG's observational quotient, which merges DAG nodes
whose complete traces below emit equal multisets of observable sequences. A
class is keyed by whether the node is terminal and by the sorted (obs, child
class) pairs of its edges, computed children first: nodes with equal keys
have equal multisets by induction, and a node whose only way on is one
silent edge has its child's. Merging is exact, so paths in the quotient
count what they count in the DAG, with far fewer nodes (`s3`: 3,381 classes
for 38,674 nodes). Silent edges are removed once per class (Mohri, "Generic
epsilon-removal and input epsilon-normalization algorithms for weighted
transducers", 2002): a class's row counts its silent paths to a terminal
class and, per obs and class d, those that end in an edge emitting obs into
d; a silent edge adds its child's row, built already. The classes come from
a depth-first walk over the observable prefixes, the weighted subset
construction done on the fly (Mohri, "Finite-state transducers in language
and speech processing", 1997). A prefix's frontier maps each class to the
paths that read the prefix to it; summed over it, the rows give the prefix's
count and, grouped by obs, the next frontiers. An edge emits at most one
observable, so pushing the groups in reverse order yields the prefixes in
sorted order. Every query that reads records (counts, flags, witnesses) runs
on the DAG.

Class witnesses answer one question for three callers: a capped `traces`,
`find_trace`, and the `emits` expectation, whose witness and counterexample
are the first path of the first observable class (in `partition` order) on
that side; that need not be the first path of that side in edge order.
`_class_witness(seq)` follows only edges whose obs is empty or the next entry
of `seq` (an edge emits at most one), and only into children that have a
quotient class: the others have no complete trace below. A dead end is a
fact about a (class, position) pair, not only about the node it was found
at: the nodes of one class have equal multisets of observable sequences
below, so whether some complete path below reads the rest of `seq` from
that position is the same for all of them. The search records each
(class, position) pair it left without a path and enters it from no node
again, and stops at the first terminal node it reaches at the end of `seq`.

Observable equivalence: two complete traces are in the same class when their
sequences of environment sends (signal plus emitting root region) are equal.
The normalized view projects each trace onto its root regions separately and
compares the per-region sequences instead, which identifies traces that
differ only in how independent regions' outputs interleave.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Union

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
class Edge:
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


if TYPE_CHECKING:  # at run time typing's cache would keep every imported Edge alive
    Monitor = tuple[Any, Callable[[Any, Edge], Any], Callable[[Any], bool]]  # start, step, accept
    Paths = dict[tuple[tuple[str, str], ...], dict[int, int]]  # obs -> class id -> paths

_EVERY: Monitor = (True, lambda s, e: s, lambda s: True)


def _merge(into: Paths, paths: Paths, w: int) -> None:
    """Adds `w` times each path count of `paths` into `into`."""
    for obs, dests in paths.items():
        acc = into.setdefault(obs, {})
        for c, m in dests.items():
            acc[c] = acc.get(c, 0) + w * m


def _pairs(node: Node, cls: list[Optional[int]]) -> list[tuple[tuple[tuple[str, str], ...], int]]:
    """The sorted (obs, child class) pairs of the node's edges into children
    that have a quotient class."""
    return sorted((e.obs, cls[e.child]) for e in node.edges if cls[e.child] is not None)


def _flag_monitor(hit: Callable[[Edge], bool], want: bool) -> Monitor:
    """Whether `hit` held on some followed edge; accepts the paths where that
    equals `want`."""
    return False, (lambda s, e: s or hit(e)), (lambda s: s == want)


def _discards(e: Edge, prefix: str = "") -> bool:
    """Whether the edge discards an occurrence whose brief starts with `prefix`."""
    return any(
        r.kind == "DiscardEvent" and str(dict(r.payload).get("occ", "")).startswith(prefix)
        for r in e.records
    )


def _enters(e: Edge, state: str) -> bool:
    """Whether the edge makes the state with dotted path `state` active."""
    return any(r.kind == "EnterState" and dict(r.payload).get("state") == state for r in e.records)


class TraceSet:
    """The result of one exploration: a trace DAG plus the queries the rest
    of the toolchain needs (counts, classes, witnesses, expectation checks).

    `traces` materializes every complete trace when the exact total fits the
    bound, so partition counts sum to len(traces); otherwise
    `truncated_traces` is set and it holds the class witnesses of the first
    `max_traces` observable classes, in `partition` order."""

    def __init__(
        self,
        ctx: ModelIndex,
        scenario: Optional[S.Scenario],
        bounds: ExploreBounds,
        nodes: list[Node],
        root_records: tuple[Record, ...],
        stats: ExploreStats,
    ):
        self.ctx = ctx
        self.scenario = scenario
        self.bounds = bounds
        self.nodes = nodes             # numbered children before parents
        self.root = len(nodes) - 1
        self.root_records = root_records
        self.stats = stats

    # -- the generic queries -------------------------------------------------

    def _count(self, monitor: Monitor) -> int:
        """Exact number of complete traces `monitor` accepts. Nodes are
        numbered children first, so in reverse each node's row (monitor state
        -> paths from the root) is whole when it is read, and freed then."""
        start, step, accept = monitor
        rows: dict[int, dict[Any, int]] = {self.root: {start: 1}}
        count = 0
        for nid in reversed(range(len(self.nodes))):
            row = rows.pop(nid)  # the root's, or filled in by an edge into the node
            node = self.nodes[nid]
            if node.terminal:
                count += sum(cnt for s, cnt in row.items() if accept(s))
            for e in node.edges:  # none at leaves: terminal, deadlocked, truncated
                below = rows.setdefault(e.child, {})
                for s, cnt in row.items():
                    s2 = step(s, e)
                    if s2 is not None:
                        below[s2] = below.get(s2, 0) + cnt
        return count

    def _accepted(self, monitor: Monitor) -> Iterator[tuple[Record, ...]]:
        """Record paths of the complete traces `monitor` accepts, in
        canonical edge order."""
        start, step, accept = monitor
        nodes = self.nodes
        path = list(self.root_records)
        if nodes[self.root].terminal:
            if accept(start):
                yield tuple(path)
            return
        dead: set[tuple[int, Any]] = set()
        # frame: node id, monitor state, edge iterator, path length, yielded
        stack = [[self.root, start, iter(nodes[self.root].edges), len(path), False]]
        while stack:
            frame = stack[-1]
            _, s, edges, mark, _ = frame
            for e in edges:
                s2 = step(s, e)
                if s2 is None or (e.child, s2) in dead:
                    continue
                del path[mark:]
                path.extend(e.records)
                if not nodes[e.child].terminal:
                    stack.append([e.child, s2, iter(nodes[e.child].edges), len(path), False])
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

    def _class_witness(self, seq: tuple[tuple[str, str], ...]) -> Trace:
        """The first complete path, in canonical edge order, whose
        observables are exactly `seq`, a key of `partition`; dead ends are
        kept per (class, position), as the module docstring explains."""
        nodes, cls, n = self.nodes, self._class_of, len(seq)
        path = list(self.root_records)
        if nodes[self.root].terminal and not seq:
            return self._mk_trace(tuple(path))
        dead: set[tuple[int, int]] = set()
        # frame: class, position in seq, edge iterator, path length
        stack = [(cls[self.root], 0, iter(nodes[self.root].edges), len(path))]
        while stack:
            c, pos, edges, mark = stack[-1]
            for e in edges:
                d = cls[e.child]
                if d is None:
                    continue
                if e.obs:
                    if pos == n or e.obs[0] != seq[pos]:
                        continue
                    at = pos + 1
                else:
                    at = pos
                if (d, at) in dead:
                    continue
                del path[mark:]
                path.extend(e.records)
                child = nodes[e.child]
                if not child.terminal:
                    stack.append((d, at, iter(child.edges), len(path)))
                    break
                if at == n:
                    return self._mk_trace(tuple(path))
            else:
                stack.pop()
                dead.add((c, pos))
        raise ValueError(f"no complete trace emits {seq}")

    # -- counting ----------------------------------------------------------

    @cached_property
    def total(self) -> int:
        return self._count(_EVERY)

    # -- observable classes --------------------------------------------------

    @cached_property
    def _class_of(self) -> list[Optional[int]]:
        """DAG node id -> quotient class id (None: no complete trace below),
        class ids numbered as first met, children first; see the module docstring."""
        cls: list[Optional[int]] = [None] * len(self.nodes)
        ids: dict[tuple, int] = {}  # class key -> class id
        for nid, node in enumerate(self.nodes):
            pairs = _pairs(node, cls)
            if len(pairs) == 1 and not pairs[0][0]:  # one silent way on: the child's future
                cls[nid] = pairs[0][1]
            elif pairs or node.terminal:  # else no complete trace below: no class
                cls[nid] = ids.setdefault((node.terminal, tuple(pairs)), len(ids))
        return cls

    def _quotient(self) -> list[tuple[int, Paths]]:
        """The DAG's observational quotient with its silent edges removed (see
        the module docstring): one row `(ends, {obs: {class: paths}})` per
        class, numbered children first with the root's class last, each built
        at the first node of its class. Empty when no complete trace exists."""
        cls = self._class_of
        rows: list[tuple[int, Paths]] = []
        for nid, node in enumerate(self.nodes):
            if cls[nid] != len(rows):  # no class, or one with a row already
                continue
            pairs = _pairs(node, cls)
            paths: Paths = {}
            for obs, child in pairs:  # a silent pair takes the child's row, built already
                _merge(paths, {obs: {child: 1}} if obs else rows[child][1], 1)
            rows.append((node.terminal + sum(rows[d][0] for obs, d in pairs if not obs), paths))
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
        return Trace(
            records=records,
            model=self.ctx.model.name,
            scenario=self.scenario.name if self.scenario else "",
            strategy="explore",
        )

    @cached_property
    def truncated_traces(self) -> bool:
        return self.total > self.bounds.max_traces

    @cached_property
    def traces(self) -> tuple[Trace, ...]:
        if not self.truncated_traces:
            return tuple(self._mk_trace(p) for p in self._accepted(_EVERY))
        return tuple(self._class_witness(seq) for seq in islice(self.partition, self.bounds.max_traces))

    def find_trace(self, signals: tuple[str, ...]) -> Optional[Trace]:
        """Witness whose env-send signal sequence equals `signals` exactly
        (emitting region ignored)."""
        for seq in self.partition:
            if tuple(sig for sig, _ in seq) == signals:
                return self._class_witness(seq)
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
                return self._class_witness(next(seq for seq in hit if hit[seq] == ok))

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
    nodes: list[Node] = []
    keymap: dict[tuple[int, ...], int] = {}
    comp_ids: dict[Any, int] = {}  # component value -> id, one id per == class
    # the edge labels of this walk: one shared (records, obs) pair per
    # distinct record list, and one shared tuple per distinct obs
    labels: dict[tuple[Record, ...], tuple[tuple[Record, ...], tuple[tuple[str, str], ...]]] = {}
    observed: dict[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]] = {}
    made: dict[tuple, Record] = {}  # the records of this walk, by their inputs (see `K._render`)
    stats = ExploreStats()
    scn_len = len(scenario.steps) if scenario else 0
    # frames of the nodes being expanded: memo key, state components, state,
    # scenario index, depth (records on the path), step iterator, edges so
    # far, and the label of the edge from the frame below
    stack: list[tuple] = []

    def finish(key: tuple, node: Node, label: Optional[tuple]) -> None:
        """Numbers a finished new node, children before parents so that the
        root is last, and links it by `label` to the frame on top of the stack."""
        nodes.append(node)
        keymap[key] = len(nodes) - 1
        if stack:
            stack[-1][6].append(Edge(label[0], len(nodes) - 1, label[1]))

    def visit(st: RuntimeState, idx: int, depth: int, label: Optional[tuple]) -> None:
        """The node of (st, idx, depth), reached by `label`; a new node with
        steps goes on the stack, to be finished after its last child."""
        comps = st.key()
        if stack:  # a component the step left identical keeps the parent's id
            pkey, pcomps = stack[-1][:2]
            ids = [
                p if c is pc else comp_ids.setdefault(c, len(comp_ids))
                for c, pc, p in zip(comps, pcomps, pkey)
            ]
        else:
            ids = [comp_ids.setdefault(c, len(comp_ids)) for c in comps]
        key = (*ids, idx, depth)
        nid = keymap.get(key)
        if nid is not None:  # never the root: the stack holds its parent
            stack[-1][6].append(Edge(label[0], nid, label[1]))
            return
        stats.nodes += 1
        steps = K.enabled_steps(ctx, st)
        if steps and (depth >= bnd.max_micro_steps or st.pool_load() > bnd.max_pool):
            stats.truncated += 1
        elif steps:
            stack.append((key, comps, st, idx, depth, iter(steps), [], label))
            return
        elif idx < scn_len:
            stats.deadlocks += 1
        finish(key, Node(terminal=not steps and idx >= scn_len), label)

    boot_records: list[Record] = []
    st0, idx0 = advance_scenario(ctx, K.boot(ctx), scenario, 0, boot_records)
    visit(st0, idx0, len(boot_records), None)
    while stack:
        key, _, st, idx, depth, steps, edges, label = stack[-1]
        step = next(steps, None)
        if step is None:
            stack.pop()
            finish(key, Node(tuple(edges)), label)
            continue
        st2, rec = K.apply(ctx, st, step, made)
        recs = [rec]
        st3, idx2 = advance_scenario(ctx, st2, scenario, idx, recs)
        records = tuple(recs)
        label = labels.get(records)
        if label is None:
            obs = tuple(r.obs for r in recs if r.obs is not None)
            label = labels[records] = (records, observed.setdefault(obs, obs))
        visit(st3, idx2, depth + len(recs), label)
        stats.edges += 1

    result = TraceSet(
        ctx=ctx,
        scenario=scenario,
        bounds=bnd,
        nodes=nodes,
        root_records=tuple(boot_records),
        stats=stats,
    )
    stats.discard_traces = result._count(_flag_monitor(_discards, True))
    return result

