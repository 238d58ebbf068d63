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

Every query runs on three generic pieces, all iterative, so no depth of the
DAG can exhaust the interpreter's stack:

- the builder, `explore`: a depth-first walk on an explicit stack that
  numbers nodes in preorder and lists them children-before-parents in
  `TraceSet.order` as they finish;
- `TraceSet._fold(start, step)`: the exact number of complete traces that
  end in each monitor state, one forward pass over the product of the DAG
  and the monitor's states that frees each node's row once it is read;
- `TraceSet._accepted(monitor)`: the complete record paths a monitor
  accepts, in canonical edge order (each node's edges in the order the
  kernel enabled them). A (node, state) pair that led to no accepted path is
  never entered again.

A monitor is a triple `(start, step, accept)`: the state at the root,
`step(state, edge)` giving the state after a followed edge (None rejects the
edge and every path through it), and `accept(state)`, judged at a terminal
node. `_count(monitor)` sums the fold over the accepted states. Expectations,
the discard count and class witnesses are monitors, and a witness or
counterexample is always the first accepted path in canonical edge order.
`partition` is a fold too: its monitor state is the id of a node in the trie
of observable prefixes. DAG nodes hold no runtime state, so
`eventually-active S` is judged from the records: S becomes active exactly
on an `EnterState` record whose `state` is S's dotted path.

Observable equivalence: two complete traces are in the same class when their
sequences of environment sends (signal plus emitting root region) are equal.
The normalized view projects each trace onto its root regions separately and
compares the per-region sequences instead, which identifies traces that
differ only in how independent regions' outputs interleave.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Union

from . import model as M
from . import scenario as S
from .engine import kernel as K
from .engine.driver import advance_scenario, resolve_state
from .engine.kernel import ModelIndex
from .engine.state import RuntimeState, dotted
from .trace import Record, Trace


@dataclass(frozen=True)
class ExploreBounds:
    max_micro_steps: int = 200     # records per path, injections included
    max_traces: int = 10000        # materialization cap
    max_pool: int = 64             # combined occupancy of all pools


@dataclass(frozen=True)
class Edge:
    records: tuple[Record, ...]    # the step's record plus any forced injections
    child: int
    obs: tuple[tuple[str, str], ...]


@dataclass
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

_EVERY: Monitor = (True, lambda s, e: s, lambda s: True)


def _flag_monitor(hit: Callable[[Edge], bool], want: bool) -> Monitor:
    """Whether `hit` held on some followed edge; accepts the paths where that
    equals `want`."""
    return False, (lambda s, e: s or hit(e)), (lambda s: s == want)


def _obs_monitor(seq: tuple[tuple[str, str], ...]) -> Monitor:
    """How much of the observable sequence `seq` the path has emitted;
    accepts the paths that emit exactly `seq`."""

    def step(pos: int, e: Edge) -> Optional[int]:
        end = pos + len(e.obs)
        return end if seq[pos:end] == e.obs else None

    return 0, step, lambda pos: pos == len(seq)


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
    bound, so partition counts sum to len(traces); otherwise it holds one
    witness per observable class and `truncated_traces` is set."""

    def __init__(
        self,
        ctx: ModelIndex,
        scenario: Optional[S.Scenario],
        bounds: ExploreBounds,
        nodes: list[Node],
        order: list[int],
        root_records: tuple[Record, ...],
        stats: ExploreStats,
    ):
        self.ctx = ctx
        self.scenario = scenario
        self.bounds = bounds
        self.nodes = nodes
        self.order = order             # node ids, children before parents
        self.root = 0                  # nodes are numbered in preorder
        self.root_records = root_records
        self.stats = stats

    # -- the generic queries -------------------------------------------------

    def _fold(self, start: Any, step: Callable[[Any, Edge], Any]) -> dict[Any, int]:
        """Exact number of complete traces that end in each monitor state.
        Parents come before children in reversed `order`, so each node's row
        of (monitor state -> paths from the root) is whole when it is read."""
        rows: dict[int, dict[Any, int]] = {self.root: {start: 1}}
        ends: dict[Any, int] = {}
        for nid in reversed(self.order):
            row = rows.pop(nid)  # the root's, or filled in by an edge into the node
            node = self.nodes[nid]
            if node.terminal:
                for s, cnt in row.items():
                    ends[s] = ends.get(s, 0) + cnt
                continue
            for e in node.edges:  # deadlocked and truncated nodes have none
                below = rows.setdefault(e.child, {})
                for s, cnt in row.items():
                    s2 = step(s, e)
                    if s2 is not None:
                        below[s2] = below.get(s2, 0) + cnt
        return ends

    def _count(self, monitor: Monitor) -> int:
        """Exact number of complete traces `monitor` accepts."""
        start, step, accept = monitor
        return sum(cnt for s, cnt in self._fold(start, step).items() if accept(s))

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

    def _first(self, monitor: Monitor) -> Optional[Trace]:
        found = next(self._accepted(monitor), None)
        return self._mk_trace(found) if found is not None else None

    # -- counting ----------------------------------------------------------

    @cached_property
    def total(self) -> int:
        return self._count(_EVERY)

    # -- observable classes --------------------------------------------------

    @cached_property
    def partition(self) -> dict[tuple[tuple[str, str], ...], int]:
        """Exact count of complete traces per observable class: a fold whose
        state is the id of a node in the trie of observable prefixes (an int
        id hashes at no cost; a prefix tuple rehashes all of its items)."""
        prefixes: list[tuple[tuple[str, str], ...]] = [()]
        ids: dict[tuple[int, tuple[str, str]], int] = {}

        def step(pid: int, e: Edge) -> int:
            if not e.obs:  # most edges: no loop to set up
                return pid
            for o in e.obs:
                nxt = ids.get((pid, o))
                if nxt is None:
                    nxt = ids[pid, o] = len(prefixes)
                    prefixes.append(prefixes[pid] + (o,))
                pid = nxt
            return pid

        return dict(sorted((prefixes[pid], cnt) for pid, cnt in self._fold(0, step).items()))

    def signal_partition(self) -> dict[tuple[str, ...], int]:
        """Classes keyed by signal sequence only (region dropped)."""
        out: dict[tuple[str, ...], int] = {}
        for seq, cnt in self.partition.items():
            key = tuple(sig for sig, _ in seq)
            out[key] = out.get(key, 0) + cnt
        return dict(sorted(out.items()))

    def normalized_partition(self) -> dict[tuple, int]:
        """Classes after projecting observations onto their root regions:
        interleavings of independent regions' outputs collapse together."""
        out: dict[tuple, int] = {}
        for seq, cnt in self.partition.items():
            regions = sorted({region for _, region in seq})
            key = tuple(
                (region, tuple(sig for sig, r in seq if r == region)) for region in regions
            )
            out[key] = out.get(key, 0) + cnt
        return dict(sorted(out.items()))

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
        # every class has a complete trace, so each search finds one
        seqs = list(self.partition)[: self.bounds.max_traces]
        return tuple(self._first(_obs_monitor(seq)) for seq in seqs)

    def find_trace(self, signals: tuple[str, ...]) -> Optional[Trace]:
        """Witness whose env-send signal sequence equals `signals` exactly
        (emitting region ignored)."""
        for seq in self.partition:
            if tuple(sig for sig, _ in seq) == signals:
                return self._first(_obs_monitor(seq))
        return None

    # -- expectation checking ---------------------------------------------

    def check(self, expectation: S.Expectation) -> ExpectationVerdict:
        """Judges `expectation` by the number of complete traces that meet
        it. `monitor(True)` accepts those traces and `monitor(False)` the
        others; the witness and the counterexample are their first paths."""
        exp = expectation
        if isinstance(exp, S.Emits):
            hit = {seq: tuple(sig for sig, _ in seq) == exp.signals for seq in self.partition}
            good = sum(cnt for seq, cnt in self.partition.items() if hit[seq])

            def monitor(ok: bool) -> Monitor:  # the first observable class on that side
                return _obs_monitor(next(seq for seq in hit if hit[seq] == ok))

        elif isinstance(exp, S.EventuallyActive):
            target = dotted(resolve_state(self.ctx, exp.state))

            def monitor(ok: bool) -> Monitor:  # at the root nothing is active yet
                return _flag_monitor(lambda e: _enters(e, target), ok)

            good = self._count(monitor(True))
        else:
            assert isinstance(exp, S.NeverDiscards)
            prefix = exp.signal + "#"

            def monitor(ok: bool) -> Monitor:
                return _flag_monitor(lambda e: _discards(e, prefix), not ok)

            good = self._count(monitor(True))
        if good == 0:
            verdict = "none"
        elif good == self.total and not self.stats.truncated:
            verdict = "all"
        else:
            verdict = "some"
        witness = self._first(monitor(True)) if good else None
        counter = self._first(monitor(False)) if good < self.total else None
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
    prune: bool = True,
) -> TraceSet:
    """Walk every schedule of `scenario` on the machine.

    prune=False disables state sharing (every path gets its own subtree);
    the result must carry exactly the same complete traces, which is what the
    pruning-soundness tests assert. Only feasible for small models."""
    ctx = source if isinstance(source, ModelIndex) else K.build_index(source)
    bnd = bounds or ExploreBounds()
    nodes: list[Node] = []
    order: list[int] = []
    keymap: dict[tuple, int] = {}
    stats = ExploreStats()
    scn_len = len(scenario.steps) if scenario else 0
    # frames of the nodes being expanded: node id, state, scenario index,
    # depth (records on the path), step iterator, edges so far
    stack: list[tuple] = []

    def visit(st: RuntimeState, idx: int, depth: int) -> int:
        """The node of (st, idx, depth); a new node with steps goes on the stack."""
        key = (st.key(), idx, depth)
        if prune and key in keymap:
            return keymap[key]
        nid = len(nodes)
        nodes.append(Node())
        stats.nodes += 1
        if prune:
            keymap[key] = nid
        steps = K.enabled_steps(ctx, st)
        if steps and (depth >= bnd.max_micro_steps or st.pool_load() > bnd.max_pool):
            stats.truncated += 1
        elif steps:
            stack.append((nid, st, idx, depth, iter(steps), []))
            return nid
        elif idx >= scn_len:
            nodes[nid].terminal = True
        else:
            stats.deadlocks += 1
        order.append(nid)
        return nid

    boot_records: list[Record] = []
    st0, idx0 = advance_scenario(ctx, K.boot(ctx), scenario, 0, boot_records)
    visit(st0, idx0, len(boot_records))
    while stack:
        nid, st, idx, depth, steps, edges = stack[-1]
        step = next(steps, None)
        if step is None:
            stack.pop()
            nodes[nid].edges = tuple(edges)
            order.append(nid)
            continue
        st2, rec = K.apply(ctx, st, step)
        recs = [rec]
        st3, idx2 = advance_scenario(ctx, st2, scenario, idx, recs)
        child = visit(st3, idx2, depth + len(recs))
        edges.append(Edge(tuple(recs), child, tuple(r.obs for r in recs if r.obs is not None)))
        stats.edges += 1

    result = TraceSet(
        ctx=ctx,
        scenario=scenario,
        bounds=bnd,
        nodes=nodes,
        order=order,
        root_records=tuple(boot_records),
        stats=stats,
    )
    stats.discard_traces = result._count(_flag_monitor(_discards, True))
    return result


def check(
    source: Union[M.MachineModel, ModelIndex],
    scenario: S.Scenario,
    bounds: Optional[ExploreBounds] = None,
) -> list[ExpectationVerdict]:
    """Explore and judge every expectation of the scenario."""
    return explore(source, scenario, bounds).check_all()
