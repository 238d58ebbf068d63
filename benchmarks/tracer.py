"""Spans recorded from the benchmark's side of each layer boundary.

A span has a name, a start, an end, the span that caused it and the id of
the operation it belongs to. Spans on hot paths (kernel steps, memo keys)
are aggregated instead of stored: every span, kept or not, adds its calls,
total time and self time (its time minus its child spans' time) to
`totals`. The program itself is never edited; `patched` swaps module and
class attributes for traced wrappers and restores them afterwards.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """Stand-in used for untraced operations: same interface, no work."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield

    def add(self, name: str, value: float) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.op = 0
        self.spans: list[tuple[int, str, float, float, str | None]] = []
        self.totals: dict[str, list] = {}      # name -> [calls, seconds, self seconds]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []           # open spans: [name, start, child seconds]

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self, keep: bool) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = [0, 0.0, 0.0]
        t[0] += 1
        t[1] += dur
        t[2] += dur - child
        if keep:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((self.op, name, start, end, parent))

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit(True)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, name: str, keep: bool = True):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(keep)

        return traced

    def child_seconds(self, parent: str, names: set[str]) -> float:
        """Time of kept spans named in `names` whose direct parent is `parent`."""
        return sum(end - start for _, name, start, end, par in self.spans if par == parent and name in names)


@contextmanager
def patched(tracer: Tracer, targets):
    """Temporarily replace `owner.attr` with a traced wrapper for each
    (owner, attr, span name, keep) target. A `functools.cached_property` is
    rebuilt around its wrapped getter."""
    saved = []
    try:
        for owner, attr, name, keep in targets:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(orig, functools.cached_property):
                new = functools.cached_property(tracer.wrap(orig.func, name, keep))
                new.__set_name__(owner, attr)
            else:
                new = tracer.wrap(orig, name, keep)
            saved.append((owner, attr, orig))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
