"""Compiled activity programs.

Activity bodies are trees (blocks, par forks, accepts); the interpreter wants
flat per-node stepping. Compilation assigns every executable node an id and a
`next` pointer, turning each activity into a small instruction table:

    task a; par { send x to env; } and { task b; } task c;

becomes nodes 0..5 where the par node forks two strands and both fall into a
join pseudo-node that resumes the main strand at `task c`.

A strand is just a node id: since the language has no loops and par branches
never share nodes, a node id occurs in at most one live strand at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import model as M


@dataclass(frozen=True)
class ProgNode:
    kind: str                      # task | send | accept | par | join | final
    nxt: Optional[int]
    label: str = ""                # task label
    assignment: Optional[M.Assignment] = None
    signal: str = ""               # send target signal
    to_env: bool = True
    signals: tuple[str, ...] = ()  # accept alternatives
    branches: tuple[int, ...] = () # par branch entry points
    arity: int = 0                 # join: strands that must arrive


@dataclass(frozen=True)
class Program:
    name: str
    nodes: tuple[ProgNode, ...]
    entry: Optional[int]           # None when the body is empty


def describe(node: ProgNode) -> str:
    if node.kind == "task":
        return f"task {node.label}"
    if node.kind == "send":
        return f"send {node.signal} to {'env' if node.to_env else 'self'}"
    if node.kind == "accept":
        return f"accept {'|'.join(node.signals)}"
    if node.kind == "par":
        return f"par x{len(node.branches)}"
    if node.kind == "final":
        return "final"
    return node.kind


def compile_activity(activity: M.Activity) -> Program:
    nodes: list[ProgNode] = []

    def emit(node: ProgNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def build_block(block: tuple[M.Node, ...], cont: Optional[int]) -> Optional[int]:
        """Builds the block back to front, returning its entry id."""
        nxt = cont
        for raw in reversed(block):
            nxt = build_node(raw, nxt)
        return nxt

    def build_node(raw: M.Node, cont: Optional[int]) -> int:
        if isinstance(raw, M.Task):
            return emit(ProgNode("task", cont, label=raw.label, assignment=raw.assignment))
        if isinstance(raw, M.SendSignal):
            return emit(ProgNode("send", cont, signal=raw.signal, to_env=raw.to_env))
        if isinstance(raw, M.AcceptEvent):
            return emit(ProgNode("accept", cont, signals=raw.signals))
        if isinstance(raw, M.FinalNode):
            return emit(ProgNode("final", None))
        if isinstance(raw, M.Par):
            # the fork strand dies at the par node; control resumes past the
            # join, so the par's own nxt is unused
            join = emit(ProgNode("join", cont, arity=len(raw.branches)))
            entries = tuple(build_block(branch, join) for branch in raw.branches)
            return emit(ProgNode("par", None, branches=entries))
        raise TypeError(f"unknown activity node {raw!r}")

    entry = build_block(activity.body, None)
    return Program(activity.name, tuple(nodes), entry)
