"""Trace records and their two serializations.

A trace is the full story of one execution: every micro-step in order, each
with the logical thread that took it, a digest of the event pools right after
it, and the run-to-completion ordinal it happened under (if any). Observable
environment sends are singled out in the `obs` field because trace
equivalence classes are defined over exactly that projection.

Two renderings:

- text: one line per record, stable column layout, meant for eyeballs and
  golden files.
- structured: a single JSON document with a small header; byte-stable for a
  given trace (sorted keys, fixed separators), meant for tooling and replay.

`enters` and `discards` are the record tests behind the flag expectations,
stated once for `run`'s judge (`evaluate_run`) and the explorer alike.

Replay scripts are just the sequence of step keys; a record's `step` field
holds the exact key the scheduler chose, so any trace doubles as a script.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional, Union

Payload = tuple[tuple[str, "str | int"], ...]   # hashable, and rendered alike everywhere
VERSION = 1                        # of the structured rendering


@dataclass(frozen=True)
class Record:
    thread: str
    kind: str
    payload: Payload = ()
    pool: str = ""                 # digest of (completion, regular, deferred, in-flight)
    rtc: Optional[int] = None      # run-to-completion ordinal in progress, if any
    obs: Optional[tuple[str, str]] = None   # (signal, root region) for env sends
    step: str = ""                 # scheduler step key; replay identity

    def payload_text(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.payload)

    def line(self, index: int) -> str:
        rtc = str(self.rtc) if self.rtc is not None else "-"
        obs = f" !{self.obs[0]}" if self.obs else ""
        return f"{index:4d} rtc={rtc:<3s} {self.thread:<8s} {self.kind:<20s} {self.payload_text()}{obs}  pool={self.pool}"


@dataclass(frozen=True)
class Trace:
    records: tuple[Record, ...]
    model: str = ""
    scenario: str = ""
    strategy: str = ""
    seed: Optional[int] = None
    meta: tuple[tuple[str, "str | int"], ...] = field(default=())

    def observables(self) -> tuple[tuple[str, str], ...]:
        return tuple(r.obs for r in self.records if r.obs is not None)

    def obs_signals(self) -> tuple[str, ...]:
        return tuple(sig for sig, _ in self.observables())

    def script(self) -> tuple[str, ...]:
        """Step keys of every scheduled step (injections are not choices)."""
        return tuple(r.step for r in self.records if r.step and r.kind != "Inject")

    # -- renderings --

    def to_text(self) -> str:
        head = [f"# model={self.model} scenario={self.scenario} strategy={self.strategy}"]
        if self.seed is not None:
            head[0] += f" seed={self.seed}"
        lines = head + [r.line(i) for i, r in enumerate(self.records)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "format": "statebench-trace",
            "version": VERSION,
            "model": self.model,
            "scenario": self.scenario,
            "strategy": self.strategy,
            "seed": self.seed,
            "meta": {k: v for k, v in self.meta},
            "records": [
                {
                    "i": i,
                    "thread": r.thread,
                    "kind": r.kind,
                    "payload": {k: v for k, v in r.payload},
                    "pool": r.pool,
                    "rtc": r.rtc,
                    "obs": list(r.obs) if r.obs else None,
                    "step": r.step,
                }
                for i, r in enumerate(self.records)
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text: str) -> Trace:
    """The trace in a structured rendering. ValueError for any text that is
    not a well-formed trace document of this version, records numbered in
    order."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "statebench-trace":
        raise ValueError("not a trace document")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported trace version {doc.get('version')!r}")
    try:
        records = tuple(_record(i, r) for i, r in enumerate(doc["records"]))
        meta = tuple(sorted(doc.get("meta", {}).items()))
        return Trace(records, doc["model"], doc["scenario"], doc["strategy"], doc["seed"], meta)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed trace document ({type(exc).__name__}: {exc})") from None


def _record(i: int, r: dict) -> Record:
    if r["i"] != i:
        raise ValueError(f"record {i} is numbered {r['i']!r}")
    return Record(
        thread=r["thread"],
        kind=r["kind"],
        payload=tuple(sorted((k, v) for k, v in r["payload"].items())),
        pool=r["pool"],
        rtc=r["rtc"],
        obs=tuple(r["obs"]) if r["obs"] else None,
        step=r["step"],
    )


def enters(r: Record, state: str) -> bool:
    """Whether the record makes the state with dotted path `state` active."""
    return r.kind == "EnterState" and dict(r.payload).get("state") == state


def discards(r: Record, prefix: str = "") -> bool:
    """Whether the record discards an occurrence whose brief starts with `prefix`."""
    return r.kind == "DiscardEvent" and str(dict(r.payload).get("occ", "")).startswith(prefix)


def first_divergence(a: Trace, b: Trace) -> Union[int, str, None]:
    """Where the traces first disagree: the index of the first record that
    differs (records compare whole), else the name of the first header field
    that differs; None when the traces are equal."""
    for i, (ra, rb) in enumerate(zip(a.records, b.records)):
        if ra != rb:
            return i
    if len(a.records) != len(b.records):
        return min(len(a.records), len(b.records))
    return next((f.name for f in fields(Trace) if getattr(a, f.name) != getattr(b, f.name)), None)
