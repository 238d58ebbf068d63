"""statebench: state machine semantics workbench.

Machines with doActivities hide a scheduler inside: activity actions,
transition legs, event delivery and deferral all interleave. This package
makes that scheduler explicit — every choice is a micro-step — so a single
execution can be replayed exactly, the full choice tree can be explored
exhaustively, and model shapes known to behave surprisingly can be flagged
statically before anything runs.

    from statebench import parse_model, parse_scenario, run, explore, lint
"""

from . import engine, linter, model, parser, scenario, trace
from .engine import run
from .explorer import ExploreBounds, TraceSet, check, explore
from .linter import lint
from .parser import (
    ParseFailure,
    ParseResult,
    ScenarioResult,
    load_model,
    load_scenario,
    parse_model,
    parse_scenario,
    pretty_print,
)

__version__ = "0.1.0"

__all__ = [
    "ExploreBounds",
    "ParseFailure",
    "ParseResult",
    "ScenarioResult",
    "TraceSet",
    "check",
    "engine",
    "explore",
    "lint",
    "linter",
    "load_model",
    "load_scenario",
    "model",
    "parse_model",
    "parse_scenario",
    "parser",
    "pretty_print",
    "run",
    "scenario",
    "trace",
    "__version__",
]
