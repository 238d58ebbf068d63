"""Hierarchical state machine interpreter with explicit micro-step scheduling."""

from .driver import BudgetExceeded, ScriptStrategy, evaluate_run, run
from .kernel import build_index

__all__ = ["BudgetExceeded", "ScriptStrategy", "build_index", "evaluate_run", "run"]
