"""Static analysis: axes, pattern predicates, hazard tables."""

from __future__ import annotations

import pytest

from conftest import machine
from statebench import linter as L
from statebench.linter import classify, explain, lint


# (fixture, focal state, pattern it must match there)
FOCAL = [
    ("do-simple", "main.S1", "doInSimpleState"),
    ("completion-priority", "main.S2", "doWithCompletionTransition"),
    ("self-signal", "main.S1", "doWithSelfSignaling"),
    ("do-internal", "main.S1", "doWithInternalTransition"),
    ("accept-race", "main.S1", "doAcceptingEvents"),
    ("accept-defer-override", "main.S1", "doAcceptWithDefer"),
    ("composite-work", "main.C", "doInCompositeParent"),
    ("nested-do", "main.Outer.r.Inner", "doInSubstate"),
    ("nested-two-dos", "main.Parent", "multipleDoActivities"),
    ("composite-defer-steal", "main.S1", "compositeDeferAndAccept"),
    ("orthogonal-do", "main.Both", "doInOrthogonalRegions"),
]


def findings_at(model, state, severity="slight"):
    return {f.pattern: f for f in lint(model, severity) if f.state == state}


# --- classification axes ----------------------------------------------------


def test_axes_for_measurement(measurement):
    axes = classify(measurement)
    active = axes["main.Active"]
    assert active.region_count == 2
    assert active.has_do and not active.nested
    assert active.descendant_do  # both Measure substates run their own do

    temp = axes["main.Active.temperature.MeasureTemp"]
    assert temp.nested and temp.simple
    assert temp.accepts  # its do waits on events
    assert "main.Standby" in axes and axes["main.Standby"].top_level


def test_axes_triggers_and_self_sends():
    axes = classify(machine("self-signal"))
    s1 = axes["main.S1"]
    assert s1.self_sends == {"done"}
    assert "done" in s1.outgoing_triggers


def test_axes_internal_triggers():
    axes = classify(machine("do-internal"))
    assert "tick" in axes["main.S1"].internal_triggers


def test_axes_defers():
    axes = classify(machine("accept-defer"))
    s1 = axes["main.S1"]
    assert s1.defers == {"e1"} and s1.accepts == {"e1"}


# --- pattern matching over the corpus ------------------------------------------


@pytest.mark.parametrize("fixture,state,pattern", FOCAL)
def test_focal_pattern_matches(fixture, state, pattern):
    found = findings_at(machine(fixture), state)
    assert pattern in found, f"{fixture}: {sorted(found)}"


def test_pattern_names_cover_the_taxonomy():
    assert {p for _, _, p in FOCAL} == set(L.PATTERNS)
    assert len(L.PATTERNS) == 11


def test_states_without_do_never_flagged(measurement):
    flagged = {f.state for f in lint(measurement, "slight")}
    axes = classify(measurement)
    for path in flagged:
        assert axes[path].has_do


# --- severity thresholds -------------------------------------------------------


def table_issues(pattern, floor):
    rank = L._RANK
    return [n for n, sev in L.PATTERNS[pattern].hazards if rank[sev] >= rank[floor]]


@pytest.mark.parametrize("fixture,state,pattern", FOCAL)
@pytest.mark.parametrize("severity", ["important", "applicable", "slight"])
def test_threshold_filters_exactly(fixture, state, pattern, severity):
    """Mirrors the hazard table row by row: at each threshold the finding
    either lists exactly the surviving issues or disappears entirely."""
    expected = table_issues(pattern, severity)
    found = findings_at(machine(fixture), state, severity)
    if not expected:
        assert pattern not in found
    else:
        assert [i.name for i in found[pattern].issues] == expected


def test_unknown_severity_rejected(measurement):
    with pytest.raises(ValueError):
        lint(measurement, "catastrophic")


def test_important_is_subset_of_slight(measurement):
    imp = {(f.state, f.pattern) for f in lint(measurement, "important")}
    sli = {(f.state, f.pattern) for f in lint(measurement, "slight")}
    assert imp <= sli


# --- fixed expectations on the measurement machine ----------------------------


def test_measurement_findings():
    by_state = {}
    for f in lint(machine("measurement"), "slight"):
        by_state.setdefault(f.state, set()).add(f.pattern)
    assert by_state["main.Active"] == {
        "doInCompositeParent",
        "multipleDoActivities",
        "doInOrthogonalRegions",
    }
    assert by_state["main.Active.temperature.MeasureTemp"] == {
        "doAcceptingEvents",
        "doInSubstate",
    }
    assert by_state["main.Active.gravity.MeasureGravity"] == {
        "doAcceptingEvents",
        "doInSubstate",
    }
    assert set(by_state) == {
        "main.Active",
        "main.Active.temperature.MeasureTemp",
        "main.Active.gravity.MeasureGravity",
    }


def test_findings_sorted_and_printable(measurement):
    findings = lint(measurement, "slight")
    assert findings == sorted(findings, key=lambda f: f.state)
    for f in findings:
        text = f.line()
        assert text.startswith(f.state + ": ")
        assert f.pattern in text
        # one-letter severity tags
        assert all(f"{i.name}({i.severity[0]})" in text for i in f.issues)


# --- tables and explanations ----------------------------------------------------


def test_every_pattern_has_explanation():
    for pattern in L.PATTERNS:
        text = explain(pattern)
        assert len(text) > 80


def test_explain_unknown_pattern():
    with pytest.raises(KeyError):
        explain("doSomethingElse")


def test_table_issue_names_are_described():
    for pattern, p in L.PATTERNS.items():
        for name, sev in p.hazards:
            assert name in L.ISSUES, f"{pattern} references unknown issue {name}"
            assert sev in (L.IMPORTANT, L.APPLICABLE, L.SLIGHT)


def test_issue_descriptions_complete():
    assert len(L.ISSUES) == 18
    used = {name for p in L.PATTERNS.values() for name, _ in p.hazards}
    assert used == set(L.ISSUES)
