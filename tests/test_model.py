"""Model construction and well-formedness rules."""

from __future__ import annotations

import pytest

from statebench import model as M


def _machine(regions, activities=(), signals=("e1",), variables=()):
    return M.MachineModel(
        name="T",
        signals=tuple(signals),
        variables=tuple(variables),
        regions=regions,
        activities=tuple(activities),
    )


def _region(vertices, transitions, name="main"):
    init = (M.InitialPseudostate(),)
    tinit = M.Transition(
        name="TInit", source="", target=vertices[0].name,
        kind=M.TransitionKind.EXTERNAL, is_initial=True,
    )
    return M.Region(name, init + tuple(vertices), (tinit,) + tuple(transitions))


def codes(model):
    return sorted(e.code for e in M.validate(model))


def test_minimal_machine_is_valid():
    r = _region([M.State("S1")], [])
    assert M.validate(_machine((r,))) == []


def test_classify_vertex():
    assert M.classify_vertex(M.InitialPseudostate()) is M.VertexClass.INITIAL
    assert M.classify_vertex(M.FinalState("F")) is M.VertexClass.FINAL
    assert M.classify_vertex(M.State("S")) is M.VertexClass.SIMPLE
    sub = M.Region("r", (M.InitialPseudostate(), M.State("A")), ())
    assert M.classify_vertex(M.State("S", regions=(sub,))) is M.VertexClass.COMPOSITE_SINGLE
    assert (
        M.classify_vertex(M.State("S", regions=(sub, M.Region("q", (), ()))))
        is M.VertexClass.COMPOSITE_ORTHOGONAL
    )


def test_missing_initial_reported():
    r = M.Region("main", (M.State("S1"),), ())
    assert "MissingInitial" in codes(_machine((r,)))


def test_duplicate_vertex_names_rejected():
    r = _region([M.State("S1"), M.State("S1")], [])
    assert "DuplicateVertex" in codes(_machine((r,)))


def test_state_names_unique_across_regions():
    inner = M.Region(
        "r",
        (M.InitialPseudostate(), M.State("S1")),
        (M.Transition("TI", "", "S1", M.TransitionKind.EXTERNAL, is_initial=True),),
    )
    outer = _region([M.State("S1", regions=()), M.State("Top", regions=(inner,))], [])
    assert "DuplicateVertex" in codes(_machine((outer,)))


def test_unknown_transition_references():
    t = M.Transition("T1", "S1", "Nowhere", M.TransitionKind.EXTERNAL, trigger="nope")
    r = _region([M.State("S1")], [t])
    got = codes(_machine((r,)))
    assert got.count("UnknownReference") == 2  # target and trigger


def test_conflicting_same_trigger_transitions():
    ts = [
        M.Transition("T1", "S1", "S2", M.TransitionKind.EXTERNAL, trigger="e1"),
        M.Transition("T2", "S1", "S2", M.TransitionKind.EXTERNAL, trigger="e1"),
    ]
    r = _region([M.State("S1"), M.State("S2")], ts)
    assert "ConflictingTransitions" in codes(_machine((r,)))


def test_single_completion_transition_per_state():
    ts = [
        M.Transition("T1", "S1", "S2", M.TransitionKind.COMPLETION),
        M.Transition("T2", "S1", "S2", M.TransitionKind.COMPLETION),
    ]
    r = _region([M.State("S1"), M.State("S2")], ts)
    assert "ConflictingTransitions" in codes(_machine((r,)))


def test_transition_from_final_rejected():
    t = M.Transition("T1", "F", "S1", M.TransitionKind.EXTERNAL, trigger="e1")
    r = _region([M.State("S1"), M.FinalState("F")], [t])
    assert "TransitionFromFinal" in codes(_machine((r,)))


def test_internal_transition_needs_trigger():
    t = M.Transition("T1", "S1", "S1", M.TransitionKind.INTERNAL)
    r = _region([M.State("S1")], [t])
    assert "BadInternal" in codes(_machine((r,)))


def test_entry_behavior_must_not_accept():
    waity = M.Activity("waity", (M.AcceptEvent(("e1",)),))
    r = _region([M.State("S1", entry="waity")], [])
    assert "AcceptInBehavior" in codes(_machine((r,), activities=[waity]))
    # of two definitions the first counts, as for every other lookup
    calm = M.Activity("waity", (M.Task("t"),))
    assert {"AcceptInBehavior", "DuplicateActivity"} <= set(codes(_machine((r,), activities=[waity, calm])))


def test_do_behavior_may_accept():
    waity = M.Activity("waity", (M.AcceptEvent(("e1",)),))
    r = _region([M.State("S1", do_activity="waity")], [])
    assert M.validate(_machine((r,), activities=[waity])) == []


def test_unknown_activity_reference():
    r = _region([M.State("S1", do_activity="ghost")], [])
    assert "UnknownActivity" in codes(_machine((r,)))


def test_unknown_signal_in_send_and_defer():
    noisy = M.Activity("noisy", (M.SendSignal("mystery", to_env=True),))
    r = _region([M.State("S1", do_activity="noisy", defer=("alsoMystery",))], [])
    got = codes(_machine((r,), activities=[noisy]))
    assert got.count("UnknownSignal") == 2


def test_unknown_variable_in_assignment_and_guard():
    setter = M.Activity("setter", (M.Task("x := 1", M.Assignment("x", 1)),))
    t = M.Transition(
        "T1", "S1", "S2", M.TransitionKind.EXTERNAL, trigger="e1",
        guard=M.Guard("y", "==", 0),
    )
    r = _region([M.State("S1", entry="setter"), M.State("S2")], [t])
    got = codes(_machine((r,), activities=[setter]))
    assert "UnknownVariable" in got
    assert got.count("UnknownVariable") == 2


def test_misplaced_final_node():
    a = M.Activity("a", (M.FinalNode(), M.Task("late")))
    r = _region([M.State("S1", do_activity="a")], [])
    assert "MisplacedFinal" in codes(_machine((r,), activities=[a]))


def test_guard_on_initial_rejected():
    r = M.Region(
        "main",
        (M.InitialPseudostate(), M.State("S1")),
        (M.Transition("TI", "", "S1", M.TransitionKind.EXTERNAL,
                      trigger="e1", is_initial=True),),
    )
    assert "GuardOnInitial" in codes(_machine((r,)))


def test_assignment_text_round_trip():
    assert M.Assignment("x", 1).text() == "x := 1"
    assert M.Assignment("x", "y", "+", 2).text() == "x := y + 2"
    assert M.Guard("v", "!=", 3).text() == "v != 3"


def test_activity_lookup():
    a = M.Activity("a", ())
    m = _machine((_region([M.State("S1")], []),), activities=[a])
    assert m.activity("a") is a
    with pytest.raises(KeyError):
        m.activity("nope")
