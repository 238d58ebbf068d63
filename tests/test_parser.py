"""DSL parsing: structure, diagnostics, spans, round trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from flat_oracle import gen_flat_machine
from statebench import model as M
from statebench import scenario as S
from statebench.parser import (
    ParseFailure,
    load_model,
    load_scenario,
    parse_model,
    parse_scenario,
    pretty_print,
)


def test_measurement_structure(measurement):
    m = measurement
    assert m.name == "Measurement"
    assert "turnOn" in m.signals
    [main] = m.regions
    standby, active = [v for v in main.vertices if isinstance(v, M.State)]
    assert standby.name == "Standby" and standby.regions == ()
    assert active.do_activity == "prepareInstruments"
    assert [r.name for r in active.regions] == ["temperature", "gravity"]
    temp = active.regions[0]
    mt = next(v for v in temp.vertices if isinstance(v, M.State) and v.name == "MeasureTemp")
    assert mt.entry == "logMtEntry" and mt.exit == "logMtExit"
    assert mt.do_activity == "measureTempAct"


def test_transition_kinds(measurement):
    gravity = measurement.regions[0].vertices[2].regions[1]
    kinds = {t.name: t.kind for t in gravity.transitions if not t.is_initial}
    assert kinds["Tm2"] is M.TransitionKind.EXTERNAL
    assert kinds["Tmc2"] is M.TransitionKind.COMPLETION


def test_activity_nodes(measurement):
    body = measurement.activity("measureTempAct").body
    assert isinstance(body[0], M.Task)
    assert isinstance(body[1], M.SendSignal) and body[1].to_env
    assert isinstance(body[2], M.AcceptEvent) and body[2].signals == ("refTemp",)
    assert isinstance(body[4], M.SendSignal) and not body[4].to_env


def test_internal_transition_parses():
    m = load_model(str(fixture_path("do-internal.psm")))
    [ti] = [t for t in m.regions[0].transitions if t.kind is M.TransitionKind.INTERNAL]
    assert ti.source == ti.target == "S1"
    assert ti.trigger == "tick"
    assert ti.effect == "bump"


def test_guard_and_assignment_parse():
    res = parse_model("""
        machine G {
          signals go;
          vars n;
          activity bump { n := n + 1; }
          region main {
            initial -> A;
            state A { }
            state B { }
            transition T1: A -> B on go [n < 2] / bump;
          }
        }
    """)
    assert res.ok, res.errors
    t1 = next(t for t in res.model.regions[0].transitions if t.name == "T1")
    assert t1.guard == M.Guard("n", "<", 2)
    asg = res.model.activity("bump").body[0].assignment
    assert asg == M.Assignment("n", "n", "+", 1)


def test_par_and_multi_accept_parse():
    res = parse_model("""
        machine P {
          signals a, b, out;
          activity forked {
            par { accept a; send out to env; }
            and { accept a | b; }
            task after;
          }
          region main {
            initial -> S;
            state S { do forked; }
          }
        }
    """)
    assert res.ok, res.errors
    par = res.model.activity("forked").body[0]
    assert isinstance(par, M.Par) and len(par.branches) == 2
    assert par.branches[1][0].signals == ("a", "b")


def test_error_recovery_collects_multiple_diagnostics():
    res = parse_model("""
        machine Broken {
          signals e1;
          activity a { send nowhere to env; }
          region main {
            initial -> S1;
            state S1 { do ghost; }
            transition T1: S1 -> Missing on e1;
          }
        }
    """)
    assert res.model is None  # semantic errors block the model
    codes = {e.code for e in res.errors}
    assert {"UnknownSignal", "UnknownActivity", "UnknownReference"} <= codes


def test_syntax_error_has_span():
    res = parse_model("machine M {\n  signals e1\n}")  # missing semicolon
    assert not res.ok
    err = res.errors[0]
    assert err.span is not None and err.span.line == 3


def test_end_of_file_after_a_trailing_comment_points_past_it():
    text = "machine M { signals e; region main { initial -> S; state S { } } // no closing brace"
    res = parse_model(text)
    assert [str(e) for e in res.errors] == [
        f"Expected: expected '}}', got 'end of file' at <string>:1:{len(text) + 1}"]


def test_load_model_raises_on_bad_file(tmp_path):
    bad = tmp_path / "bad.psm"
    bad.write_text("machine Broken {")
    with pytest.raises(ParseFailure):
        load_model(str(bad))


def test_load_model_points_at_the_first_byte_that_is_not_utf8(tmp_path):
    bad = tmp_path / "bad.psm"
    bad.write_bytes(b"machine M {\r\n  signals \xc3\xa9 \xff;\n}\n")
    with pytest.raises(ParseFailure) as exc:
        load_model(bad)
    assert [str(e) for e in exc.value.errors] == [
        f"BadEncoding: file is not UTF-8 text: invalid start byte at {bad}:2:13"]


def test_scenario_parses(measurement):
    scn = load_scenario(str(fixture_path("measurement.scn")), measurement)
    injected = [s.signal for s in scn.steps if isinstance(s, S.Inject)]
    assert injected == ["turnOn", "measure", "refTemp", "gravityOk"]
    assert any(isinstance(s, S.AwaitStable) for s in scn.steps)
    assert any(isinstance(e, S.EventuallyActive) for e in scn.expectations)


def test_scenario_rejects_unknown_signal(measurement):
    res = parse_scenario("scenario bad { inject nonsense; }", measurement)
    assert res.scenario is None or res.errors
    assert any("nonsense" in e.message for e in res.errors)


def test_scenario_expectations_parse(measurement):
    res = parse_scenario(
        """
        scenario checks {
          inject turnOn;
          await-stable;
          expect eventually-active MeasureTemp;
          expect emits tempMeasured, tempValidated;
          expect never-discards refTemp;
        }
        """,
        measurement,
    )
    assert res.ok, res.errors
    kinds = [type(e).__name__ for e in res.scenario.expectations]
    assert kinds == ["EventuallyActive", "Emits", "NeverDiscards"]


@pytest.mark.parametrize("ref,ok", [
    ("S3", True),
    ("main.S1.r.S3", True),
    ("main.S4", True),
    ("S1.r.S3", False),           # not from a root region
    ("nowhere.S3", False),
    ("main.S1.S3", False),        # the region is missing
    ("main.S1.r", False),         # a region, not a vertex
])
def test_eventually_active_dotted_reference_is_a_full_vertex_path(ref, ok):
    m = load_model(str(fixture_path("composite-defer-steal.psm")))
    res = parse_scenario(f"scenario s {{ inject e3; expect eventually-active {ref}; }}", m)
    assert res.ok == ok, res.errors
    if not ok:
        assert [e.code for e in res.errors] == ["UnknownReference"]
        assert ref in res.errors[0].message


def test_pretty_print_round_trips_fixtures():
    for name in ("measurement", "composite-defer-steal", "accept-defer-override",
                 "do-internal", "orthogonal-do", "par-final"):
        m = load_model(str(fixture_path(f"{name}.psm")))
        res = parse_model(pretty_print(m))
        assert res.ok, (name, res.errors)
        assert res.model == m, name


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100000))
def test_pretty_print_round_trips_generated(seed):
    m = gen_flat_machine(seed)
    res = parse_model(pretty_print(m))
    assert res.ok, res.errors
    assert res.model == m
