"""DSL parsing: structure, diagnostics, spans, round trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_PAIRS, fixture_path, machine
from flat_oracle import gen_flat_machine
from statebench import model as M
from statebench import scenario as S
from statebench.parser import (
    ParseFailure,
    ParseResult,
    _lex,
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


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_bad_encoding_counts_lines_as_the_lexer_reads_the_file(tmp_path, newline):
    # a byte that is not UTF-8 and a bad character at the same place get the same position
    def first_error(bad: bytes) -> str:
        path = tmp_path / "m.psm"
        path.write_bytes(newline.join(["machine M {", "  signals a;", "  éX", "}", ""])
                         .encode().replace(b"X", bad))
        with pytest.raises(ParseFailure) as exc:
            load_model(path)
        return exc.value.errors[0].span.label()

    assert first_error(b"\xff") == first_error(b"@") == f"{tmp_path / 'm.psm'}:3:4"


LINE_END_TEXTS = [
    pytest.param("machine M {\n  signals a;\n  @\n}\n", id="bad-character"),
    pytest.param("machine M { // c\n  signals a;\n  region main { initial -> S; state S { } }\n}\n",
                 id="comment"),
    *(pytest.param(p.read_text(encoding="utf-8"), id=p.stem)
      for p in sorted(fixture_path(".").glob("*.psm"))),
]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("text", LINE_END_TEXTS)
def test_parse_model_reads_line_ends_as_load_model_does(tmp_path, text, newline):
    # a string parsed in memory and the same bytes loaded from a file give
    # the same diagnostics and the same model, whatever the line ends; spans
    # compare equal whatever they hold, so the reprs are compared
    text = text.replace("\n", newline)
    path = tmp_path / "m.psm"
    path.write_bytes(text.encode("utf-8"))
    parsed = parse_model(text, str(path))
    try:
        loaded = ParseResult(load_model(path), [])
    except ParseFailure as exc:
        loaded = ParseResult(None, exc.errors)
    assert [str(e) for e in parsed.errors] == [str(e) for e in loaded.errors]
    assert repr(parsed.model) == repr(loaded.model)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("machine_name,name", FIXTURE_PAIRS)
def test_parse_scenario_reads_line_ends_as_load_scenario_does(tmp_path, machine_name, name, newline):
    m = machine(machine_name)
    text = fixture_path(f"{name}.scn").read_text(encoding="utf-8").replace("\n", newline)
    path = tmp_path / "s.scn"
    path.write_bytes(text.encode("utf-8"))
    parsed = parse_scenario(text, m, str(path))
    assert parsed.ok, parsed.errors
    assert repr(parsed.scenario) == repr(load_scenario(path, m))


def lexed(text: str) -> tuple[list[tuple[str, str, int, int]], list[str]]:
    errors: list[M.ModelError] = []
    tokens = [(t.kind, t.text, t.line, t.column) for t in _lex(text, "f", errors)]
    return tokens, [str(e) for e in errors]


def bad(char: str, line: int, column: int) -> str:
    return f"BadCharacter: unexpected character {char!r} at f:{line}:{column}"


@pytest.mark.parametrize("text,tokens,diagnostics", [
    pytest.param("machine  \t", [("machine", "machine", 1, 1), ("eof", "", 1, 11)], [], id="blanks-at-eof"),
    pytest.param("machine \t\n", [("machine", "machine", 1, 1), ("eof", "", 2, 1)], [], id="blanks-then-newline-at-eof"),
    pytest.param("a\t \n \t", [("ident", "a", 1, 1), ("eof", "", 2, 3)], [], id="blanks-on-the-last-line"),
    pytest.param("a\r\nb \r\n", [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("eof", "", 3, 1)],
                 [bad("\r", 1, 2), bad("\r", 2, 3)], id="crlf"),  # _parse turns CR into LF before _lex
    pytest.param("a\rb\r", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 5)],
                 [bad("\r", 1, 2), bad("\r", 1, 4)], id="lone-cr"),
    pytest.param("a\fb", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)], [bad("\f", 1, 2)], id="form-feed"),
    pytest.param("a\vb", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)], [bad("\v", 1, 2)], id="vertical-tab"),
    pytest.param("a\xa0b", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)], [bad("\xa0", 1, 2)], id="nbsp"),
    pytest.param("a   \t@ \t", [("ident", "a", 1, 1), ("eof", "", 1, 9)], [bad("@", 1, 6)], id="blanks-then-bad-character"),
    pytest.param("12abc", [("int", "12", 1, 1), ("ident", "abc", 1, 3), ("eof", "", 1, 6)], [], id="digits-then-letters"),
    pytest.param("1²3", [("int", "1²3", 1, 1), ("eof", "", 1, 4)], [], id="superscript-digit"),
    pytest.param("١٢x", [("int", "١٢", 1, 1), ("ident", "x", 1, 3), ("eof", "", 1, 4)], [], id="arabic-indic-digits"),
    pytest.param("9\u0301x", [("int", "9", 1, 1), ("ident", "x", 1, 3), ("eof", "", 1, 4)], [bad("\u0301", 1, 2)],
                 id="digit-then-mark"),
    pytest.param("1½2x", [("int", "1", 1, 1), ("int", "2", 1, 3), ("ident", "x", 1, 4), ("eof", "", 1, 5)],
                 [bad("½", 1, 2)], id="digit-then-numeric"),
    pytest.param("é", [("ident", "é", 1, 1), ("eof", "", 1, 2)], [], id="accented-name"),
    pytest.param("a // c @", [("ident", "a", 1, 1), ("eof", "", 1, 9)], [], id="comment-at-eof"),
    pytest.param("a //\nb", [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("eof", "", 2, 2)], [], id="comment-then-newline"),
    pytest.param("->", [("->", "->", 1, 1), ("eof", "", 1, 3)], [], id="arrow"),
    pytest.param("- >", [("-", "-", 1, 1), (">", ">", 1, 3), ("eof", "", 1, 4)], [], id="minus-blank-greater"),
    pytest.param("=!", [("eof", "", 1, 3)], [bad("=", 1, 1), bad("!", 1, 2)], id="half-operators"),
])
def test_token_stream(text, tokens, diagnostics):
    assert lexed(text) == (tokens, diagnostics)


LEXER_ALPHABET = ["a", "Z", "_", "0", "7", "\u0301", " ", "\t", "\r", "\n", "\f", "\xa0", "²", "١",
                  "//", "/", "-", ">", "@"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LEXER_ALPHABET), max_size=30).map("".join))
def test_tokens_sit_in_the_text_in_order(text):
    errors: list[M.ModelError] = []
    tokens = _lex(text, "f", errors)
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    covered: set[int] = set()
    end = 0
    for tok in tokens:
        at = starts[tok.line - 1] + tok.column - 1
        assert text[at:at + len(tok.text)] == tok.text
        assert at >= end  # in order, and no two overlap
        end = at + len(tok.text)
        covered.update(range(at, end))
    assert tokens[-1].kind == "eof" and (tokens[-1].line, tokens[-1].column) == (len(starts), len(text) - starts[-1] + 1)
    bad_at = {starts[e.span.line - 1] + e.span.column - 1 for e in errors if e.code == "BadCharacter"}
    i = 0
    while i < len(text):
        if text.startswith("//", i) and i not in covered:
            i = text.find("\n", i)  # a comment runs to the end of its line
            i = len(text) if i < 0 else i
            continue
        assert i in covered or i in bad_at or text[i] in " \t\n", (text, i)
        i += 1


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


@pytest.mark.parametrize("expectation,unknown", [
    ("eventually-active Nope", ["state 'Nope'"]),
    ("emits tempMeasured, bad1, bad2", ["signal 'bad1'", "signal 'bad2'"]),
    ("never-discards bad1", ["signal 'bad1'"]),
])
def test_unknown_reference_in_an_expectation_keeps_the_next_statement(measurement, expectation, unknown):
    # one diagnostic per unknown name, at the `expect` statement, and the
    # statement after it is still read
    res = parse_scenario(f"scenario s {{ expect {expectation}; inject bogus; }}", measurement)
    where = 14 + len("expect ") + len(expectation) + 2
    assert [(e.code, e.span.column) for e in res.errors] == [("UnknownReference", 14)] * len(unknown) + [
        ("UnknownReference", where)
    ]
    assert all(u in e.message for u, e in zip(unknown + ["'bogus'"], res.errors))


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
