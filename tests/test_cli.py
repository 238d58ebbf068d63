"""End-to-end command line behavior: exit codes, formats, replay."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import statebench
from conftest import fixture_path
from statebench import lint, parse_model, parse_scenario, run
from statebench.cli import BUDGET, DEADLOCK, FAIL, OK, PARSE, main


def fx(name):
    return str(fixture_path(name))


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- run -----------------------------------------------------------------------


def test_run_clean(capsys):
    code, out, _ = invoke(
        capsys, "run", fx("measurement.psm"), fx("measurement.scn")
    )
    assert code == OK
    assert "stable 0: [main.Standby]" in out
    assert "pass" in out and "FAIL" not in out
    assert "steps:" in out.splitlines()[-1]


def test_run_failing_expectation(tmp_path, capsys):
    scn = tmp_path / "strict.scn"
    scn.write_text(
        "scenario strict { inject progress; expect never-discards progress; }\n"
    )
    code, out, _ = invoke(capsys, "run", fx("do-simple.psm"), str(scn))
    assert code == FAIL
    assert "FAIL" in out  # nothing consumes progress, so it is discarded


def test_run_structured(capsys):
    code, out, _ = invoke(
        capsys, "run", fx("measurement.psm"), fx("measurement.scn"),
        "--format", "structured",
    )
    assert code == OK
    doc = json.loads(out)
    assert doc["steps"] > 0
    assert doc["stable"][0] == {"config": "[main.Standby]", "pending": "empty"}
    assert all(o["ok"] for o in doc["expectations"])


def test_run_renders_an_empty_emits_without_a_trailing_space(tmp_path, capsys):
    model, scn = tmp_path / "m.psm", tmp_path / "s.scn"
    model.write_text("machine m { signals a; }\n")
    scn.write_text("scenario s { expect emits; }\n")
    code, out, _ = invoke(capsys, "run", str(model), str(scn))
    assert code == OK
    assert "expect emits: pass" in out.splitlines()
    code, out, _ = invoke(capsys, "run", str(model), str(scn), "--format", "structured")
    assert code == OK
    assert [(o["text"], o["ok"]) for o in json.loads(out)["expectations"]] == [("emits", True)]


def test_run_random_strategy_seeded(capsys):
    code1, out1, _ = invoke(
        capsys, "run", fx("measurement.psm"), fx("measurement.scn"),
        "--strategy", "random", "--seed", "42",
    )
    code2, out2, _ = invoke(
        capsys, "run", fx("measurement.psm"), fx("measurement.scn"),
        "--strategy", "random", "--seed", "42",
    )
    assert code1 == code2 == OK
    assert out1 == out2


def test_run_budget_exhausted(tmp_path, capsys):
    model = tmp_path / "runaway.psm"
    model.write_text(
        "machine Runaway {\n"
        "  signals ping;\n"
        "  activity pinger { send ping to self; }\n"
        "  region main {\n"
        "    initial -> A;\n"
        "    state A { do pinger; }\n"
        "    transition T: A -> A on ping;\n"
        "  }\n"
        "}\n"
    )
    scn = tmp_path / "idle.scn"
    scn.write_text("scenario idle { await-stable; }\n")
    code, _, err = invoke(
        capsys, "run", str(model), str(scn), "--max-steps", "50"
    )
    assert code == BUDGET
    assert "budget" in err


# --- replay ----------------------------------------------------------------------


def test_run_trace_out_then_replay(tmp_path, capsys):
    trace = tmp_path / "t.json"
    code, _, _ = invoke(
        capsys, "run", fx("measurement.psm"), fx("measurement.scn"),
        "--strategy", "random", "--seed", "9", "--trace-out", str(trace),
    )
    assert code == OK
    code, out, _ = invoke(
        capsys, "replay", fx("measurement.psm"), fx("measurement.scn"), str(trace)
    )
    assert code == OK
    assert "replay identical" in out


def test_replay_detects_tampering(tmp_path, capsys):
    trace = tmp_path / "t.json"
    invoke(
        capsys, "run", fx("measurement.psm"), fx("measurement.scn"),
        "--trace-out", str(trace),
    )
    doc = json.loads(trace.read_text())
    doc["records"][3]["pool"] = "0000000000000000"
    trace.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    code, _, err = invoke(
        capsys, "replay", fx("measurement.psm"), fx("measurement.scn"), str(trace)
    )
    assert code == FAIL
    assert "DIVERGED at record 3" in err


@pytest.mark.parametrize("edit,indent,code,message", [
    pytest.param(lambda doc: doc.update(meta={"note": "x"}), None, OK, "replay identical", id="meta-only"),
    pytest.param(lambda doc: doc["records"][2].update(rtc=99), None, FAIL, "DIVERGED at record 2", id="rtc-only"),
    pytest.param(lambda doc: doc.update(scenario="other"), None, FAIL, "DIVERGED in header field scenario",
                 id="header-only"),
    pytest.param(lambda doc: None, 1, FAIL, "DIVERGED in rendering", id="rendering-only"),
])
def test_replay_names_the_first_difference(tmp_path, capsys, edit, indent, code, message):
    trace = tmp_path / "t.json"
    invoke(capsys, "run", fx("do-simple.psm"), fx("do-simple.scn"), "--trace-out", str(trace))
    doc = json.loads(trace.read_text())
    edit(doc)
    trace.write_text(json.dumps(doc, sort_keys=True, indent=indent, separators=(",", ":")) + "\n")
    got, out, err = invoke(capsys, "replay", fx("do-simple.psm"), fx("do-simple.scn"), str(trace))
    assert got == code
    assert message in out + err


def test_run_with_script_strategy(tmp_path, capsys):
    trace = tmp_path / "t.json"
    invoke(
        capsys, "run", fx("accept-race.psm"), fx("accept-race.scn"),
        "--strategy", "random", "--seed", "4", "--trace-out", str(trace),
    )
    code, out, _ = invoke(
        capsys, "run", fx("accept-race.psm"), fx("accept-race.scn"),
        "--strategy", f"script:{trace}",
    )
    assert code == OK


def edited_golden(edit) -> str:
    """The golden first-strategy trace of measurement, edited by `edit`."""
    doc = json.loads((fixture_path("golden") / "measurement.measurement.first.json").read_text())
    edit(doc)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("text", [
    "not json at all",
    '{"format":"nope"}',
    '{"format":"statebench-trace"}',
    '{"format":"statebench-trace","version":1}',
    pytest.param(edited_golden(lambda doc: doc.update(version=7)), id="version-7"),
    pytest.param(edited_golden(lambda doc: doc["records"][0].update(i=5)), id="record-0-numbered-5"),
])
@pytest.mark.parametrize("how", ["replay", "script"])
def test_bad_trace_file_is_an_input_error(tmp_path, capsys, text, how):
    trace = tmp_path / "t.json"
    trace.write_text(text)
    model, scn = fx("measurement.psm"), fx("measurement.scn")
    argv = ("replay", model, scn, str(trace)) if how == "replay" else ("run", model, scn, "--strategy", f"script:{trace}")
    code, _, err = invoke(capsys, *argv)
    assert code == PARSE
    assert len(err.splitlines()) == 1 and str(trace) in err


def test_unknown_strategy_is_an_input_error(capsys):
    code, _, err = invoke(capsys, "run", fx("measurement.psm"), fx("measurement.scn"), "--strategy", "bogus")
    assert code == PARSE
    assert err.strip() == "unknown strategy 'bogus'"


# --- explore ---------------------------------------------------------------------


def test_explore_text(capsys):
    code, out, _ = invoke(
        capsys, "explore", fx("accept-defer.psm"), fx("accept-defer.scn")
    )
    assert code == OK
    assert "complete traces: 4" in out
    assert "signal classes: 1" in out
    assert out.count("all") >= 2  # both expectations verified over every schedule


def test_explore_classes_listing(capsys):
    code, out, _ = invoke(
        capsys, "explore", fx("do-simple.psm"), fx("do-simple.scn"), "--classes"
    )
    assert "complete traces: 10" in out
    assert "6" in out and "4" in out


def test_explore_failing_expectation(tmp_path, capsys):
    scn = tmp_path / "some.scn"
    scn.write_text("scenario some { inject e1; expect emits progress; }\n")
    code, out, _ = invoke(capsys, "explore", fx("do-simple.psm"), str(scn))
    assert code == FAIL
    assert "some" in out


def test_explore_structured(capsys):
    code, out, _ = invoke(
        capsys, "explore", fx("composite-work.psm"), fx("composite-work.scn"),
        "--format", "structured",
    )
    assert code == OK
    doc = json.loads(out)
    # counts are strings: class sizes are exact big ints, json numbers are not
    assert doc["complete_traces"] == "204"
    assert doc["signal_classes"] == 1
    assert [v["verdict"] for v in doc["verdicts"]] == ["all"]


def test_explore_truncation_exit(capsys):
    code, _, _ = invoke(
        capsys, "explore", fx("composite-work.psm"), fx("composite-work.scn"),
        "--max-steps", "10",
    )
    assert code in (FAIL, BUDGET)  # tiny bound: verdicts degrade or pure budget
    assert code != OK


@pytest.mark.parametrize(
    "command,flag,value",
    [(c, f, "-1") for c in ("run", "explore") for f in ("--max-steps", "--max-pool")]
    + [("explore", "--max-traces", "3")],  # the flag is gone; it changed no output
)
def test_bad_bound_flag_is_an_argument_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, fx("do-simple.psm"), fx("do-simple.scn"), flag, value])
    assert exc.value.code == PARSE
    assert flag in capsys.readouterr().err


def test_explore_deep_step_bound_exits_budget():
    # a completion self-loop never ends, so the walk is 20,000 micro-steps
    # deep; a subprocess keeps an interpreter crash out of this one
    src = str(Path(statebench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "statebench.cli", "explore", fx("completion-self-loop.psm"),
         fx("completion-self-loop.scn"), "--max-steps", "20000"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == BUDGET, proc.stderr


def test_explore_out_of_memory_exits_budget(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("statebench.cli.explore", exhausted)
    code, _, err = invoke(capsys, "explore", fx("do-simple.psm"), fx("do-simple.scn"))
    assert code == BUDGET
    assert len(err.splitlines()) == 1


def test_explore_default_bounds_match_the_library(capsys):
    # a completion self-loop runs until the step bound, so the node count
    # shows where each side cuts
    m = statebench.load_model(fx("completion-self-loop.psm"))
    scn = statebench.load_scenario(fx("completion-self-loop.scn"), m)
    code, out, _ = invoke(
        capsys, "explore", fx("completion-self-loop.psm"), fx("completion-self-loop.scn"),
        "--format", "structured",
    )
    assert code == BUDGET
    assert json.loads(out)["nodes"] == statebench.explore(m, scn).stats.nodes


# --- lint --------------------------------------------------------------------------


def test_lint_reports_findings(capsys):
    code, out, _ = invoke(capsys, "lint", fx("measurement.psm"))
    assert code == FAIL
    assert "main.Active: doInCompositeParent" in out


def test_lint_clean_machine(tmp_path, capsys):
    model = tmp_path / "plain.psm"
    model.write_text(
        "machine Plain {\n"
        "  signals go;\n"
        "  region main {\n"
        "    initial -> A;\n"
        "    state A { }\n"
        "    state B { }\n"
        "    transition T: A -> B on go;\n"
        "  }\n"
        "}\n"
    )
    code, out, _ = invoke(capsys, "lint", str(model))
    assert code == OK
    assert "no findings" in out


def test_lint_explain(capsys):
    code, out, _ = invoke(capsys, "lint", fx("do-simple.psm"), "--explain")
    assert code == FAIL
    assert "doInSimpleState" in out
    assert "lateStart:" in out  # issue descriptions follow the explanation


def test_lint_structured(capsys):
    code, out, _ = invoke(
        capsys, "lint", fx("measurement.psm"), "--format", "structured"
    )
    assert code == FAIL
    doc = json.loads(out)
    states = {f["state"] for f in doc["findings"]}
    assert "main.Active" in states
    for f in doc["findings"]:
        assert f["issues"] and all("severity" in i for i in f["issues"])


def test_lint_severity_threshold(capsys):
    code, out, _ = invoke(
        capsys, "lint", fx("nested-do.psm"), "--severity", "important"
    )
    # doInSubstate carries no important hazards: nothing to report
    assert code == OK


# --- parse failures -------------------------------------------------------------------


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.psm"
    bad.write_text("machine Bad { region main { initial -> Nowhere; } }\n")
    code, _, err = invoke(capsys, "run", str(bad), fx("measurement.scn"))
    assert code == PARSE
    assert err.strip()


@pytest.mark.parametrize("literal", ["\u00b2", "9" * 5000], ids=["superscript-two", "5000-digits"])
def test_unreadable_integer_literal_is_a_parse_error(tmp_path, capsys, literal):
    # str.isdigit holds for '²', and int() reads at most 4,300 digits
    model = tmp_path / "m.psm"
    model.write_text("machine M { signals e; vars x; activity a { x := " + literal + "; }"
                     " region main { initial -> S; state S { do a; } } }\n", encoding="utf-8")
    code, _, err = invoke(capsys, "lint", str(model))
    assert code == PARSE
    assert len(err.splitlines()) == 1 and "BadInteger" in err


def nested_model(depth):
    """A machine whose regions and states nest `depth` levels deep."""
    return ("machine Deep { signals e; "
            + "".join(f"region r{i} {{ initial -> S{i}; state S{i} {{ " for i in range(depth))
            + "} } " * depth + "}\n")


@pytest.mark.parametrize("command", ["lint", "run"])
def test_deeply_nested_model_exits_budget(tmp_path, capsys, command):
    # the parser recurses once per level; 1,000 levels exceed the stack
    model = tmp_path / "deep.psm"
    model.write_text(nested_model(1000))
    scn = tmp_path / "s.scn"
    scn.write_text("scenario s { }\n")
    argv = (command, str(model)) + ((str(scn),) if command == "run" else ())
    code, _, err = invoke(capsys, *argv)
    assert code == BUDGET
    assert len(err.splitlines()) == 1


def test_model_nested_400_levels_parses_lints_and_runs():
    # the parser and validator recurse a few frames per level, so each frame
    # added per level lowers the depth a model may reach
    m = parse_model(nested_model(400)).model
    assert m is not None
    assert lint(m) == []
    result = run(m, parse_scenario("scenario s { }", m).scenario)
    assert result.trace.records


@pytest.mark.parametrize("command", ["lint", "run"])
def test_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    argv = (command, str(bad)) if command == "lint" else (command, fx("measurement.psm"), str(bad))
    code, _, err = invoke(capsys, *argv)
    assert code == PARSE
    assert len(err.splitlines()) == 1 and str(bad) in err


def test_missing_file_exit_code(capsys):
    code, _, err = invoke(capsys, "lint", "/nonexistent/thing.psm")
    assert code == PARSE
    assert err.strip()


def test_scenario_parse_error(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("scenario bad { inject unknownSignal; }\n")
    code, _, err = invoke(capsys, "run", fx("measurement.psm"), str(scn))
    assert code == PARSE
    assert "unknown" in err.lower()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "statebench" in capsys.readouterr().out


# --- the README's examples -----------------------------------------------------------

README = Path(__file__).parent.parent / "README.md"


def readme_examples():
    """Each README code block that starts with a `$ statebench` command, by
    subcommand: its arguments and the output lines it shows."""
    blocks = [b.strip("\n").splitlines() for b in README.read_text(encoding="utf-8").split("```")[1::2]]
    commands = [(shlex.split(b[0])[2:], b[1:]) for b in blocks if b and b[0].startswith("$ statebench ")]
    return {argv[0]: (argv, shown) for argv, shown in commands}


@pytest.mark.parametrize("command", ["run", "explore", "lint"])
def test_readme_example_prints_what_it_shows(capsys, monkeypatch, command):
    # the lint example abbreviates its explanation, so only its first line,
    # the finding, is compared
    argv, shown = readme_examples()[command]
    monkeypatch.chdir(README.parent)
    _, out, _ = invoke(capsys, *argv)
    n = 1 if command == "lint" else None
    assert out.splitlines()[:n] == shown[:n]
