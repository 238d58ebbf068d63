"""Tests of the benchmark itself: `python3 -m pytest benchmarks`.

Tiny runs go through a child process each, as the real runs do, because a
run re-imports statebench for every set-up repetition.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"explore-s3": 2, "run-replay": None, "frontend-wide": 8}

sys.path.insert(0, str(HERE))
import gen  # noqa: E402


def tiny_run(workload: str, trace: bool, pins: Path = HERE / "pins.json") -> dict:
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        f"r = run.measure({workload!r}, 1, 0.3, {trace}, run.load_pins({str(pins)!r}), size={TINY[workload]!r})\n"
        "print(json.dumps(r['result']))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_generator_is_deterministic():
    assert gen.machine_text(3) == gen.machine_text(3)
    assert gen.scenario_text(3, ("emits m_0",)) == gen.scenario_text(3, ("emits m_0",))
    assert gen.machine_text(2) != gen.machine_text(3)


@pytest.mark.parametrize("n, nodes, edges", [(2, 885, 1477), (3, 38674, 83929)])
def test_generator_reproduces_baseline_dag(n, nodes, edges):
    sys.path.insert(0, str(ROOT / "src"))
    from statebench.explorer import explore
    from statebench.parser import parse_model, parse_scenario

    model = parse_model(gen.machine_text(n)).model
    scenario = parse_scenario(gen.scenario_text(n), model).scenario
    stats = explore(model, scenario).stats
    assert (stats.nodes, stats.edges) == (nodes, edges)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


WRONG_PINS = {
    "explore-s3": ("s2", "complete_traces", "284446759"),
    "run-replay": ("measurement", "expect_pass", ["eventually-active Standby", "eventually-active MeasureTemp"]),
    "frontend-wide": ("wide-s8", "digest", "0" * 64),
}


@pytest.mark.parametrize("workload", list(WRONG_PINS))
def test_wrong_pin_counts_as_failure(workload, tmp_path):
    pins = json.loads((HERE / "pins.json").read_text())
    key, field, value = WRONG_PINS[workload]
    pins[key][field] = value
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    result = tiny_run(workload, False, path)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "run-replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
