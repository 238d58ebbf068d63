from __future__ import annotations

from pathlib import Path

import pytest

from statebench.parser import load_model, load_scenario

FIXTURES = Path(__file__).parent / "fixtures"

# (machine, scenario) for every fixture scenario: each runs on the machine
# of the same name, except composite-complete, which runs on composite-work
FIXTURE_PAIRS = sorted(
    (p.stem if (FIXTURES / f"{p.stem}.psm").exists() else "composite-work", p.stem)
    for p in FIXTURES.glob("*.scn")
)


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def machine(name: str):
    return load_model(str(FIXTURES / f"{name}.psm"))


def scenario_for(name: str, model=None):
    model = model if model is not None else machine(name)
    return load_scenario(str(FIXTURES / f"{name}.scn"), model)


@pytest.fixture
def measurement():
    return machine("measurement")


@pytest.fixture
def measurement_scenario(measurement):
    return scenario_for("measurement", measurement)
