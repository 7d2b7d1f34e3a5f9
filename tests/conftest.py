import os
import sys
import warnings
from pathlib import Path

# Set before aptbot is first imported, so a test run leaves no `__pycache__`
# in `src/`: cached bytecode there makes later cold starts read faster.
sys.dont_write_bytecode = True

import pytest
from hypothesis import strategies as st

from aptbot.clock import parse_clock
from aptbot.validator import Goal
from aptbot.world import world_from_config

GOLDEN_DIR = Path(__file__).parent / "golden"
SCENARIO_PATH = Path(__file__).parent.parent / "scenarios" / "medication.scenario"
SRC_DIR = Path(__file__).parent.parent / "src"


def pytest_configure(config):
    # The first text draw builds Hypothesis's unicode interval table, and
    # caches it under `.hypothesis/`. In a fresh checkout that takes seconds;
    # built inside a property test it fails the too_slow health check.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        st.text().example()


def child_env(base=None) -> dict:
    """Environment for a child Python process that imports aptbot from `src`.

    Starts from `base` (default: this process's environment) and puts `src`
    first on PYTHONPATH, so subprocess tests run from a bare checkout.
    PYTHONDONTWRITEBYTECODE is always set, so no child writes `__pycache__`
    into the checkout.
    """
    env = dict(os.environ if base is None else base)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    return env

CANONICAL_PLAN = """[9:56pm] Move to the storeroom
[9:58pm] Pick 2 aspirin
[9:59pm] Move to the kitchen
[10:01pm] Fill glass with water
[10:02pm] Move to the living room
[10:04pm] Deliver 2 aspirin and 1 water to the living room
[10:05pm] Dock at the charging port
[10:07pm] Start charging"""


def small_world():
    """Three rooms whose travel breaks the triangle inequality, with the port
    and unbounded water in `hall`, one aspirin in `store`, and capacity 1."""
    return world_from_config({
        "rooms": ["hall", "kitchen", "store"],
        "travel": {"hall,kitchen": 1, "kitchen,store": 5, "hall,store": 2},
        "facilities": [
            {"kind": "charging_port", "location": "hall"},
            {"kind": "water_cooler", "location": "hall", "stock": {"water": None}},
            {"kind": "medicine_box", "location": "store", "stock": {"aspirin": 1}},
        ],
        "capacity": 1,
    })


@pytest.fixture
def world():
    return world_from_config({})


@pytest.fixture
def medication_goal():
    return Goal(
        deliveries=(("aspirin", 2), ("water", 1)),
        destination="living_room",
        target_time=parse_clock("10:00pm"),
        tolerance=5,
    )


@pytest.fixture
def scenario_path():
    return SCENARIO_PATH
