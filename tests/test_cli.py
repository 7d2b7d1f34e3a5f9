import json
import subprocess
import sys

import pytest

from conftest import GOLDEN_DIR, SCENARIO_PATH, child_env


def run_cli(*args, stdin_text=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "aptbot", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
        timeout=60,
    )


GOAL = "item=aspirin; qty=2; companion=water; time=10:00pm; room=living room"


def test_run_medication_scenario_outputs_match_goldens(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("run", "--scenario", str(SCENARIO_PATH), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "request 1: fulfilled\n"
    for name in ("transcript.txt", "plan.txt", "events.txt"):
        produced = (out / "request_001" / name).read_bytes()
        golden = (GOLDEN_DIR / name).read_bytes()
        assert produced == golden, f"{name} differs from golden"


def test_run_is_byte_reproducible(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_cli("run", "--scenario", str(SCENARIO_PATH), "--out", str(first))
    run_cli("run", "--scenario", str(SCENARIO_PATH), "--out", str(second))
    for name in ("transcript.txt", "plan.txt", "events.txt"):
        a = (first / "request_001" / name).read_bytes()
        b = (second / "request_001" / name).read_bytes()
        assert a == b


def test_run_missing_scenario_exits_2(tmp_path):
    proc = run_cli("run", "--scenario", str(tmp_path / "absent.scenario"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_run_unfulfilled_request_exits_1(tmp_path):
    scenario = {
        "script": [{"match": {"contains": "categorize it"}, "response": "(D)"}],
        "requests": ["do something impossible"],
    }
    path = tmp_path / "reject.scenario"
    path.write_text(json.dumps(scenario))
    proc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stdout == "request 1: rejected_unknown_type\n"
    assert (tmp_path / "out" / "request_001" / "plan.txt").read_text() == ""
    assert (tmp_path / "out" / "request_001" / "events.txt").read_text() == ""


DEFAULT_FACILITIES = [
    {"kind": "water_cooler", "location": "kitchen", "stock": {"water": None}},
    {"kind": "medicine_box", "location": "storeroom", "stock": {"aspirin": 10}},
    {"kind": "charging_port", "location": "living_room"},
]


@pytest.mark.parametrize(
    "world",
    [
        {"facilities": [*DEFAULT_FACILITIES, {"kind": "fridge", "stock": {"milk": 2}}]},
        {"capacity": "two"},
        {"clock_start": 99999},
        {"clock_start": "25:00pm"},
        {"stock": {"medicine_box": {"aspirin": "ten"}}},
        {
            "facilities": [
                *DEFAULT_FACILITIES,
                {"kind": "fridge", "location": "bedroom", "stock": {"water": 3}},
            ]
        },
    ],
    ids=["facility-without-location", "capacity-not-int", "clock-start-out-of-day",
         "clock-start-malformed", "stock-not-int", "item-in-two-facilities"],
)
def test_run_rejects_bad_world_section_with_exit_2(tmp_path, world):
    scenario = json.loads(SCENARIO_PATH.read_text())
    scenario["world"] = world
    path = tmp_path / "bad_world.scenario"
    path.write_text(json.dumps(scenario))
    proc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: world section:")


def test_validate_ok_prints_schedule(tmp_path):
    proc = run_cli(
        "validate", str(GOLDEN_DIR / "plan.txt"), "--goal", GOAL
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "9:56pm -> 9:58pm  Move to the storeroom"
    assert lines[-1] == "10:07pm -> 10:07pm  Start charging"
    assert len(lines) == 8


def test_validate_empty_plan_reports_goal_unmet(tmp_path):
    plan = tmp_path / "empty.txt"
    plan.write_text("")
    proc = run_cli("validate", str(plan), "--goal", GOAL)
    assert proc.returncode == 1
    assert proc.stdout == "VIOLATION GoalUnmet missing=aspirin:2,water:1\n"


def test_validate_malformed_goal_exits_2(tmp_path):
    plan = tmp_path / "empty.txt"
    plan.write_text("")
    proc = run_cli("validate", str(plan), "--goal", "item=aspirin")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_validate_missing_plan_file_exits_2(tmp_path):
    proc = run_cli("validate", str(tmp_path / "absent.txt"), "--goal", GOAL)
    assert proc.returncode == 2


def test_validate_unparseable_plan_exits_2(tmp_path):
    plan = tmp_path / "bad.txt"
    plan.write_text("[9:5xpm] Move to the kitchen\n")
    proc = run_cli("validate", str(plan), "--goal", GOAL)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_validate_with_world_override(tmp_path):
    scenario = tmp_path / "short.scenario"
    scenario.write_text(
        json.dumps({"world": {"stock": {"medicine_box": {"aspirin": 1}}}})
    )
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "[9:56pm] Move to the storeroom\n[9:58pm] Pick 2 aspirin\n"
    )
    goal = "item=aspirin; qty=2; companion=none; time=10:05pm; room=storeroom"
    proc = run_cli(
        "validate", str(plan), "--world", str(scenario), "--goal", goal
    )
    assert proc.returncode == 1
    assert "ItemUnavailable" in proc.stdout


def test_repl_scripted_session(tmp_path):
    stdin_text = (
        "please bring me two pills of aspirin with a glass of water "
        "at 10:00pm in the living room\n"
        ":quit\n"
    )
    proc = run_cli("repl", "--scenario", str(SCENARIO_PATH), stdin_text=stdin_text)
    assert proc.returncode == 0, proc.stderr
    assert "[9:56pm] Move to the storeroom" in proc.stdout
    assert "10:07pm charge_start" in proc.stdout
    assert "status: fulfilled" in proc.stdout


def test_repl_blank_lines_do_not_consume_script(tmp_path):
    stdin_text = (
        "\n\n"
        "please bring me two pills of aspirin with a glass of water "
        "at 10:00pm in the living room\n"
    )
    proc = run_cli("repl", "--scenario", str(SCENARIO_PATH), stdin_text=stdin_text)
    assert proc.returncode == 0
    assert "status: fulfilled" in proc.stdout


def test_repl_eof_exits_cleanly():
    proc = run_cli("repl", "--scenario", str(SCENARIO_PATH), stdin_text="")
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_repl_without_scenario_requires_env(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "aptbot", "repl"],
        input="",
        capture_output=True,
        text=True,
        env=child_env({"PATH": "/usr/bin:/bin"}),
        timeout=60,
    )
    assert proc.returncode == 2
    assert "LCAC_API_URL" in proc.stderr


def test_cli_import_loads_no_network_stack():
    network = ("requests", "urllib3", "http.client", "urllib.request", "ssl", "socket")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import aptbot.cli, sys; "
            f"print(' '.join(m for m in {network!r} if m in sys.modules))",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_no_subcommand_exits_2():
    proc = run_cli()
    assert proc.returncode == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        ["aptbot", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "repl" in proc.stdout
    assert "validate" in proc.stdout
