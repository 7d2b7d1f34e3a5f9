import copy
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aptbot.agent import FULFILLED, PLAN_FAILED, handle_request
from aptbot.cli import fresh_arm, main
from aptbot.plan import action_phrase
from aptbot.prompts import RequestType, default_templates
from aptbot.scenario import load_scenario
from aptbot.validator import DurationModel
from aptbot.world import world_from_config
from conftest import CANONICAL_PLAN, GOLDEN_DIR, SCENARIO_PATH, child_env
from stub_server import StubChatServer


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

BAD_SECTIONS = {
    "facility-without-location": (
        "world", {"facilities": [*DEFAULT_FACILITIES, {"kind": "fridge", "stock": {"milk": 2}}]}
    ),
    "capacity-not-int": ("world", {"capacity": "two"}),
    "clock-start-out-of-day": ("world", {"clock_start": 99999}),
    "clock-start-a-day-in": ("world", {"clock_start": 1440}),
    "clock-start-malformed": ("world", {"clock_start": "25:00pm"}),
    "stock-not-int": ("world", {"stock": {"medicine_box": {"aspirin": "ten"}}}),
    "item-in-two-facilities": (
        "world",
        {
            "facilities": [
                *DEFAULT_FACILITIES,
                {"kind": "fridge", "location": "bedroom", "stock": {"water": 3}},
            ]
        },
    ),
    "world-not-object": ("world", []),
    "no-charging-port": ("world", {"facilities": DEFAULT_FACILITIES[:2]}),
    "two-charging-ports": (
        "world",
        {"facilities": [*DEFAULT_FACILITIES, {"kind": "charging_port", "location": "bedroom"}]},
    ),
    "repeated-room": ("world", {"rooms": ["living_room", "kitchen", "kitchen", "storeroom"]}),
    "rooms-string": ("world", {"rooms": "kitchen"}),
    "room-not-string": ("world", {"rooms": ["kitchen", 1]}),
    "facilities-not-list": ("world", {"facilities": 3}),
    "facility-not-object": ("world", {"facilities": [*DEFAULT_FACILITIES, 1]}),
    "facility-kind-not-string": (
        "world", {"facilities": [*DEFAULT_FACILITIES, {"kind": 3, "location": "bedroom"}]}
    ),
    "facility-stock-null": (
        "world", {"facilities": [{**DEFAULT_FACILITIES[0], "stock": None}, *DEFAULT_FACILITIES[1:]]}
    ),
    "stock-override-not-object": ("world", {"stock": {"medicine_box": 3}}),
    "travel-not-object": ("world", {"travel": [1]}),
    "travel-minutes-bool": ("world", {"travel": {"kitchen,bedroom": True}}),
    "travel-minutes-negative": ("world", {"travel": {"kitchen,bedroom": -1}}),
    "facility-in-unknown-room": (
        "world", {"facilities": [*DEFAULT_FACILITIES, {"kind": "fridge", "location": "attic"}]}
    ),
    "stock-negative": ("world", {"stock": {"medicine_box": {"aspirin": -1}}}),
    "stock-override-unknown-facility": ("world", {"stock": {"fridge": {"milk": 1}}}),
    "capacity-negative": ("world", {"capacity": -1}),
    "max-retries-negative": ("config", {"max_retries": -1}),
    "tolerance-negative": ("config", {"tolerance": -1}),
    "token-budget-zero": ("config", {"token_budget": 0}),
    "max-output-tokens-string": ("config", {"max_output_tokens": "abc"}),
    "temperature-out-of-range": ("config", {"temperature": 9}),
    "temperature-too-big-for-a-float": ("config", {"temperature": 10**400}),
    "duration-negative": ("config", {"durations": {"pick": -1}}),
    "duration-string": ("config", {"durations": {"pick": "x"}}),
    "max-retries-float": ("config", {"max_retries": 2.9}),
    "max-retries-bool": ("config", {"max_retries": True}),
    "model-not-string": ("config", {"model": [1]}),
    "contains-not-string": ("script", [{"match": {"contains": 5}, "response": "(A)"}]),
    "step-not-int": ("script", [{"match": {"step": "x"}, "response": "(A)"}]),
    "step-zero": ("script", [{"match": {"step": 0}, "response": "(A)"}]),
    "step-bool": ("script", [{"match": {"step": True}, "response": "(A)"}]),
    "description-not-string": ("templates", {"a_take_medicine": {"description": 3}}),
    "description-with-marker": ("templates", {"a_take_medicine": {"description": "see {0}"}}),
    "examples-not-string": ("templates", {"a_take_medicine": {"examples": ["x"]}}),
    "request-with-marker": ("requests", ["bring {0} water"]),
}


@pytest.mark.parametrize(
    "section, value", list(BAD_SECTIONS.values()), ids=list(BAD_SECTIONS)
)
def test_run_rejects_bad_world_section_with_exit_2(tmp_path, section, value):
    scenario = json.loads(SCENARIO_PATH.read_text())
    scenario[section] = value
    path = tmp_path / "bad_world.scenario"
    path.write_text(json.dumps(scenario))
    proc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    prefix = {"world": "error: world section:", "script": "error: script entry 0:"}.get(
        section, "error:"
    )
    assert proc.stderr.startswith(prefix)
    assert proc.stderr.count("\n") == 1


NESTED_FIELD_ERRORS = {
    "description-not-string":
        "error: template 'a_take_medicine': description must be a string, got 3\n",
    "facility-stock-null":
        "error: world section: facility 'water_cooler': stock must be an object, got None\n",
    "facility-kind-not-string":
        "error: world section: facility 3: kind must be a string, got 3\n",
    "stock-override-not-object":
        "error: world section: stock override for 'medicine_box' must be an object, got 3\n",
}


@pytest.mark.parametrize("case", list(NESTED_FIELD_ERRORS))
def test_nested_field_error_names_its_template_or_facility(tmp_path, case):
    section, value = BAD_SECTIONS[case]
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps({**json.loads(SCENARIO_PATH.read_text()), section: value}))
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert stderr.getvalue() == NESTED_FIELD_ERRORS[case]


LONE_SURROGATE_SCENARIO = json.dumps(
    {**json.loads(SCENARIO_PATH.read_text()), "requests": ["bring water \ud800 please"]}
).encode()
# json.dumps cannot write an integer this long either, so it is spliced in.
LONG_INTEGER_SCENARIO = json.dumps(
    {**json.loads(SCENARIO_PATH.read_text()), "world": {"capacity": 0}}
).replace('"capacity": 0', '"capacity": ' + "1" * 4301).encode()


@pytest.mark.parametrize(
    "content",
    [
        b'{"requests": ["caf\xe9"]}',
        b'{"requests": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        LONE_SURROGATE_SCENARIO,
        LONG_INTEGER_SCENARIO,
    ],
    ids=["non-utf8", "deeply-nested", "lone-surrogate", "integer-too-long"],
)
def test_run_undecodable_scenario_exits_2(tmp_path, content):
    path = tmp_path / "bad.scenario"
    path.write_bytes(content)
    proc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and str(path) in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "request_001").exists()


@pytest.mark.parametrize("case", ["plan-count", "scenario-integer"])
def test_digit_bound_holds_whatever_the_interpreters_limit(tmp_path, case):
    """An interpreter told to read integers of any length (limit 0) still
    refuses the 4,301-digit count or integer, exactly as by default."""
    if case == "plan-count":
        path = tmp_path / "plan.txt"
        path.write_text("[9:56pm] Pick " + "1" * 4301 + " aspirin")
        args = ["validate", str(path), "--goal", GOAL]
    else:
        path = tmp_path / "long.scenario"
        path.write_bytes(LONG_INTEGER_SCENARIO)
        args = ["run", "--scenario", str(path), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-m", "aptbot", *args], capture_output=True, text=True,
        env={**child_env(), "PYTHONINTMAXSTRDIGITS": "0"}, timeout=60,
    )
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_run_unwritable_out_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = run_cli("run", "--scenario", str(SCENARIO_PATH), "--out", str(blocker / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_validate_ok_prints_schedule(tmp_path):
    proc = run_cli(
        "validate", str(GOLDEN_DIR / "plan.txt"), "--goal", GOAL
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "9:56pm -> 9:58pm  Move to the storeroom",
        "9:58pm -> 9:59pm  Pick 2 aspirin",
        "9:59pm -> 10:01pm  Move to the kitchen",
        "10:01pm -> 10:02pm  Fill glass with water",
        "10:02pm -> 10:04pm  Move to the living room",
        "10:04pm -> 10:05pm  Deliver 2 aspirin and 1 water to the living room",
        "10:05pm -> 10:07pm  Dock at the charging port",
        "10:07pm -> 10:07pm  Start charging",
    ]


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


# Each qty reads as a count, but with the companion's 1 the aspirin total has
# 4,301 digits, one more than any count may have.
LONG_TOTAL_GOAL = (
    "item=aspirin; qty=" + "9" * 4300 + "; companion=aspirin; time=10:00pm; room=living room"
)


def test_validate_goal_total_of_too_many_digits_exits_2():
    proc = run_cli("validate", str(GOLDEN_DIR / "plan.txt"), "--goal", LONG_TOTAL_GOAL)
    assert proc.returncode == 2, proc.stderr[-300:]
    assert proc.stderr.startswith("error: qty has too many digits: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_run_asks_again_for_a_goal_total_of_too_many_digits(tmp_path):
    raw = json.loads(SCENARIO_PATH.read_text(encoding="utf-8"))
    raw["script"][1]["response"] = LONG_TOTAL_GOAL
    path = tmp_path / "long_total.scenario"
    path.write_text(json.dumps(raw), encoding="utf-8")
    proc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
    # The script holds no reply to the goal-repair prompt, so the request fails.
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "request 1: backend_failed\n", "")
    raw["script"].insert(2, {"match": {"contains": "(qty has too many digits)"}, "response": GOAL})
    path.write_text(json.dumps(raw), encoding="utf-8")
    proc = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "request 1: fulfilled\n", "")


def test_validate_missing_plan_file_exits_2(tmp_path):
    proc = run_cli("validate", str(tmp_path / "absent.txt"), "--goal", GOAL)
    assert proc.returncode == 2


def test_validate_non_utf8_plan_exits_2(tmp_path):
    plan = tmp_path / "latin1.txt"
    plan.write_bytes(b"[9:56pm] Move to the caf\xe9\n")
    proc = run_cli("validate", str(plan), "--goal", GOAL)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_validate_unparseable_plan_exits_2(tmp_path):
    plan = tmp_path / "bad.txt"
    plan.write_text("[9:5xpm] Move to the kitchen\n")
    proc = run_cli("validate", str(plan), "--goal", GOAL)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_validate_plan_naming_a_room_the_world_lacks_exits_2(tmp_path):
    plan = tmp_path / "attic.txt"
    plan.write_text("[9:56pm] Move to the attic\n")
    proc = run_cli("validate", str(plan), "--goal", GOAL)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: unknown room 'attic'\n"


def test_validate_plan_with_a_non_decimal_count_names_the_unknown_item(tmp_path):
    plan = tmp_path / "superscript.txt"
    plan.write_text("[9:56pm] Pick ² aspirin\n", encoding="utf-8")
    proc = run_cli("validate", str(plan), "--goal", GOAL)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: unknown item '² aspirin'\n"


def test_validate_move_too_early_for_the_day_is_judged_as_a_violation(tmp_path):
    plan = tmp_path / "early.txt"
    plan.write_text("[12:01am] Pick 2 aspirin\n")
    proc = run_cli("validate", str(plan), "--goal", GOAL)
    assert proc.returncode == 1, proc.stderr
    assert "VIOLATION TravelInfeasible index=0 needed=2 available=1\n" in proc.stdout


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


def test_validate_with_world_uses_the_scenarios_durations_and_tolerance(tmp_path):
    # With a 1-minute dock, charging may start at 10:06pm; `run` fulfils
    # this plan, so `validate --world` on the same scenario must accept it.
    raw = json.loads(SCENARIO_PATH.read_text(encoding="utf-8"))
    raw["config"] = {"durations": {"dock": 1}}
    reply = raw["script"][2]["response"]
    raw["script"][2]["response"] = reply.replace(
        "[10:07pm] Start charging", "[10:06pm] Start charging"
    )
    scenario = tmp_path / "quick_dock.scenario"
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    proc = run_cli("run", "--scenario", str(scenario), "--out", str(out))
    assert proc.stdout == "request 1: fulfilled\n", proc.stderr
    plan = out / "request_001" / "plan.txt"
    proc = run_cli("validate", str(plan), "--world", str(scenario), "--goal", GOAL)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[-1] == "10:06pm -> 10:06pm  Start charging"
    # The delivery ends at 10:05pm: inside the default 5-minute window, but
    # outside a scenario's 4-minute one.
    raw["config"] = {"tolerance": 4}
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    proc = run_cli("validate", str(GOLDEN_DIR / "plan.txt"), "--world", str(scenario), "--goal", GOAL)
    assert proc.returncode == 1
    assert proc.stdout == "VIOLATION DeadlineMissed actual=10:05pm target=10:00pm tolerance=4\n"


def test_repl_scripted_session(tmp_path):
    stdin_text = (
        "please bring me two pills of aspirin with a glass of water "
        "at 10:00pm in the living room\n"
        ":quit\n"
    )
    proc = run_cli("repl", "--scenario", str(SCENARIO_PATH), stdin_text=stdin_text)
    assert proc.returncode == 0, proc.stderr
    golden = [(GOLDEN_DIR / name).read_text(encoding="utf-8") for name in ("plan.txt", "events.txt")]
    assert proc.stdout == "".join(golden) + "status: fulfilled\n"


def test_repl_blank_lines_do_not_consume_script(tmp_path):
    stdin_text = (
        "\n\n"
        "please bring me two pills of aspirin with a glass of water "
        "at 10:00pm in the living room\n"
    )
    proc = run_cli("repl", "--scenario", str(SCENARIO_PATH), stdin_text=stdin_text)
    assert proc.returncode == 0
    assert "status: fulfilled" in proc.stdout


def test_repl_reports_request_with_scaffold_marker_and_continues():
    stdin_text = (
        "bring {1} to me\n"
        "please bring me two pills of aspirin with a glass of water "
        "at 10:00pm in the living room\n"
    )
    proc = run_cli("repl", "--scenario", str(SCENARIO_PATH), stdin_text=stdin_text)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("error: question must not contain scaffold marker {1}\n")
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


def test_repl_without_scenario_runs_the_default_apartment_over_http():
    slot_line = "item=aspirin; qty=2; companion=water; time=10:00pm; room=living room"
    with StubChatServer() as server:
        for reply in ("(A)", slot_line, CANONICAL_PLAN):
            server.queued.append((200, {"choices": [{"message": {"content": reply}}]}))
        env = child_env()
        env.update(LCAC_API_URL=server.url, LCAC_API_KEY="stub-key", LCAC_MODEL="stub-model")
        proc = subprocess.run(
            [sys.executable, "-m", "aptbot", "repl"],
            input="please bring me two pills of aspirin with a glass of water "
            "at 10:00pm in the living room\n",
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
    assert proc.returncode == 0, proc.stderr
    assert "status: fulfilled" in proc.stdout
    assert len(server.bodies) == 3
    assert [body["model"] for body in server.bodies] == ["stub-model"] * 3
    description = default_templates(world_from_config({}))[RequestType.A_TAKE_MEDICINE].description
    assert description in server.bodies[2]["messages"][-1]["content"]


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


def _loaded_by(modules: str) -> set[str]:
    """The modules that `import <modules>` adds to a fresh interpreter's sys.modules."""
    code = (
        "import sys; before = set(sys.modules); "
        f"import {modules}; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_planning_modules_load_no_agent_stack():
    planning = ("world", "plan", "validator", "oracle", "simulator")
    loaded = _loaded_by(", ".join(f"aptbot.{name}" for name in planning))
    agent_stack = {f"aptbot.{name}" for name in ("agent", "gateway", "prompts", "scenario", "cli")}
    assert "aptbot.oracle" in loaded
    assert loaded & agent_stack == set()


def test_prompts_import_loads_no_gateway():
    loaded = _loaded_by("aptbot.prompts")
    assert "aptbot.prompts" in loaded
    assert "aptbot.gateway" not in loaded


def test_cli_import_loads_no_oracle():
    loaded = _loaded_by("aptbot.cli")
    assert "aptbot.agent" in loaded
    assert "aptbot.oracle" not in loaded


def test_cli_import_loads_no_dataclasses():
    # Records are plain classes: `dataclasses` and the `inspect` it pulls in
    # would cost every cold start.
    loaded = _loaded_by("aptbot.cli")
    assert "aptbot.agent" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()


def test_cli_import_loads_only_aptbot_and_the_stdlib():
    foreign = {
        name for name in _loaded_by("aptbot.cli")
        if name.split(".")[0] not in {"aptbot", *sys.stdlib_module_names}
    }
    assert foreign == set()


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


# Exit-code contract, in process: whatever the input, `main` returns 0, 1 or
# 2 and raises nothing.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
SECTION_KEYS = {
    "world": ["rooms", "travel", "facilities", "stock", "clock_start", "capacity"],
    "templates": ["a_take_medicine", "b_appliance_control", "c_food_beverage"],
    "config": ["max_retries", "tolerance", "token_budget", "temperature",
               "max_output_tokens", "model", "durations"],
    "script": [],
    "requests": [],
}


def _paths(node, path=()):
    """Every path into a JSON document, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


MEDICATION = json.loads(SCENARIO_PATH.read_text())
MEDICATION_PATHS = list(_paths(MEDICATION))


def _main_exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def _run_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scenario"
        path.write_text(text, encoding="utf-8")
        return _main_exit_code(["run", "--scenario", str(path), "--out", str(Path(tmp) / "out")])


@st.composite
def scenario_with_one_section(draw):
    section = draw(st.sampled_from(sorted(SECTION_KEYS)))
    keys = SECTION_KEYS[section]
    value = draw(
        JSON_VALUES | st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=3)
        if keys else JSON_VALUES
    )
    return {**MEDICATION, section: value}


@st.composite
def medication_with_one_field_mutated(draw, values=JSON_VALUES):
    scenario = copy.deepcopy(MEDICATION)
    *parents, last = draw(st.sampled_from(MEDICATION_PATHS))
    node = scenario
    for key in parents:
        node = node[key]
    node[last] = draw(values)
    return scenario


# json.dumps refuses an int of 4,301 digits, so a marker string stands at the
# drawn path and the literal is spliced into the text in its place.
LONG_MARK = "a 4,301-digit integer"
LONG_INTEGER_TEXT = medication_with_one_field_mutated(st.just(LONG_MARK)).map(
    lambda scenario: json.dumps(scenario).replace(json.dumps(LONG_MARK), "1" * 4301)
)


@given(
    (scenario_with_one_section() | medication_with_one_field_mutated()).map(json.dumps)
    | LONG_INTEGER_TEXT
)
@settings(max_examples=150, deadline=None)
def test_run_exit_code_is_0_1_or_2_for_any_scenario(text):
    assert _run_exit_code(text) in (0, 1, 2)


GOLDEN_ACTIONS = [line.split("] ", 1)[1] for line in (GOLDEN_DIR / "plan.txt").read_text().splitlines()]
PLAN_LINES = st.builds(
    "[{}] {}".format,
    st.sampled_from(["9:56pm", "11:59pm"]),
    st.sampled_from(GOLDEN_ACTIONS),
)
GOAL_SLOTS = st.builds(
    "item={}; qty={}; companion={}; time={}; room={}".format,
    st.sampled_from(["aspirin", "water"]) | st.text(max_size=6),
    st.sampled_from(["0", "2"]) | st.text(max_size=4),
    st.sampled_from(["water", "none"]) | st.text(max_size=6),
    st.sampled_from(["10:00pm", "11:59pm"]) | st.text(max_size=8),
    st.sampled_from(["living room", "kitchen"]) | st.text(max_size=8),
)


@given(
    plan=st.lists(PLAN_LINES, min_size=1, max_size=8).map("\n".join).map(str.encode)
    | st.text().map(str.encode)
    | st.binary(max_size=40),
    goal=st.just(GOAL) | GOAL_SLOTS | st.text(),
)
@settings(max_examples=150, deadline=None)
def test_validate_exit_code_is_0_1_or_2_for_any_plan_and_goal(plan, goal):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.txt"
        path.write_bytes(plan)
        assert _main_exit_code(["validate", str(path), f"--goal={goal}"]) in (0, 1, 2)


# `aptbot validate --world` and the agent's plan stage judge one plan alike:
# the same durations and tolerance, the same verdict, the same lines.
ANY_LINE = st.builds(
    "[{}] {}".format, st.sampled_from(["9:56pm", "11:59pm"]) | st.text(max_size=6), st.text(max_size=12)
) | st.text(max_size=12)


@given(
    plan=st.just((GOLDEN_DIR / "plan.txt").read_text(encoding="utf-8"))
    | st.lists(PLAN_LINES | ANY_LINE, min_size=1, max_size=8).map("\n".join)
    | st.text(),
    durations=st.dictionaries(st.sampled_from(DurationModel.__slots__), st.integers(0, 3)),
    tolerance=st.integers(0, 6),
)
@settings(max_examples=150, deadline=None)
def test_validate_judges_a_plan_as_the_agents_plan_stage_does(plan, durations, tolerance):
    raw = copy.deepcopy(MEDICATION)
    raw["config"] = {"durations": durations, "tolerance": tolerance, "max_retries": 0}
    raw["script"][2]["response"] = plan
    with tempfile.TemporaryDirectory() as tmp:
        plan_path, world_path = Path(tmp) / "plan.txt", Path(tmp) / "world.scenario"
        plan_path.write_text(plan, encoding="utf-8")
        world_path.write_text(json.dumps(raw), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["validate", str(plan_path), "--world", str(world_path), f"--goal={GOAL}"])
        scenario = load_scenario(world_path)
    outcome = handle_request(
        scenario.requests[0], scenario.world, fresh_arm(scenario.world), scenario.make_backend(),
        config=scenario.config, templates=scenario.templates,
    )
    lines = [violation.machine_line() for violation in outcome.violations]
    if code == 0:
        assert outcome.status == FULFILLED
        phrases = [line.split("  ", 1)[1] for line in stdout.getvalue().splitlines()]
        assert phrases == [action_phrase(timed.action) for timed in outcome.plan.actions]
    elif code == 1:
        assert outcome.status == PLAN_FAILED and lines
        assert stdout.getvalue() == "".join(f"{line}\n" for line in lines)
    else:
        assert code == 2 and stderr.getvalue().startswith("error: ")
        assert outcome.status == PLAN_FAILED and not lines
