"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they print. Every check runs offline; the only sockets involved
are loopback stubs owned by the test process.
"""

import hashlib
import json
import random
import string
import subprocess
import sys
import time
from contextlib import contextmanager
from unittest import mock

from aptbot.agent import FULFILLED, handle_request
from aptbot.clock import parse_clock
from aptbot.gateway import (
    ChatMessage,
    GenerationParams,
    HTTPBackend,
    ScriptedBackend,
    ScriptEntry,
    Session,
    complete,
    count_tokens,
    render_history,
)
from aptbot.oracle import enumerate_feasible, plan_oracle
from aptbot.plan import (
    ActionPlan,
    Charge,
    Deliver,
    Dock,
    Fill,
    Move,
    Pick,
    PlanParseError,
    TimedAction,
    Wait,
    parse_plan,
    serialize_plan,
)
from aptbot.prompts import (
    CLASSIFY_DESCRIPTION,
    CLASSIFY_EXAMPLE,
    FEW_SHOT_SCAFFOLD,
    build_few_shot_prompt,
)
from aptbot.scenario import load_scenario, parse_scenario
from aptbot.simulator import COMPLETED, execute
from aptbot.validator import DurationModel, Goal, validate
from aptbot.world import ZArmState, world_from_config
from conftest import CANONICAL_PLAN, GOLDEN_DIR, SCENARIO_PATH, child_env
from stub_server import StubChatServer


def read_golden(name):
    return (GOLDEN_DIR / name).read_bytes()


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def _hash_outputs(out_dir):
    digest = hashlib.sha256()
    for name in ("transcript.txt", "plan.txt", "events.txt"):
        digest.update((out_dir / "request_001" / name).read_bytes())
    return digest.hexdigest()


def test_criterion_1_medication_replay(tmp_path):
    with criterion(1, "medication scenario replay"):
        out = tmp_path / "replay"
        started = time.monotonic()
        with mock.patch(
            "socket.create_connection", side_effect=AssertionError("network hit")
        ):
            from aptbot.cli import run_scenario

            scenario = load_scenario(SCENARIO_PATH)
            outcomes = run_scenario(scenario, out)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"replay took {elapsed:.3f}s"
        assert [o.status for o in outcomes] == [FULFILLED]
        for name in ("transcript.txt", "plan.txt", "events.txt"):
            assert (out / "request_001" / name).read_bytes() == read_golden(name)

        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "aptbot",
                "run",
                "--scenario",
                str(SCENARIO_PATH),
                "--out",
                str(tmp_path / "cli_replay"),
            ],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("transcript.txt", "plan.txt", "events.txt"):
            produced = (tmp_path / "cli_replay" / "request_001" / name).read_bytes()
            assert produced == read_golden(name)


KITCHEN_FIRST = """[9:56pm] Move to the kitchen
[9:58pm] Fill glass with water
[9:59pm] Move to the storeroom
[10:01pm] Pick 2 aspirin
[10:02pm] Move to the living room
[10:04pm] Deliver 2 aspirin and 1 water to the living room
[10:05pm] Dock at the charging port
[10:07pm] Start charging"""


def test_criterion_2_order_variance(world, medication_goal):
    with criterion(2, "order-variance tolerance"):
        start = ("living_room", parse_clock("9:56pm"))
        plan = parse_plan(KITCHEN_FIRST)
        result = validate(
            plan, world, medication_goal, DurationModel(), start, start_docked=True
        )
        assert result.ok, [v.machine_line() for v in result.violations]

        backend = ScriptedBackend(
            [
                ScriptEntry(response="(A)", contains="categorize it"),
                ScriptEntry(
                    response="item=aspirin; qty=2; companion=water; "
                    "time=10:00pm; room=living room",
                    contains="item=",
                ),
                ScriptEntry(response=KITCHEN_FIRST, contains="Current context:"),
            ]
        )
        arm = ZArmState(location="living_room", docked=True)
        outcome = handle_request(
            "please bring me two pills of aspirin with a glass of water "
            "at 10:00pm in the living room",
            world,
            arm,
            backend,
        )
        assert outcome.status == FULFILLED
        assert outcome.event_log.outcome == COMPLETED

        plans = enumerate_feasible(
            world, medication_goal, DurationModel(), start, start_docked=True
        )
        assert [serialize_plan(p) for p in plans] == [KITCHEN_FIRST, CANONICAL_PLAN]


def test_criterion_3_template_fidelity():
    with criterion(3, "template fidelity"):
        assert FEW_SHOT_SCAFFOLD == (
            "Please answer the question by considering descriptions "
            "and examples below. \n\n"
            "Descriptions: {0}. \n "
            "Examples: {1}. \n \n "
            "Question: {2}. \n "
            "Answer: "
        )
        prompt = build_few_shot_prompt(
            CLASSIFY_DESCRIPTION, CLASSIFY_EXAMPLE, "bring me water"
        )
        assert prompt == read_golden("classify_prompt.txt").decode()
        assert "Answer: (C) " in CLASSIFY_EXAMPLE
        assert "(A) take medicine, (B) appliance  control" in CLASSIFY_DESCRIPTION


_ROOMS = ["living_room", "bedroom", "kitchen", "bathroom", "storeroom"]
_ITEMS = ["aspirin", "ibuprofen", "water", "glass", "juice"]


def _random_action(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return Move(rng.choice(_ROOMS))
    if kind == 1:
        return Pick(rng.choice(_ITEMS), rng.randint(1, 9))
    if kind == 2:
        return Fill(rng.choice(["glass", "cup", "bottle"]), rng.choice(["water", "juice"]))
    if kind == 3:
        items = tuple(
            (rng.choice(_ITEMS), rng.randint(1, 9))
            for _ in range(rng.randint(1, 3))
        )
        return Deliver(items, rng.choice(_ROOMS))
    if kind == 4:
        return Dock()
    if kind == 5:
        return Charge()
    return Wait(rng.randint(1, 120))


def _random_plan(rng):
    n = rng.randint(0, 12)
    starts = sorted(rng.randint(0, 1439) for _ in range(n))
    return ActionPlan(
        tuple(TimedAction(s, _random_action(rng)) for s in starts)
    )


def test_criterion_4_parser_properties():
    with criterion(4, "parser properties"):
        rng = random.Random(20260822)
        for _ in range(1000):
            plan = _random_plan(rng)
            assert parse_plan(serialize_plan(plan)) == plan

        alphabet = string.printable + "[]:amp无水éß"
        for i in range(10000):
            if i % 3 == 0:
                text = "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(0, 80))
                )
            elif i % 3 == 1:
                text = bytes(
                    rng.randrange(256) for _ in range(rng.randint(0, 60))
                ).decode("latin-1")
            else:
                text = f"[{rng.randint(0, 23)}:{rng.randint(0, 99)}pm] " + "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(0, 30))
                )
            try:
                parse_plan(text)
            except PlanParseError:
                pass

        short = parse_plan("[9:56pm] Move to the kitchen")
        long = parse_plan("[9:56pm] Move from the living room to the kitchen")
        assert short == long


def _acquired_from_events(log):
    totals = {}
    for event in log.events:
        if event.kind == "pick":
            qty, item = event.detail.split(" ", 1)
            totals[item] = totals.get(item, 0) + int(qty)
        elif event.kind == "fill":
            _, source = event.detail.split(" with ", 1)
            totals[source] = totals.get(source, 0) + 1
    return totals


def test_criterion_5_coherence():
    with criterion(5, "validator/simulator/oracle coherence"):
        started = time.monotonic()
        rng = random.Random(5)
        choices = [("aspirin", "storeroom"), ("ibuprofen", "storeroom"), ("water", "kitchen")]
        checked = 0
        while checked < 500:
            uniform = rng.choice([1, 2, 3])
            pairs = {}
            for i, a in enumerate(_ROOMS):
                for b in _ROOMS[i + 1:]:
                    pairs[f"{a},{b}"] = uniform
            clock = rng.randint(360, 600)
            stock = {"aspirin": rng.randint(2, 12), "ibuprofen": rng.randint(2, 12)}
            world = world_from_config(
                {
                    "travel": pairs,
                    "clock_start": clock,
                    "stock": {"medicine_box": stock},
                }
            )
            n_items = rng.randint(1, 2)
            picked = rng.sample(choices, n_items)
            deliveries = tuple(
                (item, 1 if item == "water" else rng.randint(1, 2))
                for item, _ in picked
            )
            goal = Goal(
                deliveries=deliveries,
                destination=rng.choice(_ROOMS),
                target_time=clock + rng.randint(40, 200),
                tolerance=rng.randint(0, 10),
            )
            start_room = rng.choice(_ROOMS)
            start_docked = start_room == world.charging_room

            plan = plan_oracle(
                world,
                goal,
                DurationModel(),
                (start_room, clock),
                start_docked=start_docked,
            )
            result = validate(
                plan,
                world,
                goal,
                DurationModel(),
                (start_room, clock),
                start_docked=start_docked,
            )
            assert result.ok, [v.machine_line() for v in result.violations]

            arm = ZArmState(
                location=start_room,
                capacity=world.capacity,
                docked=start_docked,
            )
            log = execute(plan, world, arm, DurationModel())
            assert log.outcome == COMPLETED, log.events[-1].line()

            acquired = _acquired_from_events(log)
            delivered_totals = {}
            for room_items in log.delivered.values():
                for item, qty in room_items.items():
                    delivered_totals[item] = delivered_totals.get(item, 0) + qty
            carried = log.final_state.payload
            for item in set(acquired) | set(delivered_totals) | set(carried):
                assert acquired.get(item, 0) == delivered_totals.get(item, 0) + carried.get(item, 0)
            for item, qty in goal.deliveries:
                assert log.delivered[goal.destination][item] >= qty
            checked += 1
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"coherence suite took {elapsed:.1f}s"


def test_criterion_6_memory_contract():
    with criterion(6, "memory contract"):
        rng = random.Random(6)
        for _ in range(1200):
            session = Session()
            if rng.random() < 0.6:
                session.pinned = ChatMessage(
                    "system", "s" * rng.randint(0, 40)
                )
            for _ in range(rng.randint(0, 10)):
                session.turns += (
                    ChatMessage("user", "u" * rng.randint(0, 50)),
                    ChatMessage("assistant", "a" * rng.randint(0, 50)),
                )
            pinned_cost = (
                count_tokens(session.pinned.content) if session.pinned else 0
            )
            budget = pinned_cost + rng.randint(0, 120)
            messages = render_history(session, budget)

            total = sum(count_tokens(m.content) for m in messages)
            assert total <= budget
            if session.pinned is not None:
                assert messages[0] == session.pinned
                body = messages[1:]
            else:
                body = messages
            assert len(body) % 2 == 0
            if body:
                assert session.turns[-len(body):] == body
            dropped = (len(session.turns) - len(body)) // 2
            if dropped:
                user_msg, assistant_msg = session.turns[2 * dropped - 2 : 2 * dropped]
                next_cost = count_tokens(user_msg.content) + count_tokens(
                    assistant_msg.content
                )
                assert total + next_cost > budget


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "determinism"):
        from aptbot.cli import run_scenario

        scenario = load_scenario(SCENARIO_PATH)
        run_scenario(scenario, tmp_path / "a")
        run_scenario(scenario, tmp_path / "b")
        assert _hash_outputs(tmp_path / "a") == _hash_outputs(tmp_path / "b")

        raw = json.loads(SCENARIO_PATH.read_text())
        raw["config"] = {"temperature": 1.7}
        hot = parse_scenario(raw)
        run_scenario(hot, tmp_path / "hot")
        assert _hash_outputs(tmp_path / "hot") == _hash_outputs(tmp_path / "a")


def test_criterion_8_wire_shape():
    with criterion(8, "wire-shape check"):
        with StubChatServer() as server:
            backend = HTTPBackend(server.url, api_key="stub-key")
            session = Session(pinned=ChatMessage("system", "keep answers short"))
            params = GenerationParams(temperature=0.2, max_output_tokens=64)
            complete(backend, session, "first question", params, 8192)
            complete(backend, session, "second question", params, 8192)

            assert len(server.bodies) == 2
            for body in server.bodies:
                assert set(body) == {"model", "messages", "temperature", "max_tokens"}
                assert isinstance(body["messages"], list)
                for message in body["messages"]:
                    assert set(message) == {"role", "content"}

            second = server.bodies[1]["messages"]
            assert [m["role"] for m in second] == [
                "system",
                "user",
                "assistant",
                "user",
            ]
            assert second[-1]["content"] == "second question"
            assert server.bodies[1]["model"] == "gpt-4"
            assert server.bodies[1]["temperature"] == 0.2
            assert server.bodies[1]["max_tokens"] == 64
