import copy
import random
import re

import pytest

from aptbot.clock import MINUTES_PER_DAY, parse_clock
from aptbot.oracle import plan_oracle
from aptbot.plan import (
    ActionPlan,
    Move,
    TimedAction,
    Wait,
    normalize,
    parse_plan,
    serialize_plan,
)
from aptbot.simulator import COMPLETED, FAULT, Event, execute, render_event_log
from aptbot.validator import DurationModel, Goal, validate
from aptbot.world import WorldError, ZArmState, world_from_config
from conftest import CANONICAL_PLAN
from test_acceptance import _random_plan

GOLDEN_EVENTS = """9:56pm depart living_room -> storeroom
9:58pm arrive storeroom
9:58pm pick 2 aspirin
9:59pm depart storeroom -> kitchen
10:01pm arrive kitchen
10:01pm fill glass with water
10:02pm depart kitchen -> living_room
10:04pm arrive living_room
10:04pm deliver 2 aspirin and 1 water to living_room
10:05pm dock at the charging port
10:07pm charge_start"""


def _arm():
    return ZArmState(location="living_room", docked=True)


def _run(text, world, arm=None):
    plan = normalize(parse_plan(text), world, "living_room")
    return execute(plan, world, arm if arm is not None else _arm(), DurationModel())


def _run_raw(text, world):
    return execute(parse_plan(text), world, _arm(), DurationModel())


def _validate_raw(text, world):
    goal = Goal((), "living_room", world.clock_start)
    start = ("living_room", world.clock_start)
    return validate(parse_plan(text), world, goal, DurationModel(), start, start_docked=True)


def test_canonical_plan_event_log_matches_golden(world):
    log = _run(CANONICAL_PLAN, world)
    assert log.outcome == COMPLETED
    assert render_event_log(log) == GOLDEN_EVENTS


def test_final_state_after_canonical_plan(world):
    log = _run(CANONICAL_PLAN, world)
    state = log.final_state
    assert state.location == "living_room"
    assert state.docked
    assert state.charging
    assert state.payload == {}
    assert log.delivered == {"living_room": {"aspirin": 2, "water": 1}}


def test_inputs_are_never_mutated(world):
    arm = _arm()
    arm_before = copy.deepcopy(arm)
    stock_before = {f.kind: dict(f.stock) for f in world.facilities}
    _run(CANONICAL_PLAN, world, arm)
    assert arm == arm_before
    assert {f.kind: dict(f.stock) for f in world.facilities} == stock_before


def test_move_undocks_and_stops_charging(world):
    log = _run("[9:56pm] Move to the kitchen", world)
    assert log.outcome == COMPLETED
    assert not log.final_state.docked
    assert not log.final_state.charging
    assert log.final_state.location == "kitchen"


def test_final_charging_comes_from_the_run(world):
    log = _run(CANONICAL_PLAN.rsplit("\n", 1)[0], world)
    assert log.final_state.docked and not log.final_state.charging
    log = _run("[9:56pm] Wait 1 minute", world, ZArmState("living_room", docked=True))
    assert log.final_state.charging


def test_fault_on_action_in_the_past(world):
    log = _run("[9:50pm] Move to the kitchen", world)
    assert log.outcome == FAULT
    assert [e.line() for e in log.events] == ["9:54pm fault VIOLATION Chronology index=0"]


def test_fault_on_exhausted_stock():
    world = world_from_config(
        {"stock": {"medicine_box": {"aspirin": 1}}, "clock_start": "9:54pm"}
    )
    log = _run("[9:56pm] Move to the storeroom\n[9:58pm] Pick 2 aspirin", world)
    assert log.outcome == FAULT
    assert log.events[-1].detail == "VIOLATION ItemUnavailable item=aspirin room=storeroom"


def test_fault_on_item_absent_in_room(world):
    text = "[9:56pm] Move to the kitchen\n[9:58pm] Pick 1 aspirin"
    log = _run_raw(text, world)
    assert log.outcome == FAULT
    assert log.events[-1].detail == "action needs room 'storeroom', arm is in 'kitchen'"
    with pytest.raises(WorldError) as info:
        _validate_raw(text, world)
    assert str(info.value) == log.events[-1].detail


def test_fault_on_capacity_breach(world):
    text = (
        "[9:56pm] Move to the storeroom\n"
        "[9:58pm] Pick 1 aspirin\n"
        "[9:59pm] Pick 1 ibuprofen\n"
        "[10:00pm] Move to the kitchen\n"
        "[10:02pm] Fill glass with water"
    )
    log = _run(text, world)
    assert log.outcome == FAULT
    assert log.events[-1].detail == "VIOLATION CapacityExceeded index=4"


def test_fault_on_deliver_without_payload_is_atomic(world):
    text = (
        "[9:56pm] Move to the storeroom\n"
        "[9:58pm] Pick 1 aspirin\n"
        "[9:59pm] Deliver 1 aspirin and 1 water to the storeroom"
    )
    log = _run(text, world)
    assert log.outcome == FAULT
    assert log.events[-1].detail == "VIOLATION ItemUnavailable item=water room=storeroom"
    assert log.delivered == {}
    assert log.final_state.payload == {"aspirin": 1}


def test_fault_on_move_to_unknown_room(world):
    log = _run_raw("[9:56pm] Move to the attic", world)
    assert log.outcome == FAULT
    assert log.events[-1].detail == "unknown room 'attic'"
    # Stamped when the run is free, as a Chronology fault is, so it renders.
    plan = ActionPlan((TimedAction(-5, Move("attic")),))
    log = execute(plan, world, _arm(), DurationModel())
    assert render_event_log(log) == "9:54pm fault unknown room 'attic'"


def test_a_world_error_on_a_later_action_is_stamped_when_the_run_is_free(world):
    log = _run_raw("[9:56pm] Move to the kitchen\n[9:57pm] Pick 1 aspirin", world)
    assert render_event_log(log) == (
        "9:56pm depart living_room -> kitchen\n"
        "9:58pm arrive kitchen\n"
        "9:58pm fault action needs room 'storeroom', arm is in 'kitchen'"
    )
    assert log.final_state.location == "kitchen"
    assert not log.final_state.docked


def test_fault_on_move_from_a_room_the_world_lacks(world):
    plan = parse_plan("[10:00pm] Move to the kitchen")
    log = execute(plan, world, ZArmState("garage"), DurationModel())
    assert log.outcome == FAULT
    assert log.events == [Event(parse_clock("10:00pm"), FAULT, "unknown room 'garage'")]


def test_fault_on_charge_while_undocked(world):
    plan = parse_plan("[9:56pm] Start charging")
    log = execute(plan, world, ZArmState("living_room"), DurationModel())
    assert log.outcome == FAULT
    assert log.events[-1].detail == "VIOLATION ItemUnavailable item=charging_port room=living_room"


def test_fault_on_dock_away_from_port(world):
    text = "[9:56pm] Move to the kitchen\n[9:58pm] Dock"
    log = _run_raw(text, world)
    assert log.outcome == FAULT
    assert log.events[-1].detail == "action needs room 'living_room', arm is in 'kitchen'"
    with pytest.raises(WorldError) as info:
        _validate_raw(text, world)
    assert str(info.value) == log.events[-1].detail


def test_fault_when_plan_runs_past_midnight(world):
    log = _run("[11:58pm] Wait 5 minutes", world)
    assert log.outcome == FAULT
    assert [e.line() for e in log.events] == ["11:58pm fault VIOLATION TimeWraparound"]


def test_action_ending_past_midnight_faults_before_it_changes_anything():
    world = world_from_config({"clock_start": "11:50pm"})
    text = (
        "[11:50pm] Move to the storeroom\n"
        "[11:52pm] Pick 1 aspirin\n"
        "[11:53pm] Move to the living room\n"
        "[11:59pm] Deliver 1 aspirin to the living room"
    )
    log = _run(text, world)
    assert log.events[-1].line() == "11:59pm fault VIOLATION TimeWraparound"
    assert log.delivered == {}
    assert log.final_state.payload == {"aspirin": 1}


def test_move_past_midnight_faults_before_leaving(world):
    log = _run_raw("[11:59pm] Move to the kitchen", world)
    assert [e.line() for e in log.events] == ["11:59pm fault VIOLATION TimeWraparound"]
    assert log.final_state.location == "living_room"
    assert log.final_state.docked


def test_a_fault_past_the_day_is_stamped_at_its_last_minute(world):
    # parse_plan never starts an action past 11:59pm, but a hand-built plan may.
    plan = ActionPlan((TimedAction(MINUTES_PER_DAY, Wait(1)),))
    log = execute(plan, world, _arm(), DurationModel())
    assert [e.line() for e in log.events] == ["11:59pm fault VIOLATION TimeWraparound"]


def test_wait_emits_single_event(world):
    log = _run("[9:56pm] Wait 2 minutes", world)
    assert log.outcome == COMPLETED
    assert [e.line() for e in log.events] == ["9:56pm wait 2 minutes"]


def test_item_conservation_with_finite_stock(world):
    text = (
        "[9:56pm] Move to the storeroom\n"
        "[9:58pm] Pick 2 aspirin\n"
        "[9:59pm] Move to the bedroom\n"
        "[10:01pm] Deliver 1 aspirin to the bedroom"
    )
    log = _run(text, world)
    assert log.outcome == COMPLETED
    initial = 10
    delivered = log.delivered.get("bedroom", {}).get("aspirin", 0)
    carried = log.final_state.payload.get("aspirin", 0)
    assert delivered == 1
    assert carried == 1
    assert delivered + carried == initial - 8


def test_capacity_comes_from_the_world_not_the_arm():
    world = world_from_config({"capacity": 1, "clock_start": "9:54pm"})
    text = "[9:56pm] Move to the storeroom\n[9:58pm] Pick 1 aspirin\n[9:59pm] Pick 1 ibuprofen"
    plan = normalize(parse_plan(text), world, "living_room")
    goal = Goal((), "living_room", parse_clock("10:10pm"))
    start = ("living_room", world.clock_start)
    result = validate(plan, world, goal, DurationModel(), start, start_docked=True)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION CapacityExceeded index=2",
        "VIOLATION NotDockedAtEnd",
    ]
    arm = _arm()
    assert arm.capacity == 2
    log = execute(plan, world, arm, DurationModel())
    assert log.outcome == FAULT
    assert log.events[-1].detail == "VIOLATION CapacityExceeded index=2"


def test_deliver_naming_an_item_twice_needs_the_sum_in_payload(world):
    text = (
        "[9:56pm] Move to the storeroom\n"
        "[9:58pm] Pick 1 aspirin\n"
        "[9:59pm] Deliver 1 aspirin and 1 aspirin to the storeroom"
    )
    plan = normalize(parse_plan(text), world, "living_room")
    goal = Goal((), "storeroom", parse_clock("10:10pm"))
    start = ("living_room", world.clock_start)
    result = validate(plan, world, goal, DurationModel(), start, start_docked=True)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION ItemUnavailable item=aspirin room=storeroom",
        "VIOLATION NotDockedAtEnd",
    ]
    log = execute(plan, world, _arm(), DurationModel())
    assert log.outcome == FAULT
    assert log.events[-1].detail == "VIOLATION ItemUnavailable item=aspirin room=storeroom"
    assert log.final_state.payload == {"aspirin": 1}


def test_an_arm_docked_away_from_the_port_starts_undocked(world):
    # Only the living room has a charging port, so a kitchen arm is not docked.
    start, goal = ("kitchen", world.clock_start), Goal((), "kitchen", 0)
    result = validate(parse_plan(""), world, goal, DurationModel(), start, start_docked=True)
    assert [v.machine_line() for v in result.violations] == ["VIOLATION NotDockedAtEnd"]
    log = execute(parse_plan(""), world, ZArmState("kitchen", docked=True), DurationModel())
    assert log.outcome == COMPLETED
    assert not log.final_state.docked
    assert not log.final_state.charging


def _perturb(rng, plan):
    """The plan with one action dropped, one start shifted, or two swapped.

    The first and last actions are picked more often, because only around
    them does an oracle chain leave slack for a change to stay valid.
    """
    actions = list(plan.actions)
    i = rng.choice([0, len(actions) - 1, rng.randrange(len(actions))])
    how = rng.randrange(3)
    if how == 0:
        del actions[i]
    elif how == 1:
        shift = rng.choice([-3, -1, 1, 3])
        actions[i] = TimedAction(actions[i].start + shift, actions[i].action)
    else:
        j = rng.randrange(len(actions))
        actions[i], actions[j] = actions[j], actions[i]
    return ActionPlan(tuple(actions))


def test_accepted_perturbed_oracle_plans_execute_to_the_validated_deliveries():
    rng = random.Random(44)
    rooms = list(world_from_config({}).rooms)
    items = ["aspirin", "ibuprofen", "water", "glass"]
    perturbed = accepted = rejected = 0
    for _ in range(400):
        travel = {f"{a},{b}": rng.randint(1, 4) for a in rooms for b in rooms if a < b}
        clock = rng.randint(360, 1200)
        world = world_from_config(
            {
                "travel": travel,
                "clock_start": clock,
                "capacity": rng.randint(1, 3),
                "stock": {"medicine_box": {"aspirin": rng.randint(1, 5)}},
            }
        )
        picked = rng.sample(items, rng.randint(1, 3))
        deliveries = tuple((item, rng.randint(1, 2)) for item in picked)
        target = clock + rng.randint(20, 120)
        goal = Goal(deliveries, rng.choice(rooms), target, rng.randint(0, 10))
        start_room = rng.choice(rooms)
        docked = rng.random() < 0.5
        start = (start_room, clock)
        try:
            oracle_plan = plan_oracle(world, goal, DurationModel(), start, start_docked=docked)
        except ValueError:
            continue
        arm = ZArmState(location=start_room, docked=docked)
        for plan in [oracle_plan] + [_perturb(rng, oracle_plan) for _ in range(4)]:
            log = execute(plan, world, arm, DurationModel())
            try:
                result = validate(plan, world, goal, DurationModel(), start, start_docked=docked)
            except WorldError:  # an action away from its room: refused as not normalized
                assert log.outcome == FAULT, serialize_plan(plan)
                rejected += 1
                continue
            if not result.ok:
                rejected += 1
                continue
            accepted += 1
            perturbed += plan != oracle_plan
            assert log.outcome == COMPLETED, (serialize_plan(plan), log.events[-1].line())
            got = log.delivered.get(goal.destination, {})
            assert all(got.get(item, 0) >= qty for item, qty in goal.deliveries)
            assert log.final_state.docked and log.final_state.charging
    assert perturbed > 100 and rejected > 100, (perturbed, accepted, rejected)


# Every fault detail: a per-action VIOLATION line, or the text of a WorldError.
_FAULT_DETAIL = re.compile(
    r"VIOLATION (?:Chronology index=\d+"
    r"|TravelInfeasible index=\d+ needed=\d+ available=\d+"
    r"|ItemUnavailable item=\w+ room=\w+"
    r"|CapacityExceeded index=\d+"
    r"|TimeWraparound)"
    r"|unknown (?:room|item) '\w+'"
    r"|action needs room '\w+', arm is in '\w+'"
)


def test_execute_never_raises_on_random_plans():
    rng = random.Random(45)
    worlds = [world_from_config({}), world_from_config({"clock_start": "12:00am"})]
    outcomes = set()
    for _ in range(3000):
        world = rng.choice(worlds)
        arm = ZArmState(
            location=rng.choice([*world.rooms, "garage"]),  # one room the world lacks
            docked=rng.random() < 0.5,
        )
        log = execute(_random_plan(rng), world, arm, DurationModel())
        assert log.outcome in (COMPLETED, FAULT)
        render_event_log(log)
        outcomes.add(log.outcome)
        if log.outcome == FAULT:
            assert _FAULT_DETAIL.fullmatch(log.events[-1].detail), log.events[-1].detail
    assert outcomes == {COMPLETED, FAULT}


# Violations of the whole plan, which no single step can hit.
_END_KINDS = {"GoalUnmet", "DeadlineMissed", "NotDockedAtEnd", "NotChargingAtEnd"}


def test_execute_faults_with_the_validators_first_violation():
    rng = random.Random(11)
    worlds = [world_from_config({}), world_from_config({"clock_start": "12:00am"})]
    goal = Goal((("aspirin", 1),), "living_room", parse_clock("10:30pm"))
    seen = {"completed": 0, "faulted": 0, "world_error": 0}
    for _ in range(4000):
        world = rng.choice(worlds)
        room = rng.choice([*world.rooms, "garage"])  # one room the world lacks
        docked = rng.random() < 0.5
        plan = _random_plan(rng)
        normalized = rng.random() < 0.5
        if normalized:
            try:
                plan = normalize(plan, world, room)
            except WorldError:  # the world lacks the start room or a name
                continue
        log = execute(plan, world, ZArmState(room, docked=docked), DurationModel())
        start = (room, world.clock_start)
        try:
            result = validate(plan, world, goal, DurationModel(), start, start_docked=docked)
        except WorldError:
            assert not normalized, serialize_plan(plan)  # `normalize` leaves nothing to refuse
            assert log.outcome == FAULT, serialize_plan(plan)
            seen["world_error"] += 1
            continue
        for v in result.violations:  # each line true, naming one of the plan's actions
            fields = dict(v.fields)
            if "index" in fields:
                assert 0 <= fields["index"] < len(plan.actions), v.machine_line()
            if v.kind == "TravelInfeasible":
                assert fields["needed"] > fields["available"], v.machine_line()
        steps = [v.machine_line() for v in result.violations if v.kind not in _END_KINDS]
        if steps:
            assert log.outcome == FAULT, serialize_plan(plan)
            assert log.events[-1].detail == steps[0], serialize_plan(plan)
            seen["faulted"] += 1
        else:
            assert log.outcome == COMPLETED, (serialize_plan(plan), log.events[-1].line())
            seen["completed"] += 1
    assert min(seen.values()) > 300, seen
