import random

import pytest

from aptbot.clock import parse_clock
from aptbot.oracle import enumerate_feasible, plan_oracle
from aptbot.plan import Charge, Deliver, Dock, Fill, serialize_plan
from aptbot.simulator import COMPLETED, execute
from aptbot.validator import DurationModel, Goal, UnachievableGoalError, validate
from aptbot.world import ZArmState, default_world, world_from_config
from conftest import CANONICAL_PLAN, small_world

START = ("living_room", parse_clock("9:56pm"))

KITCHEN_FIRST = """[9:56pm] Move to the kitchen
[9:58pm] Fill glass with water
[9:59pm] Move to the storeroom
[10:01pm] Pick 2 aspirin
[10:02pm] Move to the living room
[10:04pm] Deliver 2 aspirin and 1 water to the living room
[10:05pm] Dock at the charging port
[10:07pm] Start charging"""


def test_enumeration_returns_exactly_two_orderings(world, medication_goal):
    plans = enumerate_feasible(
        world, medication_goal, DurationModel(), START, start_docked=True
    )
    assert [serialize_plan(p) for p in plans] == [KITCHEN_FIRST, CANONICAL_PLAN]


def test_best_plan_is_kitchen_first(world, medication_goal):
    best = plan_oracle(world, medication_goal, DurationModel(), START, start_docked=True)
    assert serialize_plan(best) == KITCHEN_FIRST


def test_every_enumerated_plan_validates(world, medication_goal):
    for plan in enumerate_feasible(
        world, medication_goal, DurationModel(), START, start_docked=True
    ):
        result = validate(
            plan,
            world,
            medication_goal,
            DurationModel(),
            START,
            start_docked=True,
        )
        assert result.ok, [v.machine_line() for v in result.violations]


def test_an_item_named_twice_is_delivered_in_one_line_with_its_total(world):
    goal = Goal((("aspirin", 2), ("aspirin", 1)), "living_room", parse_clock("10:00pm"))
    best = plan_oracle(world, goal, DurationModel(), START, start_docked=True)
    assert "[10:01pm] Deliver 3 aspirin to the living room" in serialize_plan(best).splitlines()
    result = validate(best, world, goal, DurationModel(), START, start_docked=True)
    assert result.ok, [v.machine_line() for v in result.violations]
    log = execute(best, world, ZArmState(location=START[0], docked=True), DurationModel())
    assert log.outcome == COMPLETED
    assert log.final_state.delivered == {"living_room": {"aspirin": 3}}


def test_unstocked_item_is_unachievable(world):
    goal = Goal((("coffee", 1),), "bedroom", parse_clock("10:00pm"))
    with pytest.raises(UnachievableGoalError):
        plan_oracle(world, goal, DurationModel(), START, start_docked=True)


def test_unknown_destination_room_is_unachievable(world):
    goal = Goal((("aspirin", 1),), "attic", parse_clock("10:00pm"))
    with pytest.raises(UnachievableGoalError, match="destination room not in the world: attic"):
        plan_oracle(world, goal, DurationModel(), START, start_docked=True)


def test_impossible_window_raises_value_error(world):
    goal = Goal(
        (("aspirin", 1),), "bedroom", parse_clock("9:57pm"), tolerance=0
    )
    with pytest.raises(ValueError):
        plan_oracle(world, goal, DurationModel(), START, start_docked=True)


def test_late_target_shifts_plan_to_land_on_target(world):
    goal = Goal(
        (("aspirin", 2), ("water", 1)),
        destination="living_room",
        target_time=parse_clock("10:30pm"),
        tolerance=5,
    )
    best = plan_oracle(world, goal, DurationModel(), START, start_docked=True)
    result = validate(best, world, goal, DurationModel(), START, start_docked=True)
    assert result.ok
    deliveries = [
        s.completion
        for s in result.schedule
        if isinstance(s.timed.action, Deliver)
    ]
    assert deliveries == [parse_clock("10:30pm")]


def test_dock_tail_present_by_default(world):
    goal = Goal(
        (("water", 1),),
        destination="bedroom",
        target_time=parse_clock("10:10pm"),
    )
    best = plan_oracle(world, goal, DurationModel(), START, start_docked=True)
    kinds = [type(t.action) for t in best.actions]
    assert kinds[-2:] == [Dock, Charge]


def test_no_dock_tail_when_no_move_undocks_the_arm():
    # Water and the port share the hall, so the arm never leaves its dock.
    world = small_world()
    start = ("hall", world.clock_start)
    goal = Goal((("water", 1),), "hall", world.clock_start + 2)
    best = plan_oracle(world, goal, DurationModel(), start, start_docked=True)
    assert [type(t.action) for t in best.actions] == [Fill, Deliver]
    assert validate(best, world, goal, DurationModel(), start, start_docked=True).ok


def test_waypoint_cap_is_enforced():
    # Nine distinct items: a goal naming one item nine times is one waypoint.
    pills = [f"pill{i}" for i in range(9)]
    world = world_from_config({"stock": {"medicine_box": {pill: 1 for pill in pills}}})
    goal = Goal(
        tuple((pill, 1) for pill in pills),
        destination="bedroom",
        target_time=parse_clock("11:00pm"),
    )
    with pytest.raises(ValueError, match="too many waypoints: 9 > 8"):
        enumerate_feasible(world, goal, DurationModel(), START)


def test_goal_with_more_item_kinds_than_capacity_is_refused(medication_goal):
    # One trip carries aspirin and water together; a one-kind arm cannot.
    world = world_from_config({"clock_start": "9:54pm", "capacity": 1})
    with pytest.raises(ValueError, match="2 item kinds at once, capacity is 1"):
        plan_oracle(world, medication_goal, DurationModel(), START, start_docked=True)
    with pytest.raises(ValueError, match="capacity is 1"):
        enumerate_feasible(world, medication_goal, DurationModel(), START, start_docked=True)


@pytest.mark.parametrize(
    "deliveries, stock, message",
    [
        ((("aspirin", 3),), 1, r"aspirin \(3 wanted, 1 stocked\)"),
        ((("aspirin", 2), ("aspirin", 1)), 2, r"aspirin \(3 wanted, 2 stocked\)"),  # summed
    ],
)
def test_goal_wanting_more_than_the_stock_is_unachievable(deliveries, stock, message):
    world = world_from_config({"stock": {"medicine_box": {"aspirin": stock}}})
    goal = Goal(deliveries, "bedroom", parse_clock("10:10pm"))
    with pytest.raises(UnachievableGoalError, match=message):
        plan_oracle(world, goal, DurationModel(), START, start_docked=True)


def test_oracle_plans_validate_and_execute_in_small_worlds():
    """With small capacity and stock, the oracle refuses or its plan runs."""
    rng = random.Random(46)
    rooms = list(default_world().rooms)
    items = ["aspirin", "ibuprofen", "water", "glass"]
    refused = planned = 0
    for _ in range(300):
        clock = rng.randint(360, 1200)
        world = world_from_config(
            {
                "clock_start": clock,
                "capacity": rng.randint(0, 2),
                "stock": {
                    "medicine_box": {"aspirin": rng.randint(0, 3), "ibuprofen": rng.randint(0, 3)}
                },
            }
        )
        picked = rng.choices(items, k=rng.randint(1, 3))
        goal = Goal(
            tuple((item, rng.randint(1, 3)) for item in picked),
            rng.choice(rooms),
            clock + rng.randint(10, 60),
            rng.randint(0, 10),
        )
        start_room = rng.choice(rooms)
        docked = start_room == world.charging_room and rng.random() < 0.5
        start = (start_room, clock)
        try:
            plan = plan_oracle(world, goal, DurationModel(), start, start_docked=docked)
        except ValueError:
            refused += 1
            continue
        planned += 1
        result = validate(plan, world, goal, DurationModel(), start, start_docked=docked)
        assert result.ok, (serialize_plan(plan), [v.machine_line() for v in result.violations])
        log = execute(plan, world, ZArmState(location=start_room, docked=docked), DurationModel())
        assert log.outcome == COMPLETED, (serialize_plan(plan), log.events[-1].line())
    assert refused > 50 and planned > 50, (refused, planned)
