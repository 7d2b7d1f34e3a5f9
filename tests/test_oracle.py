import random
from collections import Counter
from itertools import permutations

import pytest

import aptbot.oracle
from aptbot.clock import MINUTES_PER_DAY, parse_clock
from aptbot.oracle import plan_oracle
from aptbot.plan import Charge, Deliver, Dock, Fill, Move, TimedAction, serialize_plan
from aptbot.simulator import COMPLETED, execute
from aptbot.validator import DurationModel, Goal, UnachievableGoalError, goal_waypoints, validate
from aptbot.world import ZArmState, travel_time, world_from_config
from conftest import CANONICAL_PLAN, small_world
from oracle_reference import reference_enumerate_feasible, reference_plan_oracle

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
    plans = reference_enumerate_feasible(
        world, medication_goal, DurationModel(), START, start_docked=True
    )
    assert [serialize_plan(p) for p in plans] == [KITCHEN_FIRST, CANONICAL_PLAN]


def test_best_plan_is_kitchen_first(world, medication_goal):
    best = plan_oracle(world, medication_goal, DurationModel(), START, start_docked=True)
    assert serialize_plan(best) == KITCHEN_FIRST


def test_every_enumerated_plan_validates(world, medication_goal):
    for plan in reference_enumerate_feasible(
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
        end
        for ta, end in zip(best.actions, result.completions)
        if isinstance(ta.action, Deliver)
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
        plan_oracle(world, goal, DurationModel(), START)


def test_eight_waypoints_are_within_the_cap():
    # A target already past makes every order too late, so the winner is refused.
    pills = [f"pill{i}" for i in range(8)]
    world = world_from_config(
        {"stock": {"medicine_box": {pill: 1 for pill in pills}}, "capacity": 8}
    )
    goal = Goal(tuple((pill, 1) for pill in pills), "bedroom", START[1], tolerance=0)
    with pytest.raises(ValueError, match="^no waypoint ordering fits the deadline window$"):
        plan_oracle(world, goal, DurationModel(), START)


def test_goal_with_more_item_kinds_than_capacity_is_refused(medication_goal):
    # One trip carries aspirin and water together; a one-kind arm cannot.
    world = world_from_config({"clock_start": "9:54pm", "capacity": 1})
    with pytest.raises(ValueError, match="2 item kinds at once, capacity is 1"):
        plan_oracle(world, medication_goal, DurationModel(), START, start_docked=True)
    with pytest.raises(ValueError, match="capacity is 1"):
        reference_enumerate_feasible(
            world, medication_goal, DurationModel(), START, start_docked=True
        )


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
    rooms = list(world_from_config({}).rooms)
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


def _outcome(planner, *args, **kwargs):
    """A planner's answer, or the type and text of its refusal."""
    try:
        return planner(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def _travel(world, route):
    """Minutes of travel along `route`, a sequence of rooms."""
    return sum(travel_time(world, a, b) for a, b in zip(route, route[1:]))


def _travels_more(world, goal, start, plan):
    """Whether `plan` travels more, from the start room to the delivery, than
    the least-travel waypoint order. Orders that all land on the target tie on
    closeness and completion, so rooms, then items, may pick such a plan."""
    if not goal.deliveries:
        return False
    route = [start[0]]
    for timed in plan.actions:
        if isinstance(timed.action, Deliver):
            break
        if isinstance(timed.action, Move):
            route.append(timed.action.dest)
    rooms = [room for room, _, _, _ in goal_waypoints(world, goal)]
    orders = permutations(rooms)
    least = min(_travel(world, (start[0], *order, goal.destination)) for order in orders)
    return _travel(world, route) > least


def test_oracle_equals_the_reference_oracle_on_random_worlds():
    """Same best plan or refusal as the permutation oracle that built each
    plan twice and ranked a list of candidates (`oracle_reference`)."""
    rng = random.Random(22)
    seen = Counter()
    for _ in range(800):
        rooms = [f"room{i}" for i in range(rng.randint(2, 5))]
        travel = {
            f"{a},{b}": rng.randint(0, 6) for i, a in enumerate(rooms) for b in rooms[i + 1 :]
        }
        late = rng.random() < 0.3
        clock = rng.randint(1380, 1430) if late else rng.randint(360, 1320)
        world = world_from_config({
            "rooms": rooms,
            "travel": travel,
            "facilities": [
                {"kind": "charging_port", "location": rng.choice(rooms)},
                {"kind": "water_cooler", "location": rng.choice(rooms),
                 "stock": {"water": None, "glass": None}},
                {"kind": "medicine_box", "location": rng.choice(rooms),
                 "stock": {"aspirin": 3, "ibuprofen": 3}},
                {"kind": "fridge", "location": rng.choice(rooms), "stock": {"juice": 2}},
            ],
            "clock_start": clock,
            "capacity": rng.randint(1, 4),
        })
        kinds = rng.choices(range(5), weights=(1, 3, 3, 3, 3))[0]
        items = rng.sample(["water", "glass", "aspirin", "ibuprofen", "juice"], kinds)
        if items and rng.random() < 0.2:
            items.append(items[0])  # named twice: one waypoint with the total
        deliveries = tuple(
            (item, rng.randint(1, 3 if item in ("water", "glass") else 2)) for item in items
        )
        destination = world.charging_room if rng.random() < 0.25 else rng.choice(rooms)
        if late:  # near midnight: shifting onto the target may run past it
            target = rng.randint(clock, MINUTES_PER_DAY - 1)
        else:  # sometimes earlier than any order can deliver
            target = clock + rng.randint(0, 40)
        goal = Goal(deliveries, destination, target, rng.randint(0, 5))
        docked = rng.random() < 0.4
        start = (world.charging_room if docked else rng.choice(rooms), clock)
        durations = DurationModel(*(rng.randint(0, 2) for _ in range(4)))
        args = (world, goal, durations, start)

        best = _outcome(plan_oracle, *args, start_docked=docked)
        assert best == _outcome(reference_plan_oracle, *args, start_docked=docked)
        if not isinstance(best, tuple):  # each action starts as the previous completes
            result = validate(best, world, goal, durations, start, start_docked=docked)
            assert result.ok, result.violations
            starts = [timed.start for timed in best.actions]
            assert starts[1:] == result.completions[:-1]

        seen["multi-unit fill"] += any(
            item in ("water", "glass") and qty > 1 for item, qty in deliveries
        )
        seen["docked start"] += docked
        seen["delivered to the port"] += destination == world.charging_room
        seen["near midnight"] += late
        if not isinstance(best, tuple):
            seen["planned"] += 1
            seen["winner travels more than the least"] += _travels_more(world, goal, start, best)
        elif best[1] == "no waypoint ordering fits the deadline window":
            seen["no order fits"] += 1
            # No order is too late for this tolerance, so only midnight refuses.
            patient = Goal(deliveries, destination, target, MINUTES_PER_DAY)
            seen["refused at midnight"] += isinstance(
                _outcome(plan_oracle, world, patient, durations, start, start_docked=docked), tuple
            )
    for case in (
        "multi-unit fill", "docked start", "delivered to the port", "near midnight", "planned",
        "no order fits", "refused at midnight", "winner travels more than the least",
    ):
        assert seen[case] >= 10, seen


def test_only_the_chosen_plan_is_built(world, medication_goal, monkeypatch):
    # A target long after the earliest delivery shifts every order's plan.
    goal = Goal(medication_goal.deliveries, "living_room", parse_clock("10:45pm"))
    feasible = reference_enumerate_feasible(world, goal, DurationModel(), START, start_docked=True)
    assert len(feasible) == 2
    built = 0

    def counting(start, action):
        nonlocal built
        built += 1
        return TimedAction(start, action)

    monkeypatch.setattr(aptbot.oracle, "TimedAction", counting)
    best = plan_oracle(world, goal, DurationModel(), START, start_docked=True)
    assert built == len(best.actions) == 8


def test_each_stop_action_is_timed_once_not_once_per_order(monkeypatch):
    world = world_from_config({"capacity": 3})
    goal = Goal((("aspirin", 1), ("ibuprofen", 1), ("water", 1)), "living_room",
                parse_clock("10:15pm"))
    real, calls = aptbot.oracle.minutes, 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(aptbot.oracle, "minutes", counting)
    plan = plan_oracle(world, goal, DurationModel(), START, start_docked=True)
    # Pick, Pick, Fill, Deliver, Dock and Charge, over 3! = 6 orders.
    assert calls == sum(type(a.action) is not Move for a in plan.actions) == 6
