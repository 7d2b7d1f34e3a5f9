import pytest

from aptbot.clock import parse_clock
from aptbot.oracle import plan_oracle
from aptbot.plan import Deliver, Pick, normalize, parse_plan
from aptbot.prompts import parse_goal_slots
from aptbot.simulator import FAULT, execute
from aptbot.validator import (
    DurationModel,
    Goal,
    Violation,
    goal_waypoints,
    start_run,
    validate,
    walk,
)
from aptbot.world import WorldError, ZArmState, world_from_config
from conftest import CANONICAL_PLAN

START = ("living_room", parse_clock("9:54pm"))


def _validate(text, world, goal, start=START, start_docked=True):
    plan = normalize(parse_plan(text), world, start[0])
    return validate(plan, world, goal, DurationModel(), start, start_docked=start_docked)


def test_medication_plan_is_valid(world, medication_goal):
    plan = normalize(parse_plan(CANONICAL_PLAN), world, START[0])
    result = validate(plan, world, medication_goal, DurationModel(), START, start_docked=True)
    assert result.ok
    assert result.violations == []
    ends = [(ta.start, end) for ta, end in zip(plan.actions, result.completions)]
    assert ends[0] == (parse_clock("9:56pm"), parse_clock("9:58pm"))
    assert ends[-2] == (parse_clock("10:05pm"), parse_clock("10:07pm"))
    assert ends[-1] == (parse_clock("10:07pm"), parse_clock("10:07pm"))


def test_walk_yields_each_action_of_the_plan_with_its_completion(world, medication_goal):
    plan = normalize(parse_plan(CANONICAL_PLAN), world, START[0])
    run = start_run(world, START[0], True, START[1])
    steps = list(walk(run, world, plan, DurationModel()))
    assert [index for index, _, _, _ in steps] == list(range(len(plan.actions)))
    assert tuple(timed for _, timed, _, _ in steps) == plan.actions
    assert all(problems == [] for _, _, problems, _ in steps)
    result = validate(plan, world, medication_goal, DurationModel(), START, start_docked=True)
    assert [completion for _, _, _, completion in steps] == result.completions


def test_a_walk_stopped_at_a_problem_leaves_the_run_as_the_previous_action_did():
    world = world_from_config({"stock": {"medicine_box": {"aspirin": 1}}, "clock_start": "9:54pm"})
    text = "[9:56pm] Move to the storeroom\n[9:58pm] Pick 2 aspirin"
    plan = normalize(parse_plan(text), world, START[0])
    run = start_run(world, START[0], True, START[1])
    steps = walk(run, world, plan, DurationModel())
    for index, _, problems, _ in steps:
        if problems:
            break
    steps.close()
    assert index == 1
    assert problems == [Violation("ItemUnavailable", item="aspirin", room="storeroom")]
    # As the Move left it: in the storeroom at 9:58pm, nothing picked.
    assert run.stock == world.initial_stock
    assert run.stock[("storeroom", "aspirin")] == 1
    assert run.payload == {}
    assert run.free_at == parse_clock("9:58pm")
    assert run.location == "storeroom" and not run.docked


def test_kitchen_first_variant_is_valid(world, medication_goal):
    text = (
        "[9:56pm] Move to the kitchen\n"
        "[9:58pm] Fill glass with water\n"
        "[9:59pm] Move to the storeroom\n"
        "[10:01pm] Pick 2 aspirin\n"
        "[10:02pm] Move to the living room\n"
        "[10:04pm] Deliver 2 aspirin and 1 water to the living room\n"
        "[10:05pm] Dock at the charging port\n"
        "[10:07pm] Start charging"
    )
    assert _validate(text, world, medication_goal).ok


def test_a_goal_naming_an_item_twice_wants_the_total(world):
    goal = parse_goal_slots(
        "item=aspirin; qty=2; companion=aspirin; time=10:00pm; room=living room"
    )
    assert goal.deliveries == (("aspirin", 3),)
    assert goal == Goal((("aspirin", 3),), "living_room", goal.target_time)
    assert goal_waypoints(world, goal) == [("storeroom", "aspirin", 3, "medicine_box")]
    two = (
        "[9:56pm] Move to the storeroom\n"
        "[9:58pm] Pick 2 aspirin\n"
        "[9:59pm] Move to the living room\n"
        "[10:01pm] Deliver 2 aspirin to the living room\n"
        "[10:02pm] Dock at the charging port\n"
        "[10:04pm] Start charging"
    )
    assert [v.machine_line() for v in _validate(two, world, goal).violations] == [
        "VIOLATION GoalUnmet missing=aspirin:1",
    ]
    best = plan_oracle(world, goal, DurationModel(), START, start_docked=True)
    result = validate(best, world, goal, DurationModel(), START, start_docked=True)
    assert result.ok
    arm = ZArmState(location=START[0], docked=True)
    assert execute(best, world, arm, DurationModel()).delivered == {"living_room": {"aspirin": 3}}


def test_travel_infeasible_reports_needed_and_available(world):
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    text = "[9:56pm] Move to the kitchen\n[9:57pm] Fill glass with water"
    result = _validate(text, world, goal)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION TravelInfeasible index=0 needed=2 available=1",
        "VIOLATION NotDockedAtEnd",
    ]


def test_action_after_the_move_arrives_is_its_own_chronology(world, medication_goal):
    # The Move had its 2 minutes; the Pick overlaps the Wait, not the Move.
    text = "[10:00pm] Wait 10 minutes\n[10:01pm] Move to the storeroom\n[10:03pm] Pick 2 aspirin"
    result = _validate(text, world, medication_goal)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION Chronology index=1",
        "VIOLATION Chronology index=2",
        "VIOLATION GoalUnmet missing=aspirin:2,water:1",
        "VIOLATION NotDockedAtEnd",
    ]


def test_action_at_the_minute_a_move_starts_blames_the_move(world):
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    text = "[9:54pm] Move to the storeroom\n[9:54pm] Pick 1 aspirin"
    result = _validate(text, world, goal)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION TravelInfeasible index=0 needed=2 available=0",
        "VIOLATION NotDockedAtEnd",
    ]


def test_action_before_clock_start_is_chronology(world):
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    result = _validate("[9:53pm] Wait 1 minute", world, goal)
    assert [v.machine_line() for v in result.violations] == ["VIOLATION Chronology index=0"]


def test_out_of_order_starts_are_chronology(world):
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    text = "[10:00pm] Wait 5 minutes\n[9:58pm] Wait 1 minute"
    result = _validate(text, world, goal)
    assert any(v.kind == "Chronology" for v in result.violations)


def test_overlapping_stationary_actions_are_chronology(world):
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    text = "[9:56pm] Wait 5 minutes\n[9:58pm] Wait 1 minute"
    result = _validate(text, world, goal)
    assert [v.kind for v in result.violations] == ["Chronology"]


def test_pick_beyond_stock_is_item_unavailable():
    world = world_from_config({"stock": {"medicine_box": {"aspirin": 1}}, "clock_start": "9:54pm"})
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    text = "[9:56pm] Move to the storeroom\n[9:58pm] Pick 2 aspirin"
    result = _validate(text, world, goal)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION ItemUnavailable item=aspirin room=storeroom",
        "VIOLATION NotDockedAtEnd",
    ]


def test_picks_that_take_all_the_stock_leave_none():
    world = world_from_config({"stock": {"medicine_box": {"aspirin": 2}}, "clock_start": "9:54pm"})
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    text = "[9:56pm] Move to the storeroom\n[9:58pm] Pick 2 aspirin\n[9:59pm] Pick 1 aspirin"
    short = "VIOLATION ItemUnavailable item=aspirin room=storeroom"
    result = _validate(text, world, goal)
    assert [v.machine_line() for v in result.violations] == [short, "VIOLATION NotDockedAtEnd"]
    plan = normalize(parse_plan(text), world, START[0])
    log = execute(plan, world, ZArmState(location=START[0], docked=True), DurationModel())
    assert log.outcome == FAULT and log.events[-1].detail == short


def test_unbounded_water_never_runs_out(world):
    goal = Goal((), "living_room", parse_clock("11:00pm"))
    text = (
        "[9:56pm] Move to the kitchen\n"
        "[9:58pm] Fill glass with water\n"
        "[9:59pm] Deliver 1 water to the kitchen\n"
        "[10:00pm] Fill glass with water\n"
        "[10:01pm] Deliver 1 water to the kitchen"
    )
    result = _validate(text, world, goal)
    assert [v.machine_line() for v in result.violations] == ["VIOLATION NotDockedAtEnd"]


def test_capacity_counts_payload_slots_not_units(world):
    goal = Goal((), "living_room", parse_clock("10:10pm"))
    text = "[9:56pm] Move to the storeroom\n[9:58pm] Pick 2 aspirin"
    result = _validate(text, world, goal)
    assert [v.machine_line() for v in result.violations] == ["VIOLATION NotDockedAtEnd"]

    text = (
        "[9:56pm] Move to the storeroom\n"
        "[9:58pm] Pick 1 aspirin\n"
        "[9:59pm] Pick 1 ibuprofen\n"
        "[10:00pm] Move to the kitchen\n"
        "[10:02pm] Fill glass with water"
    )
    result = _validate(text, world, goal)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION CapacityExceeded index=4",
        "VIOLATION NotDockedAtEnd",
    ]


def test_deliver_without_payload_is_item_unavailable(world):
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    result = _validate("[9:56pm] Deliver 1 aspirin to the living room", world, goal)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION ItemUnavailable item=aspirin room=living_room"
    ]


def test_deliver_reports_each_short_item_once_in_first_mention_order(world):
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    result = _validate("[9:58pm] Deliver 1 aspirin and 1 aspirin to the living room", world, goal)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION ItemUnavailable item=aspirin room=living_room"
    ]
    text = "[9:58pm] Deliver 1 water, 1 aspirin and 1 water to the living room"
    result = _validate(text, world, goal)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION ItemUnavailable item=water room=living_room",
        "VIOLATION ItemUnavailable item=aspirin room=living_room",
    ]


def test_empty_plan_against_medication_goal_is_goal_unmet_only(world, medication_goal):
    plan = parse_plan("")
    result = validate(
        plan, world, medication_goal, DurationModel(), START, start_docked=True
    )
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION GoalUnmet missing=aspirin:2,water:1"
    ]


def test_empty_plan_without_dock_also_reports_not_docked(world, medication_goal):
    plan = parse_plan("")
    result = validate(
        plan, world, medication_goal, DurationModel(), START, start_docked=False
    )
    kinds = [v.kind for v in result.violations]
    assert kinds == ["GoalUnmet", "NotDockedAtEnd"]


def test_deadline_boundary_accepts_five_minutes_late(world, medication_goal):
    plan = normalize(parse_plan(CANONICAL_PLAN), world, START[0])
    result = validate(plan, world, medication_goal, DurationModel(), START, start_docked=True)
    assert result.ok
    assert type(plan.actions[5].action) is Deliver
    assert result.completions[5] == parse_clock("10:05pm")


def test_deadline_missed_past_tolerance(world, medication_goal):
    text = (
        "[9:56pm] Move to the storeroom\n"
        "[9:58pm] Pick 2 aspirin\n"
        "[9:59pm] Move to the kitchen\n"
        "[10:01pm] Fill glass with water\n"
        "[10:02pm] Move to the living room\n"
        "[10:05pm] Deliver 2 aspirin and 1 water to the living room\n"
        "[10:06pm] Dock at the charging port\n"
        "[10:08pm] Start charging"
    )
    result = _validate(text, world, medication_goal)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION DeadlineMissed actual=10:06pm target=10:00pm tolerance=5"
    ]


def test_deadline_uses_last_matching_delivery(world):
    goal = Goal((("water", 1),), "kitchen", parse_clock("10:04pm"))
    text = (
        "[9:56pm] Move to the kitchen\n"
        "[9:58pm] Fill glass with water\n"
        "[9:59pm] Deliver 1 water to the kitchen\n"
        "[10:00pm] Fill glass with water\n"
        "[10:03pm] Deliver 1 water to the kitchen"
    )
    result = _validate(text, world, goal)
    assert [v.machine_line() for v in result.violations] == ["VIOLATION NotDockedAtEnd"]


def test_missing_terminal_dock_flagged(world, medication_goal):
    text = CANONICAL_PLAN.rsplit("\n", 2)[0]
    result = _validate(text, world, medication_goal)
    assert [v.kind for v in result.violations] == ["NotDockedAtEnd"]


def test_docked_but_not_charging_at_end_flagged(world, medication_goal):
    text = CANONICAL_PLAN.rsplit("\n", 1)[0]
    result = _validate(text, world, medication_goal)
    assert [v.machine_line() for v in result.violations] == ["VIOLATION NotChargingAtEnd"]


def test_docked_start_counts_as_charging(world):
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    assert _validate("[9:56pm] Wait 1 minute", world, goal).ok


def test_charge_while_undocked_is_item_unavailable(world):
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    result = _validate("[9:56pm] Start charging", world, goal, start_docked=False)
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION ItemUnavailable item=charging_port room=living_room",
        "VIOLATION NotDockedAtEnd",
    ]


def test_plan_running_past_midnight_is_wraparound(world):
    goal = Goal((), "living_room", parse_clock("11:59pm"))
    result = _validate("[11:59pm] Wait 10 minutes", world, goal)
    assert [v.kind for v in result.violations] == ["TimeWraparound"]


def test_a_run_reports_time_wraparound_once():
    # The second Wait starts before the first ends, and ends at midnight again.
    world = world_from_config({"clock_start": "11:50pm"})
    goal = Goal((), "living_room", parse_clock("11:59pm"))
    text = "[11:58pm] Wait 2 minutes\n[11:59pm] Wait 1 minute"
    result = _validate(text, world, goal, start=("living_room", world.clock_start))
    assert [v.machine_line() for v in result.violations] == [
        "VIOLATION TimeWraparound",
        "VIOLATION Chronology index=1",
    ]


def test_delivery_past_midnight_reports_deadline_as_next_day_time(world, medication_goal):
    text = "[11:59pm] Deliver 2 aspirin and 1 water to the living room"
    result = _validate(text, world, medication_goal)
    lines = [v.machine_line() for v in result.violations]
    assert "VIOLATION TimeWraparound" in lines
    assert "VIOLATION DeadlineMissed actual=12:00am target=10:00pm tolerance=5" in lines


def test_all_violations_reported_not_just_first(world, medication_goal):
    text = "[9:53pm] Wait 1 minute\n[9:52pm] Wait 1 minute"
    result = _validate(text, world, medication_goal, start_docked=False)
    kinds = [v.kind for v in result.violations]
    assert kinds == ["Chronology", "Chronology", "GoalUnmet", "NotDockedAtEnd"]


def test_schedule_is_none_when_violations_exist(world, medication_goal):
    plan = parse_plan("")
    result = validate(
        plan, world, medication_goal, DurationModel(), START, start_docked=True
    )
    assert result.completions is None


def test_unknown_item_in_plan_raises_world_error(world, medication_goal):
    plan = parse_plan("[9:56pm] Move to the storeroom\n[9:58pm] Pick 1 unobtainium")
    with pytest.raises(WorldError):
        validate(plan, world, medication_goal, DurationModel(), START, start_docked=True)


def test_custom_durations_shift_completions(world):
    goal = Goal((), "living_room", parse_clock("10:00pm"))
    text = (
        "[9:56pm] Move to the storeroom\n"
        "[9:58pm] Pick 1 aspirin\n"
        "[10:01pm] Move to the living room\n"
        "[10:03pm] Dock at the charging port\n"
        "[10:05pm] Start charging"
    )
    plan = normalize(parse_plan(text), world, "living_room")
    durations = DurationModel(pick=3)
    result = validate(plan, world, goal, durations, START, start_docked=True)
    assert result.ok
    assert type(plan.actions[1].action) is Pick
    assert result.completions[1] == parse_clock("10:01pm")


def test_violation_machine_line_format():
    v = Violation("TravelInfeasible", index=2, needed=2, available=1)
    assert v.machine_line() == "VIOLATION TravelInfeasible index=2 needed=2 available=1"
    assert Violation("NotDockedAtEnd").machine_line() == "VIOLATION NotDockedAtEnd"
