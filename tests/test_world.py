import copy

import pytest

from aptbot.clock import parse_clock
from aptbot.oracle import plan_oracle
from aptbot.plan import normalize, parse_plan
from aptbot.simulator import COMPLETED, execute
from aptbot.validator import DurationModel, Goal, validate
from aptbot.world import (
    Facility,
    WorldError,
    WorldModel,
    ZArmState,
    item_location,
    read_sensors,
    travel_time,
    world_from_config,
)
from conftest import CANONICAL_PLAN


def test_default_world_shape(world):
    assert world.rooms == ("living_room", "bedroom", "kitchen", "bathroom", "storeroom")
    assert world.capacity == 2
    assert world.clock_start == parse_clock("9:54pm")
    assert world.charging_room == "living_room"


def test_default_travel_is_uniform_two_minutes(world):
    for a in world.rooms:
        for b in world.rooms:
            expected = 0 if a == b else 2
            assert travel_time(world, a, b) == expected


def test_travel_time_rejects_unknown_room(world):
    with pytest.raises(WorldError):
        travel_time(world, "living_room", "garage")


def test_item_location_lookup(world):
    assert item_location(world, "aspirin").location == "storeroom"
    assert item_location(world, "water").location == "kitchen"
    with pytest.raises(WorldError):
        item_location(world, "coffee")


def test_water_is_unbounded_and_aspirin_counted(world):
    cooler = item_location(world, "water")
    box = item_location(world, "aspirin")
    assert cooler.stock["water"] is None
    assert box.stock["aspirin"] == 10


def test_read_sensors_includes_clock_and_position(world):
    arm = ZArmState(location="kitchen")
    assert read_sensors(world, arm) == [
        "kitchen/zarm_position: kitchen (t=9:54pm)",
        "living_room/clock: 9:54pm (t=9:54pm)",
    ]


def test_read_sensors_sorts_by_room_then_sensor_not_by_line_text():
    # As text, "hall-2/..." sorts before "hall/..." ('-' < '/'); as a
    # (room, sensor) tuple, "hall" comes first.
    world = world_from_config({
        "rooms": ["hall", "hall-2"],
        "facilities": [{"kind": "charging_port", "location": "hall"}],
        "clock_start": "7:05am",
    })
    assert read_sensors(world, ZArmState(location="hall-2")) == [
        "hall/clock: 7:05am (t=7:05am)",
        "hall-2/zarm_position: hall-2 (t=7:05am)",
    ]


def test_world_from_config_travel_override_is_symmetric():
    world = world_from_config({"travel": {"living_room,storeroom": 4}})
    assert travel_time(world, "living_room", "storeroom") == 4
    assert travel_time(world, "storeroom", "living_room") == 4
    assert travel_time(world, "living_room", "kitchen") == 2


def test_world_from_config_stock_override():
    world = world_from_config({"stock": {"medicine_box": {"aspirin": 1}}})
    assert item_location(world, "aspirin").stock["aspirin"] == 1
    assert item_location(world, "ibuprofen").stock["ibuprofen"] == 10


def test_world_from_config_rejects_unknown_keys():
    with pytest.raises(WorldError):
        world_from_config({"room_list": ["kitchen"]})


def test_world_from_config_rejects_bad_travel_pair():
    with pytest.raises(WorldError):
        world_from_config({"travel": {"living_room": 3}})
    with pytest.raises(WorldError):
        world_from_config({"travel": {"living_room,garage": 3}})
    with pytest.raises(WorldError, match="travel minutes must be an int >= 0"):
        world_from_config({"travel": {"bedroom,kitchen": -1}})


def test_world_requires_charging_port_for_charging_room():
    config = {"facilities": [{"kind": "water_cooler", "location": "kitchen", "stock": {"water": None}}]}
    with pytest.raises(WorldError):
        world_from_config(config)
    world = world_from_config({})
    with pytest.raises(WorldError):
        WorldModel(
            world.rooms, world.travel, (Facility("water_cooler", "kitchen", {"water": None}),),
            world.clock_start, world.capacity,
        )


def test_world_refuses_a_repeated_room():
    with pytest.raises(WorldError, match="rooms listed more than once: kitchen"):
        world_from_config({"rooms": ["living_room", "kitchen", "kitchen", "storeroom"]})


def test_world_refuses_a_second_charging_port():
    ports = (Facility("charging_port", "living_room"), Facility("charging_port", "bedroom"))
    world = world_from_config({})
    with pytest.raises(WorldError, match="exactly one charging_port facility, has 2"):
        WorldModel(world.rooms, world.travel, ports, world.clock_start, world.capacity)


def _two_rooms(travel):
    return WorldModel(
        rooms=("a", "b"),
        travel=travel,
        facilities=(Facility("charging_port", "a"),),
        clock_start=0,
    )


@pytest.mark.parametrize(
    "travel",
    [
        {("a", "a"): 0, ("b", "b"): 0},  # no a-b pair
        {("a", "a"): 0, ("a", "b"): 2, ("b", "a"): 2},  # no b-b diagonal
        {("a", "a"): 0, ("a", "b"): 2, ("b", "a"): 2, ("b", "b"): 0, ("a", "c"): 2},
        {("a", "a"): 0, ("a", "b"): -1, ("b", "a"): 2, ("b", "b"): 0},
        {("a", "a"): 0, ("a", "b"): 2.0, ("b", "a"): 2, ("b", "b"): 0},
        {("a", "a"): 0, ("a", "b"): True, ("b", "a"): 2, ("b", "b"): 0},
        {("a", "a"): 1, ("a", "b"): 2, ("b", "a"): 2, ("b", "b"): 0},
    ],
)
def test_world_refuses_travel_that_is_not_exactly_its_room_pairs(travel):
    with pytest.raises(WorldError):
        _two_rooms(travel)


def test_world_accepts_complete_asymmetric_travel():
    world = _two_rooms({("a", "a"): 0, ("a", "b"): 3, ("b", "a"): 5, ("b", "b"): 0})
    assert travel_time(world, "a", "b") == 3
    assert travel_time(world, "b", "a") == 5


def test_unknown_lookups_keep_their_error_type_and_message(world):
    cases = [
        (lambda: travel_time(world, "x", "kitchen"), WorldError, "unknown room 'x'"),
        (lambda: travel_time(world, "kitchen", "x"), WorldError, "unknown room 'x'"),
        (lambda: travel_time(world, "x", "y"), WorldError, "unknown room 'x'"),
        (lambda: item_location(world, "x"), WorldError, "unknown item 'x'"),
    ]
    goal = Goal((), "living_room", 0)
    start = ("living_room", world.clock_start)
    for phrase, message in [
        ("Pick 1 x", "unknown item 'x'"),
        ("Fill glass with x", "unknown item 'x'"),
        ("Move to the x", "unknown room 'x'"),
        ("Deliver 1 aspirin to the x", "unknown room 'x'"),
        ("Deliver 1 x to the living room", "unknown item 'x'"),
    ]:
        plan = parse_plan(f"[10:00pm] {phrase}")
        cases.append((lambda p=plan: normalize(p, world, "living_room"), WorldError, message))
        cases.append(
            (lambda p=plan: validate(p, world, goal, DurationModel(), start), WorldError, message)
        )
    dock = parse_plan("[10:00pm] Dock")
    cases.append((lambda: normalize(dock, world, "x"), WorldError, "unknown room 'x'"))
    cases.append(
        (
            lambda: validate(dock, world, goal, DurationModel(), ("x", 0)),
            WorldError,
            "action needs room 'living_room', arm is in 'x'",
        )
    )
    for call, kind, message in cases:
        with pytest.raises(kind) as info:
            call()
        assert type(info.value) is kind
        assert str(info.value) == message


def test_world_value_semantics_ignore_derived_tables():
    config = {"travel": {"kitchen,storeroom": 4}, "stock": {"medicine_box": {"aspirin": 3}}}
    world = world_from_config(config)
    assert world == world_from_config(config)
    assert world != world_from_config({})
    assert repr(world) == (
        f"WorldModel(rooms={world.rooms!r}, travel={world.travel!r}, "
        f"facilities={world.facilities!r}, clock_start={world.clock_start!r}, "
        f"capacity={world.capacity!r})"
    )


def test_runs_never_mutate_their_world(medication_goal):
    world = world_from_config({"stock": {"medicine_box": {"aspirin": 2}}})
    stocks = copy.deepcopy([f.stock for f in world.facilities])
    arm = ZArmState(location="living_room", docked=True)
    plan = normalize(parse_plan(CANONICAL_PLAN), world, "living_room")
    durations = DurationModel()
    start = ("living_room", world.clock_start)
    runs = [
        lambda: validate(plan, world, medication_goal, durations, start, start_docked=True),
        lambda: execute(plan, world, arm, durations),
        lambda: plan_oracle(world, medication_goal, durations, start, start_docked=True),
    ]
    for run in runs:
        assert run() == run()
    assert validate(plan, world, medication_goal, durations, start, start_docked=True).ok
    assert [f.stock for f in world.facilities] == stocks


def test_a_second_execute_still_finds_the_last_unit_in_stock():
    world = world_from_config({"stock": {"medicine_box": {"aspirin": 1}}})
    plan = normalize(
        parse_plan("[9:58pm] Pick 1 aspirin\n[10:01pm] Dock\n[10:03pm] Start charging"),
        world,
        "living_room",
    )
    arm = ZArmState(location="living_room", docked=True)
    for _ in range(2):
        log = execute(plan, world, arm, DurationModel())
        assert log.outcome == COMPLETED
        assert log.final_state.payload == {"aspirin": 1}
    assert item_location(world, "aspirin").stock["aspirin"] == 1
