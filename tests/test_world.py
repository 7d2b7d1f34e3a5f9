from dataclasses import replace

import pytest

from aptbot.clock import parse_clock
from aptbot.world import (
    Facility,
    WorldError,
    ZArmState,
    default_world,
    item_location,
    read_sensors,
    travel_time,
    world_from_config,
)


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


def test_world_requires_charging_port_for_charging_room():
    config = {"facilities": [{"kind": "water_cooler", "location": "kitchen", "stock": {"water": None}}]}
    with pytest.raises(WorldError):
        world_from_config(config)
    with pytest.raises(WorldError):
        replace(default_world(), facilities=(Facility("water_cooler", "kitchen", {"water": None}),))
