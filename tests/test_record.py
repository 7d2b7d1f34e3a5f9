"""Record semantics: equality, hashing, repr, defaults and constructor checks."""

import pytest

from aptbot.agent import AgentConfig, RequestOutcome
from aptbot.gateway import ChatMessage, GenerationParams, ScriptEntry, Session
from aptbot.plan import ActionPlan, Charge, Deliver, Dock, Fill, Move, Pick, TimedAction, Wait
from aptbot.prompts import TemplateEntry
from aptbot.record import Record
from aptbot.simulator import Event, EventLog
from aptbot.validator import (
    DurationModel,
    Goal,
    ValidationResult,
    Violation,
    start_run,
)
from aptbot.world import Facility, WorldModel, ZArmState, world_from_config


def _value_records():
    """One of each value record; every call builds new, equal instances."""
    return [
        Move("kitchen"),
        Pick("aspirin", 2),
        Fill("glass", "water"),
        Deliver((("aspirin", 2), ("water", 1)), "bedroom"),
        Dock(),
        Charge(),
        Wait(3),
        TimedAction(600, Pick("aspirin", 2)),
        ActionPlan((TimedAction(600, Move("kitchen")), TimedAction(602, Dock()))),
        Goal((("water", 1),), "bedroom", 1320, tolerance=3),
        Violation("DeadlineMissed", (("index", 4), ("late_by", 2))),
        DurationModel(dock=3),
        ChatMessage("user", "bring water"),
        GenerationParams(temperature=0.5),
        AgentConfig(max_retries=1),
        TemplateEntry("a description", "an example"),
    ]


def _mutable_records():
    world = world_from_config({})
    run = start_run(world, "kitchen", False, 600)
    return [
        ZArmState("kitchen"),
        run,
        ValidationResult(None),
        Event(600, "dock", "at the charging port"),
        EventLog([], run, "completed"),
        Session(),
        ScriptEntry("reply", step=1),
        RequestOutcome("fulfilled"),
    ]


def test_records_of_different_classes_are_unequal():
    assert Dock() != Charge()
    assert TimedAction(600, Dock()) != TimedAction(600, Charge())


@pytest.mark.parametrize("index", range(len(_value_records())))
def test_equal_value_records_have_equal_hashes(index):
    a, b = _value_records()[index], _value_records()[index]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_value_records_holding_dicts_stay_unhashable():
    world = world_from_config({})
    for record in (world, world.facilities[0]):
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("record", _mutable_records(), ids=lambda r: type(r).__name__)
def test_mutable_records_stay_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


def test_a_record_never_equals_the_tuple_of_its_fields():
    assert Move("kitchen") != ("kitchen",)
    assert Pick("aspirin", 2) != ("aspirin", 2)
    assert Dock() != ()
    assert ZArmState("kitchen", 2, False) != ("kitchen", 2, False)


def test_world_equality_and_repr_leave_out_the_derived_tables():
    stock = {"aspirin": 10}
    facilities = (Facility("medicine_box", "storeroom", stock), Facility("charging_port", "living_room"))
    world = world_from_config({})
    before = WorldModel(world.rooms, world.travel, facilities, world.clock_start, world.capacity)
    stock["ibuprofen"] = 4  # only a world built afterwards derives this item
    after = WorldModel(world.rooms, world.travel, facilities, world.clock_start, world.capacity)
    assert before.facility_of != after.facility_of
    assert before.initial_stock != after.initial_stock
    assert before == after
    assert repr(before) == repr(after)
    for name in ("facility_of", "charging_room", "initial_stock"):
        assert name not in repr(before)


def test_repr_names_every_field_in_order():
    assert repr(Move("kitchen")) == "Move(dest='kitchen')"
    assert repr(Dock()) == "Dock()"
    assert repr(TimedAction(600, Wait(2))) == "TimedAction(start=600, action=Wait(minutes=2))"
    assert repr(ZArmState("kitchen")) == "ZArmState(location='kitchen', capacity=2, docked=False)"


def test_defaults_and_fresh_containers():
    assert Facility("charging_port", "bedroom").stock == {}
    assert Facility("a", "b").stock is not Facility("a", "b").stock
    assert Session().turns is not Session().turns
    assert ValidationResult(None).violations is not ValidationResult(None).violations
    assert RequestOutcome("fulfilled").transcript is not RequestOutcome("fulfilled").transcript
    assert AgentConfig() == AgentConfig(3, DurationModel(), 5, GenerationParams(), 8192)
    arm = ZArmState(location="kitchen", capacity=1, docked=True)
    assert (arm.location, arm.capacity, arm.docked) == ("kitchen", 1, True)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Goal((), "kitchen", 0, tolerance=-1), "tolerance must be >= 0"),
        (lambda: Goal((("water", 0),), "kitchen", 0), "delivery quantities must be positive"),
        (lambda: Goal((("water", 10**4300 - 1), ("water", 1)), "kitchen", 0),
         "qty has too many digits"),
        (lambda: DurationModel(fill=-1), "fill must be >= 0"),
        (lambda: ChatMessage("robot", "hi"), "unknown chat role: 'robot'"),
        (lambda: GenerationParams(temperature=2.5), "temperature out of range [0, 2]: 2.5"),
        (lambda: GenerationParams(max_output_tokens=0), "max_output_tokens must be at least 1"),
        (lambda: ScriptEntry("reply"), "match needs exactly one of exact/contains/step"),
        (lambda: ScriptEntry("reply", exact="a", step=1),
         "match needs exactly one of exact/contains/step"),
        (lambda: ScriptEntry("reply", step=0), "step must be at least 1, got 0"),
        (lambda: AgentConfig(max_retries=-1), "max_retries must be non-negative"),
        (lambda: AgentConfig(tolerance=-1), "tolerance must be non-negative"),
        (lambda: AgentConfig(token_budget=0), "token_budget must be positive"),
        (lambda: TemplateEntry("uses {1}", "x"), "description must not contain scaffold marker {1}"),
    ],
)
def test_constructor_checks_keep_their_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_a_record_class_must_declare_its_slots():
    with pytest.raises(KeyError, match="__slots__"):
        class Unslotted(Record):
            pass
