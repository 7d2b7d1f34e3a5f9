"""Every plan of up to five actions in one small world, judged and run.

Nothing here is sampled: each plan strings together up to five of nine
actions, each at its earliest start and in the room it needs (a Move, or
an action whose `required_room` is the arm's room), and is judged from
three starts against three goals. Inside that scope the validator, the
simulator and the oracle cannot disagree unseen. An action away from its
room is refused as not normalized; one such plan per start checks that.
"""

import pytest

from aptbot.oracle import plan_oracle
from aptbot.plan import (
    ActionPlan, Charge, Deliver, Dock, Fill, Move, Pick, TimedAction, required_room,
)
from aptbot.simulator import COMPLETED, FAULT, execute
from aptbot.validator import DurationModel, Goal, validate
from aptbot.world import WorldError, ZArmState
from conftest import small_world
from test_simulator import _END_KINDS

MAX_ACTIONS = 5
ACTIONS = (
    Move("hall"), Move("kitchen"), Move("store"),
    Pick("aspirin", 1), Fill("glass", "water"),
    Deliver((("water", 1),), "hall"), Deliver((("aspirin", 1),), "hall"),
    Dock(), Charge(),
)
DURATIONS = DurationModel()
MINUTES = {
    Pick: DURATIONS.pick_min, Fill: DURATIONS.fill_min, Deliver: DURATIONS.deliver_min,
    Dock: DURATIONS.dock_min, Charge: 0,
}


def _plans(world, room, t, timed=()):
    """Every plan of up to MAX_ACTIONS of ACTIONS from `room` that keeps each
    action in the room it needs, each starting when the one before it completes."""
    yield ActionPlan(timed)
    if len(timed) == MAX_ACTIONS:
        return
    for action in ACTIONS:
        if type(action) is Move:
            room_after, minutes = action.dest, world.travel[(room, action.dest)]
        elif required_room(action, world) == room:
            room_after, minutes = room, MINUTES[type(action)]
        else:  # away from its room: refused, as the test checks once per start
            continue
        yield from _plans(world, room_after, t + minutes, (*timed, TimedAction(t, action)))


def _rank(plan, result, goal, clock):
    """The oracle's rank of an accepted plan: how close its last goal delivery
    lands to the target, then when the plan completes."""
    items = {item for item, _ in goal.deliveries}
    done = [
        end for ta, end in zip(plan.actions, result.completions)
        if type(ta.action) is Deliver and items & {item for item, _ in ta.action.items}
    ]
    closeness = abs(done[-1] - goal.target_time) if done else 0
    return closeness, result.completions[-1] if result.completions else clock


def test_every_small_plan_runs_as_judged_and_none_outranks_the_oracle():
    world = small_world()
    clock = world.clock_start
    goals = (
        Goal((("water", 1),), "hall", clock + 2, tolerance=0),
        Goal((("aspirin", 1),), "hall", clock + 10),
        Goal((), "hall", clock + 5),
    )
    seen = {"judged": 0, "accepted": 0, "faulted": 0}
    for room in world.rooms:
        start, arm = (room, clock), ZArmState(room, docked=True)
        best = {}  # a goal the oracle refuses has no entry: no plan may meet it
        for goal in goals:
            try:
                plan = plan_oracle(world, goal, DURATIONS, start, start_docked=True)
            except ValueError:
                continue
            result = validate(plan, world, goal, DURATIONS, start, start_docked=True)
            assert result.ok, (room, goal, [v.machine_line() for v in result.violations])
            best[goal] = _rank(plan, result, goal, clock)
        away = next(a for a in ACTIONS if type(a) is not Move and required_room(a, world) != room)
        refused = ActionPlan((TimedAction(clock, away),))
        text = f"action needs room {required_room(away, world)!r}, arm is in {room!r}"
        with pytest.raises(WorldError) as info:
            validate(refused, world, goals[0], DURATIONS, start, start_docked=True)
        assert str(info.value) == text
        log = execute(refused, world, arm, DURATIONS)
        assert log.outcome == FAULT and log.events[-1].detail == text
        for plan in _plans(world, room, clock):
            log = execute(plan, world, arm, DURATIONS)
            seen["faulted"] += log.outcome == FAULT
            for goal in goals:
                seen["judged"] += 1
                result = validate(plan, world, goal, DURATIONS, start, start_docked=True)
                steps = [v.machine_line() for v in result.violations if v.kind not in _END_KINDS]
                if steps:
                    assert log.outcome == FAULT and log.events[-1].detail == steps[0], plan
                else:
                    assert log.outcome == COMPLETED, (plan, log.events[-1].line())
                if result.ok:
                    seen["accepted"] += 1
                    got = log.final_state.delivered.get(goal.destination, {})
                    assert all(got.get(item, 0) >= qty for item, qty in goal.deliveries), plan
                    assert log.final_state.docked and log.final_state.charging, plan
                    assert goal in best and _rank(plan, result, goal, clock) >= best[goal], plan
    assert seen["judged"] == 83_058, seen
    assert seen["accepted"] > 50 and seen["faulted"] > 1000, seen
