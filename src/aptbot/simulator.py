"""Deterministic discrete-event execution of a validated plan.

The simulator trusts plan timestamps (the validator already checked them):
gaps between completion and the next start are idle waiting. Rooms, travel
and world rules are the validator's (`plan.required_room`,
`world.travel_time`, `check`, `apply`). The first problem halts the run
with an in-band `fault` event, before that action changes anything: a
rule's `VIOLATION` line, the `WorldError` text, or `not in <room>`. No plan
makes `execute` raise: transcripts stay replayable and the agent loop can
feed the fault back to the model. A run starts as the validator's does
(`start_run`), and the log's `final_state` is that run's `RunState` as it
ended. Inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clock import MINUTES_PER_DAY, format_clock
from .plan import (
    ActionPlan,
    Charge,
    Deliver,
    Dock,
    Fill,
    Move,
    Pick,
    Wait,
    items_text,
    required_room,
)
from .validator import DurationModel, RunState, apply, check, start_run
from .world import WorldError, WorldModel, ZArmState, travel_time

COMPLETED = "completed"
FAULT = "fault"


@dataclass(slots=True)
class Event:
    time: int
    kind: str
    detail: str

    def line(self) -> str:
        return f"{format_clock(self.time)} {self.kind} {self.detail}".rstrip()


@dataclass
class EventLog:
    """The events of one run, the run's own state as it ended, and whether
    it completed. `delivered` is `final_state.delivered`: room -> item ->
    quantity dropped off there."""

    events: list[Event]
    final_state: RunState
    outcome: str
    delivered: dict[str, dict[str, int]]


def render_event_log(log: EventLog) -> str:
    return "\n".join(e.line() for e in log.events)


def execute(
    plan: ActionPlan,
    world: WorldModel,
    arm: ZArmState,
    durations: DurationModel,
) -> EventLog:
    """Run `plan` from `arm`'s start at the world's `clock_start`, as
    `validate` would start it, until it completes or faults."""
    run = start_run(world, arm.location, arm.docked)
    events: list[Event] = []
    clock = world.clock_start

    def fault(time: int, reason: str) -> EventLog:
        events.append(Event(min(time, MINUTES_PER_DAY - 1), FAULT, reason))
        return EventLog(events, run, FAULT, run.delivered)

    for i, ta in enumerate(plan.actions):
        t, action = ta.start, ta.action
        if t < clock:
            return fault(clock, f"action at {format_clock(t)} is already in the past")

        kind = type(action)
        try:
            if kind is Move:
                arrive = t + travel_time(world, run.location, action.dest)
            else:
                room = required_room(action, world)
        except WorldError as exc:
            return fault(t, str(exc))
        if kind is Move:
            if arrive >= MINUTES_PER_DAY:
                return fault(t, "plan runs past midnight")
            events.append(Event(t, "depart", f"{run.location} -> {action.dest}"))
            events.append(Event(arrive, "arrive", action.dest))
        elif room is not None and room != run.location:
            return fault(t, f"not in {room}")
        else:
            problems = check(run, world, i, action)
            if problems:
                return fault(t, problems[0].machine_line())
            if kind is Pick:
                events.append(Event(t, "pick", f"{action.qty} {action.item}"))
            elif kind is Fill:
                events.append(Event(t, "fill", f"{action.container} with {action.source}"))
            elif kind is Deliver:
                events.append(Event(t, "deliver", f"{items_text(action.items)} to {action.dest}"))
            elif kind is Dock:
                events.append(Event(t, "dock", "at the charging port"))
            elif kind is Charge:
                events.append(Event(t, "charge_start", ""))
            else:  # Wait
                unit = "minute" if action.minutes == 1 else "minutes"
                events.append(Event(t, "wait", f"{action.minutes} {unit}"))
        clock = t + apply(run, world, action, durations)
        if clock >= MINUTES_PER_DAY:
            return fault(MINUTES_PER_DAY - 1, "plan runs past midnight")

    return EventLog(events, run, COMPLETED, run.delivered)
