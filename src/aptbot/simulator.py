"""Deterministic discrete-event execution of a normalized plan.

The simulator trusts plan timestamps: gaps between completion and the next
start are idle waiting. It runs the validator's `walk`, so timing, rooms,
travel and the world rules have one definition, and stops it at the first
problem, before that action changes anything. The run halts with an in-band
`fault` event: the validator's first `VIOLATION` line for the action, or
the `WorldError` text of an unknown room or item, of a wrong take verb or
of an action away from the room it needs (a plan that was not normalized).
A fault is stamped at the action's start, or later if the run is still
busy, and never past 11:59pm. No plan makes `execute` raise: transcripts
stay replayable and the agent loop can feed the fault back to the model. A
run starts as the validator's does (`start_run`), and the log's
`final_state` is that run's `RunState` as it ended. Inputs are never
mutated. Pick, Fill, Dock and Wait events use the serializer's phrase
(`action_phrase`): its verb, lowercased, is the event's kind and the rest
its detail, so a plan line and its event line have one wording.
"""

from __future__ import annotations

from .clock import MINUTES_PER_DAY, format_clock
from .plan import ActionPlan, Charge, Deliver, Move, action_phrase, items_text
from .record import Record
from .validator import DurationModel, RunState, start_run, walk
from .world import WorldError, WorldModel, ZArmState

COMPLETED = "completed"
FAULT = "fault"


class Event(Record):
    __slots__ = ("time", "kind", "detail")
    def __init__(self, time: int, kind: str, detail: str):
        self.time, self.kind, self.detail = time, kind, detail

    def line(self) -> str:
        return f"{format_clock(self.time)} {self.kind} {self.detail}".rstrip()


class EventLog(Record):
    """The events of one run, the run's own state as it ended, and whether
    it completed. `delivered` is `final_state.delivered`: room -> item ->
    quantity dropped off there."""

    __slots__ = ("events", "final_state", "outcome", "delivered")
    def __init__(self, events: list[Event], final_state: RunState, outcome: str):
        self.events, self.final_state, self.outcome = events, final_state, outcome
        self.delivered = final_state.delivered


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
    run = start_run(world, arm.location, arm.docked, world.clock_start)
    events: list[Event] = []
    index, reason = -1, None
    try:
        for index, ta, problems, completion in walk(run, world, plan, durations):
            if problems:
                reason = problems[0].machine_line()
                break  # the walk stops at its yield: the action is never carried out
            t, action = ta.start, ta.action
            kind = type(action)
            if kind is Move:
                events.append(Event(t, "depart", f"{run.location} -> {action.dest}"))
                events.append(Event(completion, "arrive", action.dest))
            elif kind is Deliver:
                events.append(Event(t, "deliver", f"{items_text(action.items)} to {action.dest}"))
            elif kind is Charge:
                events.append(Event(t, "charge_start", ""))
            else:  # Pick, Fill, Dock and Wait report the plan line's own phrase
                verb, _, detail = action_phrase(action).partition(" ")
                events.append(Event(t, verb.lower(), detail))
    except WorldError as exc:  # raised judging the action after the last one yielded
        index, reason = index + 1, str(exc)
    if reason is not None:
        time = min(max(plan.actions[index].start, run.free_at), MINUTES_PER_DAY - 1)
        events.append(Event(time, FAULT, reason))
    return EventLog(events, run, COMPLETED if reason is None else FAULT)
