"""Brute-force baseline planner used as ground truth in tests.

Plans one trip: every item is picked up or filled, then all are delivered
at once. Enumerates every ordering of the goal's pickup/fill waypoints
(factorial, capped at 8), builds the earliest-feasible schedule for each,
then shifts the whole schedule so the delivery completes as close to the
target time as the window allows. A goal that needs more item kinds than
the arm carries is refused, though a plan of several trips may meet it.
Never called on the production path; the model is the planner there.
"""

from __future__ import annotations

from itertools import permutations

from .clock import MINUTES_PER_DAY
from .plan import Action, ActionPlan, Charge, Deliver, Dock, Fill, Move, Pick, TimedAction
from .validator import DurationModel, Goal, goal_waypoints, item_totals, start_run
from .world import WorldModel, travel_time

MAX_WAYPOINTS = 8


def _build(
    world: WorldModel,
    goal: Goal,
    start: tuple[str, int],
    stops: tuple[tuple[str, str | None, tuple[tuple[Action, int], ...]], ...],
    moves: dict[str, Move],
    deliver: Deliver | None,
) -> tuple[ActionPlan, int | None, int] | None:
    """Earliest-feasible chain through `stops`, shifted toward the target.

    Each stop is (room, item, steps): the arm moves to the room, unless it is
    there, then takes each (action, minutes) step. Returns (plan,
    delivery_completion, plan_completion) or None when the chain cannot meet
    the deadline window or runs past midnight. `deliver` is the goal's one
    delivery, None when it delivers nothing.
    """
    # The minutes below repeat `validator.check`'s durations on purpose:
    # building every order's chain on the validator's run state (`start_run`,
    # `apply`) made the reference-answers benchmark's p90 22-35 % slower.
    # Building only the chosen order that way waits for ROADMAP item 8.
    current, t = start
    timeline: list[tuple[int, Action]] = []  # (unshifted start, action)
    delivery = None
    for room, _, steps in stops:
        if room != current:
            timeline.append((t, moves[room]))
            t += travel_time(world, current, room)
            current = room
        for action, minutes in steps:
            timeline.append((t, action))
            t += minutes
            if action is deliver:
                delivery = t

    shift = 0
    if delivery is not None:
        if delivery > goal.target_time + goal.tolerance:
            return None  # already too late; shifting only delays further
        shift = max(0, goal.target_time - delivery)
        delivery += shift
    if t + shift >= MINUTES_PER_DAY:
        return None
    plan = ActionPlan(tuple([TimedAction(minute + shift, action) for minute, action in timeline]))
    return plan, delivery, t + shift


def _candidates(
    world: WorldModel,
    goal: Goal,
    durations: DurationModel,
    start: tuple[str, int],
    start_docked: bool,
) -> list[tuple[tuple[str, ...], tuple[str, ...], ActionPlan, int | None, int]]:
    """All feasible orderings as (rooms, items, plan, delivery, completion),
    in no set order."""
    waypoints = sorted(goal_waypoints(world, goal))
    if len(waypoints) > MAX_WAYPOINTS:
        raise ValueError(f"too many waypoints: {len(waypoints)} > {MAX_WAYPOINTS}")
    kinds = len({item for _, item, _, _ in waypoints})
    if kinds > world.capacity:  # one trip carries every item to the destination
        raise ValueError(f"goal needs {kinds} item kinds at once, capacity is {world.capacity}")
    # Every order is built from the same stops; records are immutable, so
    # the plans share them. One waypoint per item, so the orders are distinct.
    stops = []
    for room, item, qty, kind in waypoints:
        if kind == "water_cooler":
            steps = ((Fill("glass", item), durations.fill_min),) * qty
        else:
            steps = ((Pick(item, qty), durations.pick_min),)
        stops.append((room, item, steps))
    # One line per item with its total, though the goal may name an item twice.
    deliver = None
    tail = ()  # the stops after the waypoints, the same in every order
    if goal.deliveries:
        deliver = Deliver(tuple(item_totals(goal.deliveries).items()), goal.destination)
        tail = ((goal.destination, None, ((deliver, durations.deliver_min),)),)
    # The arm stays docked only if no stop leaves the start room, in any order.
    docked = start_run(world, start[0], start_docked, start[1]).docked
    if not docked or any(room != start[0] for room, _, _ in (*stops, *tail)):
        tail += ((world.charging_room, None, ((Dock(), durations.dock_min), (Charge(), 0))),)
    moves = {room: Move(room) for room, _, _ in (*stops, *tail)}
    out = []
    for order in permutations(stops):
        built = _build(world, goal, start, order + tail, moves, deliver)
        if built is not None:
            rooms = tuple(stop[0] for stop in order)
            items = tuple(stop[1] for stop in order)
            out.append((rooms, items, *built))
    return out


def enumerate_feasible(
    world: WorldModel,
    goal: Goal,
    durations: DurationModel,
    start: tuple[str, int],
    *,
    start_docked: bool = False,
) -> list[ActionPlan]:
    """Every waypoint ordering whose one-trip plan admits a valid schedule,
    canonical form, sorted by the order's rooms, then its items."""
    candidates = _candidates(world, goal, durations, start, start_docked)
    candidates.sort(key=lambda c: (c[0], c[1]))
    return [plan for _, _, plan, _, _ in candidates]


def plan_oracle(
    world: WorldModel,
    goal: Goal,
    durations: DurationModel,
    start: tuple[str, int],
    *,
    start_docked: bool = False,
) -> ActionPlan:
    """Best feasible one-trip plan: delivery closest to the target, ties
    broken by earlier completion, then by the order's rooms, then its items.
    Rooms and items name the order, so no two candidates tie."""
    candidates = _candidates(world, goal, durations, start, start_docked)
    if not candidates:
        raise ValueError("no waypoint ordering fits the deadline window")

    def rank(c):
        rooms, items, _plan, delivery, completion = c
        closeness = abs(delivery - goal.target_time) if delivery is not None else 0
        return (closeness, completion, rooms, items)

    return min(candidates, key=rank)[2]
