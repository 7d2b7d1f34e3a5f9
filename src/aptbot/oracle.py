"""Brute-force baseline planner used as ground truth in tests.

Plans one trip: every item is picked up or filled, then all are delivered
at once. Walks every ordering of the goal's pickup/fill waypoints
(factorial, capped at 8) in one loop that only counts minutes: each order's
earliest-feasible timing, shifted so the delivery completes as close to the
target time as the window allows, and the best-ranked order so far. Then
it builds that one order's plan on the validator's walk (`start_run`,
`check`, `apply`). A goal that needs more item kinds than the arm carries
is refused, though a plan of several trips may meet it.
Never called on the production path; the model is the planner there.
"""

from __future__ import annotations

from itertools import permutations

from .clock import MINUTES_PER_DAY
from .plan import ActionPlan, Charge, Deliver, Dock, Fill, Move, Pick, TimedAction
from .validator import DurationModel, Goal, apply, check, goal_waypoints, start_run
from .world import WorldModel, travel_time

MAX_WAYPOINTS = 8


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
    Rooms and items name the order, so no two orders tie."""
    waypoints = sorted(goal_waypoints(world, goal))
    kinds = len(waypoints)  # one waypoint per item
    if kinds > MAX_WAYPOINTS:
        raise ValueError(f"too many waypoints: {kinds} > {MAX_WAYPOINTS}")
    if kinds > world.capacity:  # one trip carries every item to the destination
        raise ValueError(f"goal needs {kinds} item kinds at once, capacity is {world.capacity}")
    # Each stop is (room, item, steps): the arm moves to the room, unless it
    # is there, then takes each (action, minutes) step. Every order is ranked
    # from the same stops. One waypoint per item, so the orders are distinct.
    stops = []
    for room, item, qty, kind in waypoints:
        if kind == "water_cooler":
            steps = ((Fill("glass", item), durations.fill_min),) * qty
        else:
            steps = ((Pick(item, qty), durations.pick_min),)
        stops.append((room, item, steps))
    deliver = None
    tail = ()  # the stops after the waypoints, the same in every order
    if goal.deliveries:
        deliver = Deliver(goal.deliveries, goal.destination)
        tail = ((goal.destination, None, ((deliver, durations.deliver_min),)),)
    # One run serves the dock rule and, after the ranking, the build. The arm
    # stays docked only if no stop leaves the start room, in any order.
    run = start_run(world, start[0], start_docked, start[1])
    if not run.docked or any(room != start[0] for room, _, _ in (*stops, *tail)):
        tail += ((world.charging_room, None, ((Dock(), durations.dock_min), (Charge(), 0))),)
    best = best_rank = None
    for order in permutations(stops):
        # The minutes below repeat `validator.check`'s durations on purpose:
        # ranking needs only each order's minutes, and walking every order on
        # the validator's run state made the reference-answers benchmark's
        # p90 22-35 % slower. Only the winner is built, on that walk, below.
        current, t = start
        delivery = None
        for room, _, steps in order + tail:
            if room != current:
                t += travel_time(world, current, room)
                current = room
            for action, minutes in steps:
                t += minutes
                if action is deliver:
                    delivery = t
        shift = 0
        if delivery is not None:
            if delivery > goal.target_time + goal.tolerance:
                continue  # already too late; shifting only delays further
            shift = max(0, goal.target_time - delivery)
            delivery += shift
        if t + shift >= MINUTES_PER_DAY:
            continue
        closeness = abs(delivery - goal.target_time) if delivery is not None else 0
        rooms = tuple(stop[0] for stop in order)
        items = tuple(stop[1] for stop in order)
        rank = (closeness, t + shift, rooms, items)
        if best is None or rank < best_rank:
            best, best_rank = (order, shift), rank
    if best is None:
        raise ValueError("no waypoint ordering fits the deadline window")
    # Each action starts when the previous one completes; the first also waits
    # out the shift.
    order, shift = best
    t = start[1] + shift
    actions: list[TimedAction] = []
    for room, _, steps in order + tail:
        if room != run.location:
            steps = ((Move(room), None), *steps)
        for action, _ in steps:
            timed = TimedAction(t, action)
            _, t = check(run, world, len(actions), timed, durations)
            apply(run, timed, t)
            actions.append(timed)
    return ActionPlan(tuple(actions))
